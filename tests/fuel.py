"""Seeded random data for the tests: polyhedra, points and piecewise-linear
functions with small integer or rational entries."""

import itertools
import random
from fractions import Fraction

from klp.exactnum import Vec, zeros
from klp.genpoly import GenPoly
from klp.pwl import Piece, PwlFunc


def random_genpoly(rng: random.Random, dim: int, max_rows: int = 6, bound: int = 3) -> GenPoly:
    """Test fuel: random mixed weak/strict system with small integer data."""
    weak, strict = [], []
    for _ in range(rng.randint(0, max_rows)):
        coeffs = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(dim))
        rhs = Fraction(rng.randint(-bound, bound))
        (strict if rng.random() < 0.3 else weak).append((coeffs, rhs))
    return GenPoly(dim, tuple(weak), tuple(strict))


def random_point(rng: random.Random, dim: int, span: int = 8, max_den: int = 4) -> Vec:
    return tuple(
        Fraction(rng.randint(-span, span), rng.randint(1, max_den)) for _ in range(dim)
    )


def random_pwl(rng: random.Random, dim: int, bound: int = 3, max_planes: int = 2) -> PwlFunc:
    """Test fuel: a valid partition from a small hyperplane arrangement, with
    random affine and occasional infinite pieces."""
    planes = []
    for _ in range(rng.randint(1, max_planes)):
        normal = zeros(dim)
        while all(q == 0 for q in normal):
            normal = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(dim))
        planes.append((normal, Fraction(rng.randint(-bound, bound))))
    cells = []
    for sides in itertools.product((False, True), repeat=len(planes)):
        weak, strict = [], []
        for (normal, beta), upper in zip(planes, sides):
            if upper:
                weak.append((normal, beta))
            else:
                strict.append((tuple(-q for q in normal), -beta))
        region = GenPoly(dim, tuple(weak), tuple(strict))
        if region.is_empty():
            continue
        roll = rng.random()
        if roll < 0.15:
            piece = Piece.plus_inf()
        elif roll < 0.3:
            piece = Piece.minus_inf()
        else:
            piece = Piece.affine(
                tuple(Fraction(rng.randint(-bound, bound)) for _ in range(dim)),
                Fraction(rng.randint(-bound, bound)),
            )
        cells.append((region, piece))
    return PwlFunc(dim, tuple(cells))
