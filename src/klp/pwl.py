"""Rational piecewise-linear functions over partitions into generalized
polyhedra, with +inf and -inf pieces.

Two constructions live here, on one split: cut a region by which affine piece
is lowest, ties going to the earliest piece. ``min_combine`` refines
partitions pairwise and splits every refinement cell by the two functions'
pieces. ``lp_value_function`` turns a union of generalized polyhedra over
(x, y) into the function y -> inf { c.x : (x, y) in union }, via domain
projection plus enumeration of the dual extreme points of each cell's
closure; the maximum over those dual forms is the split of their negations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactnum import ZERO, Mat, Vec, dot, gauss_solve, vec
from .genpoly import NEG_INF, POS_INF, ExtReal, GenPoly, whole_space


@dataclass(frozen=True)
class Piece:
    """One branch of a piecewise function: c.x + d with an extended-real
    offset d; an infinite offset makes the piece +inf or -inf, with no c."""

    coeffs: Vec
    offset: ExtReal

    def __post_init__(self):
        if not self.offset.is_finite and self.coeffs:
            raise ValueError("infinite pieces carry no coefficients")

    @staticmethod
    def affine(coeffs, offset=0) -> "Piece":
        return Piece(vec(coeffs), ExtReal.of(offset))

    @staticmethod
    def plus_inf() -> "Piece":
        return Piece((), POS_INF)

    @staticmethod
    def minus_inf() -> "Piece":
        return Piece((), NEG_INF)

    def value_at(self, x: Vec) -> ExtReal:
        if not self.offset.is_finite:
            return self.offset
        return self.offset.plus(dot(self.coeffs, x))


@dataclass(frozen=True)
class PwlFunc:
    """A function R^dim -> R union {+-inf}, affine on each cell of a partition."""

    dim: int
    cells: tuple[tuple[GenPoly, Piece], ...]

    def __post_init__(self):
        for region, piece in self.cells:
            if region.dim != self.dim:
                raise ValueError("cell region dimension mismatch")
            if piece.offset.is_finite and len(piece.coeffs) != self.dim:
                raise ValueError("affine piece arity mismatch")

    @staticmethod
    def constant(dim: int, piece: Piece) -> "PwlFunc":
        return PwlFunc(dim, ((whole_space(dim), piece),))

    def eval(self, x: Sequence) -> ExtReal:
        point = vec(x)
        if len(point) != self.dim:
            raise ValueError(f"point of length {len(point)} in dim {self.dim}")
        for region, piece in self.cells:
            if region.contains(point):
                return piece.value_at(point)
        raise RuntimeError("partition invariant broken: no cell contains the point")


def _lowest(base: GenPoly, pieces: Sequence[Piece]) -> list[tuple[GenPoly, int]]:
    """The nonempty parts of ``base`` where ``pieces[i]`` is lowest, as
    (region, i) pairs: strictly below every earlier piece and weakly below
    every later one, so ties go to the earliest piece. A comparison with an
    infinite side holds everywhere or nowhere: it is the zero row with rhs
    sign(p_i - p_j), which ``_reduce`` drops or collapses to 0 > 0.
    """
    n = base.dim
    out = []
    for i, p in enumerate(pieces):
        rows = []
        for q in pieces:
            if p.offset.is_finite and q.offset.is_finite:
                row = tuple(b - a for a, b in zip(p.coeffs, q.coeffs))
                rows.append((row, p.offset.finite - q.offset.finite))
            else:
                sign = (p.offset > q.offset) - (q.offset > p.offset)
                rows.append(((ZERO,) * n, Fraction(sign)))
        region = base.intersect(GenPoly(n, tuple(rows[i + 1 :]), tuple(rows[:i])))
        if not region.is_empty():
            out.append((region, i))
    return out


def _min_pair(f: PwlFunc, g: PwlFunc) -> PwlFunc:
    """Pointwise min of two functions; f wins ties (it has the smaller index)."""
    out = []
    for rf, pf in f.cells:
        for rg, pg in g.cells:
            base = rf.intersect(rg)
            out.extend((region, (pf, pg)[i]) for region, i in _lowest(base, (pf, pg)))
    return PwlFunc(f.dim, tuple(out))


def min_combine(funcs: Sequence[PwlFunc]) -> PwlFunc:
    """Pointwise minimum of the inputs, ties resolved to the smallest index.

    Folding pairwise preserves the n-ary tie rule: at every step the running
    function carries the piece of the earliest input attaining the minimum so
    far, so a later input only takes over when strictly smaller.
    """
    if not funcs:
        raise ValueError("min_combine needs at least one function")
    if any(f.dim != funcs[0].dim for f in funcs):
        raise ValueError("all functions must share a dimension")
    combined = funcs[0]
    for g in funcs[1:]:
        combined = _min_pair(combined, g)
    return combined


def _dual_vertices(g_rows: Sequence[Vec], cost: Vec) -> list[Vec]:
    """Extreme points of {u >= 0 : sum_i u_i * g_i = cost}.

    Exhaustive support enumeration: a support of size at most len(cost) with
    linearly independent rows pins u uniquely; nonnegative solutions are kept,
    duplicates (from oversized supports) dropped.
    """
    m = len(g_rows)
    n = len(cost)
    found: list[Vec] = []
    for size in range(0, min(m, n) + 1):
        for support in itertools.combinations(range(m), size):
            columns: Mat = tuple(
                tuple(g_rows[i][t] for i in support) for t in range(n)
            )
            sol = gauss_solve(columns, cost)
            if sol is None or not sol.unique:
                continue
            if any(q < 0 for q in sol.particular):
                continue
            u = [ZERO] * m
            for idx, i in enumerate(support):
                u[i] = sol.particular[idx]
            candidate = tuple(u)
            if candidate not in found:
                found.append(candidate)
    return found


def _cell_value_function(cell: GenPoly, n_x: int, cost: Vec, n_y: int) -> PwlFunc:
    """Value function y -> inf {c.x : (x, y) in cell} for a single cell.

    Outside the projected domain the value is +inf. On the domain, the
    infimum equals the infimum over the cell's closure, which is the maximum
    of u.(h - H y) over the dual extreme points u of {u >= 0 : G^T u = c};
    an empty dual means -inf on the whole domain.
    """
    domain = cell.project(range(n_x, n_x + n_y))
    if domain.is_empty():
        return PwlFunc.constant(n_y, Piece.plus_inf())
    pieces: list[tuple[GenPoly, Piece]] = [
        (hole, Piece.plus_inf())
        for hole in domain.complement_cells()
        if not hole.is_empty()
    ]
    # the closure's rows (the cell is nonempty) that touch x: a row without x
    # is a zero column of G^T, so every support holding it is singular
    closed = [row for row in cell.weak + cell.strict if any(row[0][:n_x])]
    g_rows = [coeffs[:n_x] for coeffs, _ in closed]
    h_cols = [tuple(coeffs[n_x + t] for coeffs, _ in closed) for t in range(n_y)]
    rhs = tuple(r for _, r in closed)
    vertices = _dual_vertices(g_rows, cost)
    if not vertices:
        pieces.append((domain, Piece.minus_inf()))
        return PwlFunc(n_y, tuple(pieces))

    # theta_j(y) = u_j . (h - H y); the highest theta is the lowest -theta
    neg = [([dot(u, col) for col in h_cols], -dot(u, rhs)) for u in vertices]
    for region, i in _lowest(domain, [Piece.affine(c, d) for c, d in neg]):
        pieces.append((region, Piece.affine([-q for q in neg[i][0]], -neg[i][1])))
    return PwlFunc(n_y, tuple(pieces))


def lp_value_function(cells: Sequence[GenPoly], n_x: int, cost) -> PwlFunc:
    """Value function of minimizing c.x over a union of generalized polyhedra.

    Coordinates 0..n_x-1 of every cell are the decision variables x, the rest
    are the parameters y; the result is a piecewise-linear function of y.
    """
    if not cells:
        raise ValueError("lp_value_function needs at least one cell")
    c = vec(cost)
    if len(c) != n_x:
        raise ValueError("objective length must be n_x")
    n = cells[0].dim
    if any(p.dim != n for p in cells):
        raise ValueError("all cells must share a dimension")
    n_y = n - n_x
    if n_x < 1 or n_y < 1:
        raise ValueError("need at least one decision and one parameter variable")
    return min_combine([_cell_value_function(p, n_x, c, n_y) for p in cells])
