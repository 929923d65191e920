"""Independent verification paths and reproducible random generators.

``bilevel_basis_solve`` solves standard-form bilevel instances by exhaustive
enumeration of dual-feasible follower bases: each basis induces a plain
linear system whose points are exactly the bilevel-feasible points certified
by that basis, so the bilevel optimum is the minimum over the consistent
systems. ``naive_trilevel_demo`` shows why that certificate logic must not be
lifted naively to three levels: on the min-max-min counterexample it accepts
a point although the trilevel instance is infeasible.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import (
    ONE,
    ZERO,
    Mat,
    Vec,
    dot,
    frac,
    gauss_solve,
    mat,
    mat_inverse,
    unit,
    vec,
    zeros,
)
from .genpoly import NEG_INF, POS_INF, ExtReal, GenPoly
from .mlp import (
    FINITE,
    INFEASIBLE,
    UNBOUNDED,
    MlpInstance,
    SolveReport,
    build_instance,
    check_feasible_point,
    solve,
)


@dataclass(frozen=True)
class StandardBilevel:
    """Bilevel LP in standard form.

    Leader: min c11.x1 + c12.x2 s.t. A11 x1 + A12 x2 = b1, x1 >= 0.
    Follower: x2 minimizes c22.x2' s.t. A21 x1 + A22 x2' = b2, x2' >= 0.
    A22 must have full row rank so every follower optimum has a basic
    representative.
    """

    a11: Mat
    a12: Mat
    b1: Vec
    a21: Mat
    a22: Mat
    b2: Vec
    c11: Vec
    c12: Vec
    c22: Vec

    def __post_init__(self):
        n1, n2 = len(self.c11), len(self.c12)
        if len(self.c22) != n2:
            raise ValueError("follower objective width disagrees with c12")
        if len(self.b1) != len(self.a11) or len(self.a12) != len(self.a11):
            raise ValueError("leader system shapes disagree")
        if len(self.b2) != len(self.a21) or len(self.a22) != len(self.a21):
            raise ValueError("follower system shapes disagree")
        for row in self.a11:
            if len(row) != n1:
                raise ValueError("A11 width disagrees with c11")
        for row in self.a12:
            if len(row) != n2:
                raise ValueError("A12 width disagrees with c12")
        for row in self.a21:
            if len(row) != n1:
                raise ValueError("A21 width disagrees with c11")
        for row in self.a22:
            if len(row) != n2:
                raise ValueError("A22 width disagrees with c22")
        # full row rank iff the rows admit no nontrivial vanishing combination
        a22_t = tuple(tuple(row[j] for row in self.a22) for j in range(n2))
        if gauss_solve(a22_t, zeros(n2)).nullspace:
            raise ValueError("A22 must have full row rank")

    @property
    def n1(self) -> int:
        return len(self.c11)

    @property
    def n2(self) -> int:
        return len(self.c12)

    @property
    def m2(self) -> int:
        return len(self.a22)


@dataclass(frozen=True)
class BilevelBasisResult:
    status: str
    value: ExtReal
    attained: bool
    witness: Vec | None
    basis: tuple[int, ...] | None
    bases_total: int
    bases_singular: int
    bases_dual_feasible: int


def _equality_rows(coeffs: Vec, rhs: Fraction):
    yield coeffs, rhs
    yield tuple(-q for q in coeffs), -rhs


def _basis_system(p: StandardBilevel, inv: Mat, y: Vec) -> GenPoly:
    n = p.n1 + p.n2
    rows = []
    for a_row1, a_row2, rhs in zip(p.a11, p.a12, p.b1):
        rows.extend(_equality_rows(tuple(a_row1) + tuple(a_row2), rhs))
    for j in range(p.n1):
        rows.append((unit(n, j), ZERO))
    for a_row1, a_row2, rhs in zip(p.a21, p.a22, p.b2):
        rows.extend(_equality_rows(tuple(a_row1) + tuple(a_row2), rhs))
    for j in range(p.n2):
        rows.append((unit(n, p.n1 + j), ZERO))

    # value equation: y.(b2 - A21 x1) = c22.x2 with y = c_B^T A_B^{-1}
    x1_part = tuple(
        -sum((y[i] * p.a21[i][j] for i in range(p.m2)), ZERO) for j in range(p.n1)
    )
    rows.extend(
        _equality_rows(x1_part + tuple(-q for q in p.c22), -dot(y, p.b2))
    )

    # basic feasibility: A_B^{-1} (b2 - A21 x1) >= 0
    for i in range(p.m2):
        coeffs = tuple(
            -sum((inv[i][r] * p.a21[r][j] for r in range(p.m2)), ZERO)
            for j in range(p.n1)
        )
        rows.append((coeffs + zeros(p.n2), -dot(inv[i], p.b2)))

    return GenPoly(n, weak=tuple(rows))


def bilevel_basis_solve(p: StandardBilevel) -> BilevelBasisResult:
    """Minimum leader objective over all dual-feasible-basis systems."""
    leader_cost = p.c11 + p.c12
    total = singular = dual_ok = 0
    consistent: list[tuple[ExtReal, Vec | None, tuple[int, ...]]] = []
    for basis in itertools.combinations(range(p.n2), p.m2):
        total += 1
        a_b = tuple(tuple(p.a22[i][j] for j in basis) for i in range(p.m2))
        inv = mat_inverse(a_b)
        if inv is None:
            singular += 1
            continue
        y = tuple(
            sum((p.c22[basis[r]] * inv[r][i] for r in range(p.m2)), ZERO)
            for i in range(p.m2)
        )
        reduced_ok = True
        for j in range(p.n2):
            if j in basis:
                continue
            column = tuple(p.a22[i][j] for i in range(p.m2))
            if p.c22[j] - dot(y, column) < 0:
                reduced_ok = False
                break
        if not reduced_ok:
            continue
        dual_ok += 1
        value, minimizer = _basis_system(p, inv, y).inf_linear(leader_cost)
        if value != POS_INF:
            consistent.append((value, minimizer, basis))

    if not consistent:
        return BilevelBasisResult(
            INFEASIBLE, POS_INF, False, None, None, total, singular, dual_ok
        )
    best = min(v for v, _, _ in consistent)
    if best == NEG_INF:
        return BilevelBasisResult(
            UNBOUNDED, NEG_INF, False, None, None, total, singular, dual_ok
        )
    for value, minimizer, basis in consistent:
        if value == best and minimizer is not None:
            return BilevelBasisResult(
                FINITE, best, True, minimizer, basis, total, singular, dual_ok
            )
    return BilevelBasisResult(FINITE, best, False, None, None, total, singular, dual_ok)


def to_mlp(p: StandardBilevel) -> MlpInstance:
    """The same bilevel problem as a 2-level instance (equalities as row pairs)."""
    n = p.n1 + p.n2
    rows1 = []
    for a_row1, a_row2, rhs in zip(p.a11, p.a12, p.b1):
        rows1.extend(_equality_rows(tuple(a_row1) + tuple(a_row2), rhs))
    for j in range(p.n1):
        rows1.append((unit(n, j), ZERO))
    rows2 = []
    for a_row1, a_row2, rhs in zip(p.a21, p.a22, p.b2):
        rows2.extend(_equality_rows(tuple(a_row1) + tuple(a_row2), rhs))
    for j in range(p.n2):
        rows2.append((unit(n, p.n1 + j), ZERO))
    return build_instance(
        (p.n1, p.n2),
        [rows1, rows2],
        [p.c11 + p.c12, zeros(p.n1) + p.c22],
    )


# -- the trilevel counterexample ------------------------------------------------


def buchheim_instance() -> MlpInstance:
    """min_x1 max_x2 min_x3 { x3 : x3 >= x2 - 1, x >= 0 }, all rows at level 3.

    The max level is encoded by negating that player's objective.
    """
    return build_instance(
        (1, 1, 1),
        [
            [],
            [],
            [
                ((0, -1, 1), -1),  # x3 - x2 >= -1
                ((1, 0, 0), 0),
                ((0, 1, 0), 0),
                ((0, 0, 1), 0),
            ],
        ],
        [(0, 0, 1), (0, 0, -1), (0, 0, 1)],
    )


def naive_buchheim_bilevel(threshold) -> MlpInstance:
    """The basis-{s3} bilevel reformulation of the counterexample.

    The last level's problem is put in standard form with slack s3, the basis
    consisting of s3 alone is dual feasible, and its certificate rows (x3 = 0,
    1 - x2 >= 0) replace the third player. Variables: x1 | (x2, x3, s3).
    """
    t = frac(threshold)
    return build_instance(
        (1, 3),
        [
            [],
            [
                ((0, 0, -1, 0), -t),  # x3 <= t
                ((0, -1, 1, -1), -1),  # x3 - s3 = x2 - 1
                ((0, 1, -1, 1), 1),
                ((1, 0, 0, 0), 0),
                ((0, 1, 0, 0), 0),
                ((0, 0, 1, 0), 0),
                ((0, 0, 0, 1), 0),
                ((0, 0, 1, 0), 0),  # x3 = 0
                ((0, 0, -1, 0), 0),
                ((0, -1, 0, 0), -1),  # 1 - x2 >= 0
            ],
        ],
        [(0, 0, 1, 0), (0, 0, -1, 0)],
    )


@dataclass(frozen=True)
class NaiveTrilevelDemo:
    threshold: Fraction
    exact: SolveReport
    certificate: Vec
    certificate_feasible: bool
    naive_status: str
    mismatch: bool


def naive_trilevel_demo(threshold) -> NaiveTrilevelDemo:
    """Exact solver vs. the naive basis replacement on the counterexample.

    The exact side reports INFEASIBLE; the naive bilevel reformulation is
    feasible (it contains x = 0, s3 = 1), so the two verdicts disagree for
    every nonnegative threshold.
    """
    t = frac(threshold)
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    exact = solve(buchheim_instance())
    naive = naive_buchheim_bilevel(t)
    certificate = vec((0, 0, 0, 1))
    certificate_feasible = check_feasible_point(naive, certificate)
    naive_status = solve(naive).status
    mismatch = exact.status == INFEASIBLE and naive_status != INFEASIBLE
    return NaiveTrilevelDemo(
        t, exact, certificate, certificate_feasible, naive_status, mismatch
    )


# -- reproducible random generators ----------------------------------------------


_CONDITIONS = frozenset({"C1", "C2", "C3"})


def random_instance(
    seed: int,
    k: int,
    dims,
    rows,
    bound: int,
    require=(),
) -> MlpInstance:
    """Deterministic random instance with integer data in [-bound, bound].

    ``require`` may contain "C1" (all rows generated at the last level), "C2"
    (box rows 0 <= x_j <= 1 appended at the last level; instances whose last
    level is empty are redrawn, up to 100 times), and "C3" (rejects bound >
    total variables).
    """
    wanted = frozenset(require)
    if not wanted <= _CONDITIONS:
        raise ValueError(f"unknown conditions: {sorted(wanted - _CONDITIONS)}")
    dims = tuple(int(n) for n in dims)
    rows = tuple(int(m) for m in rows)
    if k < 1 or len(dims) != k or len(rows) != k:
        raise ValueError("need one dimension and one row count per level")
    if any(n < 1 for n in dims) or any(m < 0 for m in rows):
        raise ValueError("dims must be positive and row counts nonnegative")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    total = sum(dims)
    if "C3" in wanted and bound > total:
        raise ValueError(
            f"C3 needs entries in [-{total}, {total}] but bound is {bound}"
        )
    counts = rows
    if "C1" in wanted:
        counts = (0,) * (k - 1) + (sum(rows),)

    rng = random.Random(seed)
    for _ in range(100):
        inst = _draw_instance(rng, dims, counts, bound, "C2" in wanted)
        if "C2" not in wanted:
            return inst
        last = inst.levels[-1]
        poly = GenPoly(
            total, weak=tuple((r.coeffs, r.rhs) for r in last.rows)
        )
        if not poly.is_empty():
            return inst
    raise ValueError("could not draw a nonempty last level in 100 attempts")


def _draw_instance(rng, dims, counts, bound, boxes: bool) -> MlpInstance:
    total = sum(dims)
    k = len(dims)
    level_rows = []
    for li in range(k):
        rows = [
            (
                tuple(Fraction(rng.randint(-bound, bound)) for _ in range(total)),
                Fraction(rng.randint(-bound, bound)),
            )
            for _ in range(counts[li])
        ]
        if boxes and li == k - 1:
            for j in range(total):
                rows.append((unit(total, j), ZERO))
                rows.append((tuple(-q for q in unit(total, j)), -ONE))
        level_rows.append(rows)
    objectives = []
    for li in range(k):
        cut = sum(dims[:li])
        objectives.append(
            zeros(cut)
            + tuple(Fraction(rng.randint(-bound, bound)) for _ in range(total - cut))
        )
    return build_instance(dims, level_rows, objectives)


def random_bilevel(rng: random.Random, bound: int = 3) -> StandardBilevel:
    """A random standard-form bilevel instance whose follower region is a
    polytope (box rows with slacks), so basic optima always exist."""
    q1 = rng.randint(1, 2)
    q2 = rng.randint(1, 2)
    extra = rng.random() < 0.5
    n1 = 2 * q1
    n2 = 2 * q2 + (1 if extra else 0)
    m1 = q1
    m2 = q2 + (1 if extra else 0)

    a11 = [[ZERO] * n1 for _ in range(m1)]
    a12 = [[ZERO] * n2 for _ in range(m1)]
    b1 = []
    for j in range(q1):
        a11[j][j] = ONE
        a11[j][q1 + j] = ONE
        b1.append(ONE)

    a21 = [[ZERO] * n1 for _ in range(m2)]
    a22 = [[ZERO] * n2 for _ in range(m2)]
    b2 = []
    for j in range(q2):
        a22[j][j] = ONE
        a22[j][q2 + j] = ONE
        b2.append(ONE)
    if extra:
        row = q2
        for j in range(q2):
            a22[row][j] = Fraction(rng.randint(-bound, bound))
        for j in range(q1):
            a21[row][j] = Fraction(rng.randint(-bound, bound))
        a22[row][2 * q2] = -ONE
        b2.append(Fraction(rng.randint(-bound, bound)))

    c11 = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n1))
    c12 = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n2))
    c22 = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n2))
    return StandardBilevel(
        mat(a11), mat(a12), vec(b1), mat(a21), mat(a22), vec(b2), c11, c12, c22
    )
