"""Generalized polyhedra: solution sets of mixed weak (>=) and strict (>)
rational linear inequalities.

The workhorse is Fourier-Motzkin elimination with strictness propagation: a
combined inequality is strict exactly when one of its parents is strict. That
rule keeps elimination exact over the reals for mixed systems, which makes
emptiness, projection, subset tests, witness extraction, and exact linear
minimization all decidable in rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, total_ordering
from typing import Iterable, Iterator, Sequence

from .exactnum import ONE, ZERO, Vec, dot, format_rational, frac, vec

RowPair = tuple[Vec, Fraction]


@total_ordering
@dataclass(frozen=True)
class ExtReal:
    """A rational extended with +inf and -inf, totally ordered.

    ``sign`` is -1 for -inf, +1 for +inf, and 0 for a finite value stored in
    ``finite``.
    """

    sign: int
    finite: Fraction | None = None

    def __post_init__(self):
        if self.sign == 0:
            if self.finite is None:
                raise ValueError("finite ExtReal needs a value")
        elif self.sign in (-1, 1):
            if self.finite is not None:
                raise ValueError("infinite ExtReal must not carry a value")
        else:
            raise ValueError(f"bad sign {self.sign}")

    @staticmethod
    def of(q) -> "ExtReal":
        return ExtReal(0, frac(q))

    @property
    def is_finite(self) -> bool:
        return self.sign == 0

    def __lt__(self, other: "ExtReal") -> bool:
        if self.sign != other.sign:
            return self.sign < other.sign
        if self.sign == 0:
            return self.finite < other.finite
        return False

    def plus(self, q: Fraction) -> "ExtReal":
        """Add a finite rational; +-inf absorb."""
        if self.sign == 0:
            return ExtReal.of(self.finite + q)
        return self

    def scaled(self, lam: Fraction) -> "ExtReal":
        """Multiply by a positive rational; +-inf are preserved."""
        if lam <= 0:
            raise ValueError("scaling factor must be positive")
        if self.sign == 0:
            return ExtReal.of(self.finite * lam)
        return self

    def __str__(self) -> str:
        if self.sign > 0:
            return "+inf"
        if self.sign < 0:
            return "-inf"
        return format_rational(self.finite)


POS_INF = ExtReal(1)
NEG_INF = ExtReal(-1)


def _normalize(coeffs: Vec, rhs: Fraction) -> tuple[Vec, Fraction]:
    """Scale a row so its first nonzero coefficient has absolute value 1."""
    lead = next((c for c in coeffs if c != 0), None)
    if lead is None:
        return coeffs, rhs
    scale = ONE / abs(lead)
    return tuple(scale * c for c in coeffs), scale * rhs


def _reduce(rows: Iterable[tuple[Vec, Fraction, bool]], dim: int):
    """Dominance-reduce a row list.

    Rows with identical normalized coefficient vectors are merged, keeping
    only the binding one: among parallel rows, weak rhs b implies strict rhs
    b' whenever b > b', and strict implies weak at equal rhs. Constant rows
    are evaluated: tautologies are dropped and a contradiction collapses the
    whole system to the canonical false row 0 > 0. Kept rows are the original
    (unscaled) rows, in the order their normalized keys first appear.
    """
    zero = (ZERO,) * dim
    # normalized key -> strictness -> (normalized rhs, original row)
    best: dict[Vec, dict[bool, tuple[Fraction, RowPair]]] = {}
    for coeffs, rhs, strict in rows:
        key, nrhs = _normalize(coeffs, rhs)
        if key == zero:
            # 0 >= rhs fails iff rhs > 0; 0 > rhs fails iff rhs >= 0
            violated = (nrhs >= 0) if strict else (nrhs > 0)
            if violated:
                return (), ((zero, ZERO),)
            continue
        slot = best.setdefault(key, {})
        if strict not in slot or nrhs > slot[strict][0]:
            slot[strict] = (nrhs, (coeffs, rhs))

    weak: list[RowPair] = []
    strict_rows: list[RowPair] = []
    for slot in best.values():
        if True in slot and (False not in slot or slot[True][0] >= slot[False][0]):
            strict_rows.append(slot[True][1])
        else:
            weak.append(slot[False][1])
    return tuple(weak), tuple(strict_rows)


@dataclass(frozen=True)
class GenPoly:
    """{x in R^dim : row.x >= rhs for weak rows, row.x > rhs for strict rows}.

    Empty row lists denote the whole space; zero rows are permitted and encode
    constant truths or falsehoods. ``dim == 0`` is the one-point space R^0 and
    only arises internally as the base case of variable elimination.
    """

    dim: int
    weak: tuple[RowPair, ...] = ()
    strict: tuple[RowPair, ...] = ()

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")
        for coeffs, _ in self.weak + self.strict:
            if len(coeffs) != self.dim:
                raise ValueError(
                    f"row of length {len(coeffs)} in a {self.dim}-dim system"
                )

    # -- construction helpers -------------------------------------------------

    def rows(self) -> Iterator[tuple[Vec, Fraction, bool]]:
        for coeffs, rhs in self.weak:
            yield coeffs, rhs, False
        for coeffs, rhs in self.strict:
            yield coeffs, rhs, True

    @property
    def n_rows(self) -> int:
        return len(self.weak) + len(self.strict)

    def intersect(self, other: "GenPoly") -> "GenPoly":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in intersection")
        merged = list(self.rows()) + list(other.rows())
        return GenPoly(self.dim, *_reduce(merged, self.dim))

    def with_row(self, coeffs, rhs, strict: bool = False) -> "GenPoly":
        row = (vec(coeffs), frac(rhs), strict)
        return GenPoly(self.dim, *_reduce(list(self.rows()) + [row], self.dim))

    def permuted(self, order: Sequence[int]) -> "GenPoly":
        """Reorder coordinates: new coordinate j is old coordinate order[j]."""
        if sorted(order) != list(range(self.dim)):
            raise ValueError("order must be a permutation of the coordinates")

        def perm(row: RowPair) -> RowPair:
            coeffs, rhs = row
            return tuple(coeffs[o] for o in order), rhs

        return GenPoly(self.dim, tuple(map(perm, self.weak)), tuple(map(perm, self.strict)))

    def extended(self, new_dim: int) -> "GenPoly":
        """Embed into a larger space by appending zero coefficients."""
        if new_dim < self.dim:
            raise ValueError("cannot shrink by extension")
        pad = (ZERO,) * (new_dim - self.dim)

        def ext(row: RowPair) -> RowPair:
            return row[0] + pad, row[1]

        return GenPoly(new_dim, tuple(map(ext, self.weak)), tuple(map(ext, self.strict)))

    # -- point queries ---------------------------------------------------------

    def contains(self, x: Sequence) -> bool:
        """Exact membership test."""
        point = vec(x)
        if len(point) != self.dim:
            raise ValueError(f"point of length {len(point)} in dim {self.dim}")
        for coeffs, rhs in self.weak:
            if dot(coeffs, point) < rhs:
                return False
        for coeffs, rhs in self.strict:
            if dot(coeffs, point) <= rhs:
                return False
        return True

    # -- elimination and projection ---------------------------------------------

    @cached_property
    def _equalities(self) -> tuple[RowPair, ...]:
        """The weak rows whose negation is also a weak row, in row order: the
        equalities usable as substitution pivots. Normalizing (-c, -r) gives
        (-key, -rhs), so each row is normalized once."""
        normed = [_normalize(c, r) for c, r in self.weak]
        present = set(normed)
        return tuple(
            row
            for row, (key, rhs) in zip(self.weak, normed)
            if (tuple(-q for q in key), -rhs) in present
        )

    def eliminate(self, var: int) -> "GenPoly":
        """Fourier-Motzkin elimination of coordinate ``var`` (0-based).

        The result describes exactly the points whose fiber over the dropped
        coordinate is nonempty; a combined row is strict iff either parent is.
        When an equality pair pivots the variable, elimination degenerates to
        Gaussian substitution, which avoids the quadratic row blow-up.
        """
        if not 0 <= var < self.dim:
            raise ValueError(f"no coordinate {var} in dim {self.dim}")
        pivot = next((row for row in self._equalities if row[0][var] != 0), None)
        if pivot is not None:
            pc, pr = pivot
            combined = []
            for coeffs, rhs, strict in self.rows():
                factor = coeffs[var] / pc[var]
                row = tuple(a - factor * b for a, b in zip(coeffs, pc))
                combined.append((row[:var] + row[var + 1 :], rhs - factor * pr, strict))
            return GenPoly(self.dim - 1, *_reduce(combined, self.dim - 1))
        copies: list[tuple[Vec, Fraction, bool]] = []
        lowers: list[tuple[Vec, Fraction, bool, Fraction]] = []
        uppers: list[tuple[Vec, Fraction, bool, Fraction]] = []
        for coeffs, rhs, strict in self.rows():
            a = coeffs[var]
            rest = coeffs[:var] + coeffs[var + 1 :]
            if a == 0:
                copies.append((rest, rhs, strict))
            elif a > 0:
                lowers.append((rest, rhs, strict, a))
            else:
                uppers.append((rest, rhs, strict, a))
        combined = list(copies)
        for lo_c, lo_r, lo_s, lo_a in lowers:
            for up_c, up_r, up_s, up_a in uppers:
                ml, mu = -up_a, lo_a  # both positive; var column cancels
                row = tuple(ml * a + mu * b for a, b in zip(lo_c, up_c))
                combined.append((row, ml * lo_r + mu * up_r, lo_s or up_s))
        return GenPoly(self.dim - 1, *_reduce(combined, self.dim - 1))

    def project(self, keep: Sequence[int]) -> "GenPoly":
        """Project onto the listed coordinates, in the listed order."""
        kept = list(keep)
        if not kept:
            raise ValueError("keep must be nonempty")
        if len(set(kept)) != len(kept) or not all(0 <= j < self.dim for j in kept):
            raise ValueError("keep must be distinct valid coordinates")
        out = self
        for j in sorted(set(range(self.dim)) - set(kept), reverse=True):
            out = out.eliminate(j)
        remaining = sorted(kept)
        if kept != remaining:
            out = out.permuted([remaining.index(j) for j in kept])
        return out

    def is_empty(self) -> bool:
        """Exact emptiness over the reals."""
        return _is_empty(self)

    # -- set operations ----------------------------------------------------------

    def closure(self) -> "GenPoly":
        """Topological closure: every strict row weakened. Requires nonempty."""
        if self.is_empty():
            raise ValueError("closure is only defined here for nonempty sets")
        return GenPoly(self.dim, self.weak + self.strict, ())

    def complement_cells(self) -> tuple["GenPoly", ...]:
        """The complement as an ordered disjoint union of generalized polyhedra.

        Cell j flips the j-th row and keeps the earlier rows; coefficients are
        negations of the input rows only.
        """
        cells = []
        for j, (coeffs, rhs) in enumerate(self.weak):
            cells.append(
                GenPoly(
                    self.dim,
                    weak=self.weak[:j],
                    strict=((tuple(-c for c in coeffs), -rhs),),
                )
            )
        for j, (coeffs, rhs) in enumerate(self.strict):
            cells.append(
                GenPoly(
                    self.dim,
                    weak=self.weak + ((tuple(-c for c in coeffs), -rhs),),
                    strict=self.strict[:j],
                )
            )
        return tuple(cells)

    def is_subset(self, other: "GenPoly") -> bool:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in subset test")
        return all(
            self.intersect(cell).is_empty() for cell in other.complement_cells()
        )

    # -- witnesses and optimization ------------------------------------------------

    def witness_point(self) -> Vec | None:
        """A rational point of the set, or None when empty: the minimizer of
        the zero cost (see ``inf_linear``)."""
        return self.inf_linear((ZERO,) * self.dim)[1]

    def inf_linear(self, c: Sequence) -> tuple[ExtReal, Vec | None]:
        """Exact infimum of c.x over the set, with a minimizer or None.

        Eliminates x from the epigraph {(t, x) : x in P, t >= c.x}, last
        coordinate first, and reads the infimum as the lower endpoint of the
        projected line; inf over the empty set is +inf. The infimum is attained
        iff it lies on the line. The minimizer comes from back-substitution
        through the same tower with t fixed at the infimum: each coordinate is
        the midpoint of its residual interval, bound+1 / bound-1 when
        one-sided, and 0 when free.
        """
        cost = vec(c)
        if len(cost) != self.dim:
            raise ValueError("objective length must match dimension")
        epi_rows = [((ZERO,) + coeffs, rhs, s) for coeffs, rhs, s in self.rows()]
        epi_rows.append(((ONE,) + tuple(-q for q in cost), ZERO, False))
        tower = [GenPoly(self.dim + 1, *_reduce(epi_rows, self.dim + 1))]
        while tower[-1].dim > 1:
            tower.append(tower[-1].eliminate(tower[-1].dim - 1))
        line = tower[-1]
        if line.is_empty():
            return POS_INF, None
        lo = _interval(line, ())[0]
        if lo is None:
            return NEG_INF, None
        if not line.contains((lo,)):
            return ExtReal.of(lo), None
        point = [lo]
        for level in reversed(tower[:-1]):
            below, above = _interval(level, point)
            if below is not None and above is not None:
                point.append((below + above) / 2)
            elif below is not None:
                point.append(below + 1)
            elif above is not None:
                point.append(above - 1)
            else:
                point.append(ZERO)
        return ExtReal.of(lo), tuple(point[1:])


def _interval(poly: GenPoly, prefix: Sequence[Fraction]):
    """Tightest lower and upper bounds (None when absent) on the coordinate
    after ``prefix`` in a system over exactly prefix plus that coordinate."""
    d = len(prefix)
    lo: Fraction | None = None
    hi: Fraction | None = None
    for coeffs, rhs, _ in poly.rows():
        a = coeffs[d]
        if a == 0:
            continue
        bound = (rhs - dot(coeffs[:d], prefix)) / a
        if a > 0:
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    return lo, hi


@lru_cache(maxsize=None)
def _is_empty(poly: GenPoly) -> bool:
    # unreduced input is fine: each elimination reduces its output
    while not _reduced_to_false(poly):
        if poly.dim == 0:
            return False
        poly = poly.eliminate(_cheapest_variable(poly))
    return True


def _reduced_to_false(poly: GenPoly) -> bool:
    zero = (ZERO,) * poly.dim
    return any(c == zero and r >= 0 for c, r in poly.strict) or any(
        c == zero and r > 0 for c, r in poly.weak
    )


def _cheapest_variable(poly: GenPoly) -> int:
    """Pick the variable whose elimination grows the row count least.

    Variables pivoted by an equality pair are free (substitution); otherwise
    the classic lowers-times-uppers estimate applies.
    """
    for coeffs, _ in poly._equalities:
        pivot_col = next((j for j, q in enumerate(coeffs) if q != 0), None)
        if pivot_col is not None:
            return pivot_col
    best, best_cost = 0, None
    for j in range(poly.dim):
        lowers = uppers = 0
        for coeffs, _, _ in poly.rows():
            if coeffs[j] > 0:
                lowers += 1
            elif coeffs[j] < 0:
                uppers += 1
        cost = lowers * uppers - lowers - uppers
        if best_cost is None or cost < best_cost:
            best, best_cost = j, cost
    return best


def genpoly(dim: int, weak=(), strict=()) -> GenPoly:
    """Build a GenPoly from (coefficients, rhs) pairs of ints/strings/Fractions."""
    return GenPoly(
        dim,
        tuple((vec(c), frac(r)) for c, r in weak),
        tuple((vec(c), frac(r)) for c, r in strict),
    )


def whole_space(dim: int) -> GenPoly:
    return GenPoly(dim)
