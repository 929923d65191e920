"""Exact rational scalars, vectors, matrices, and linear-system solving.

Every number in the core is a ``fractions.Fraction`` (arbitrary precision,
always reduced, denominator positive), so all arithmetic downstream is exact.
Vectors and matrices are plain tuples with fixed dimensions; there is no
broadcasting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction.

    Floats are rejected: they would silently smuggle rounding error into an
    otherwise exact pipeline.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    raise TypeError(f"expected int, str or Fraction, got {type(value).__name__}")


def format_rational(q: Fraction) -> str:
    """Serialize as "p/q", or just "p" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def vec(values) -> Vec:
    return tuple(frac(v) for v in values)


def mat(rows) -> Mat:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("matrix rows have unequal lengths")
    return out


def zeros(n: int) -> Vec:
    return (ZERO,) * n


def unit(n: int, j: int) -> Vec:
    return tuple(ONE if i == j else ZERO for i in range(n))


def dot(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dot of length {len(u)} with length {len(v)}")
    return sum((a * b for a, b in zip(u, v)), ZERO)


def _bits(n: int) -> int:
    # bit count with the convention bits(0) = 1
    return max(1, n.bit_length())


def encoding_size(q: Fraction) -> int:
    """Bit size of a rational: bits(|numerator|) + bits(denominator)."""
    return _bits(abs(q.numerator)) + _bits(q.denominator)


@dataclass(frozen=True)
class LinearSolution:
    """A particular solution plus a basis of the homogeneous solutions.

    ``nullspace == ()`` means the solution is unique.
    """

    particular: Vec
    nullspace: tuple[Vec, ...]

    @property
    def unique(self) -> bool:
        return not self.nullspace


def gauss_solve(m: Mat, r: Vec) -> LinearSolution | None:
    """Solve m @ x = r exactly by Gauss-Jordan elimination.

    Returns None when the system is inconsistent. Otherwise the particular
    solution sets every free variable to zero, and the nullspace basis has one
    vector per free variable.
    """
    if len(m) != len(r):
        raise ValueError(f"{len(m)} rows but {len(r)} right-hand sides")
    ncols = len(m[0]) if m else 0
    rows = [list(row) + [rhs] for row, rhs in zip(m, r)]

    pivot_cols: list[int] = []
    pivot_row = 0
    for col in range(ncols):
        target = next(
            (i for i in range(pivot_row, len(rows)) if rows[i][col] != 0), None
        )
        if target is None:
            continue
        rows[pivot_row], rows[target] = rows[target], rows[pivot_row]
        pivot = rows[pivot_row][col]
        rows[pivot_row] = [v / pivot for v in rows[pivot_row]]
        for i in range(len(rows)):
            if i != pivot_row and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[pivot_row])]
        pivot_cols.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break

    for i in range(pivot_row, len(rows)):
        if rows[i][ncols] != 0:
            return None

    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    particular = [ZERO] * ncols
    for i, col in enumerate(pivot_cols):
        particular[col] = rows[i][ncols]

    basis = []
    for free in free_cols:
        v = [ZERO] * ncols
        v[free] = ONE
        for i, col in enumerate(pivot_cols):
            v[col] = -rows[i][free]
        basis.append(tuple(v))
    return LinearSolution(tuple(particular), tuple(basis))


def mat_inverse(m: Mat) -> Mat | None:
    """Exact inverse of a square matrix, or None when singular."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    cols = []
    for j in range(n):
        sol = gauss_solve(m, unit(n, j))
        if sol is None or not sol.unique:
            return None
        cols.append(sol.particular)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
