"""Instance-to-instance transformations.

``scale_rhs`` multiplies every right-hand side by a positive rational, which
scales the whole feasible set when no level above the last carries rows.
``forward_constraints`` relocates every upper-level row that involves no
later players' variables down to the last level, preserving the leader's
feasible set and value. ``unboundedness_gadget`` adds a leader-level scaling
variable bounded below by 1 that multiplies all right-hand sides, turning a
negative optimal value into unboundedness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .exactnum import ONE, ZERO, Vec, frac, unit
from .genpoly import _normalize
from .mlp import Level, LevelRow, MlpInstance


@dataclass(frozen=True)
class ConditionReport:
    """Which of the structural restrictions an instance satisfies.

    c1: no rows above the last level. c2: the last level's rows include the
    bounds 0 <= x_j <= 1 for every variable. c3: every entry of the rows and
    objectives is an integer of magnitude at most the total variable count.
    """

    c1: bool
    c2: bool
    c3: bool
    violations: tuple[str, ...]


def scale_rhs(inst: MlpInstance, lam) -> MlpInstance:
    """Multiply every right-hand side by lam > 0; everything else unchanged."""
    factor = frac(lam)
    if factor <= 0:
        raise ValueError("scaling factor must be positive")
    levels = tuple(
        Level(
            tuple(replace(r, rhs=factor * r.rhs) for r in level.rows),
            level.objective,
        )
        for level in inst.levels
    )
    return MlpInstance(inst.dims, levels, inst.eps)


def _forwardable(inst: MlpInstance, level: int, row: LevelRow) -> bool:
    cut = sum(inst.dims[:level])
    return all(q == 0 for q in row.coeffs[cut:])


def nonforwardable_rows(inst: MlpInstance) -> tuple[tuple[int, int], ...]:
    """(level, row index) pairs, 1-based level, of upper rows that must stay
    put because they touch later players' variables."""
    stuck = []
    for li in range(1, inst.k):
        for ri, row in enumerate(inst.levels[li - 1].rows):
            if not _forwardable(inst, li, row):
                stuck.append((li, ri))
    return tuple(stuck)


def forward_constraints(inst: MlpInstance) -> MlpInstance:
    """Move every row of levels 1..k-1 that involves no later-level variables
    to level k; forwarded rows precede the original last-level rows, ordered
    by source level. Rows touching later variables stay where they are."""
    if inst.k == 1:
        return inst
    moved: list[LevelRow] = []
    levels = []
    for li in range(1, inst.k):
        keep = []
        for row in inst.levels[li - 1].rows:
            if _forwardable(inst, li, row):
                moved.append(row)
            else:
                keep.append(row)
        levels.append(Level(tuple(keep), inst.levels[li - 1].objective))
    last = inst.levels[inst.k - 1]
    levels.append(Level(tuple(moved) + last.rows, last.objective))
    return MlpInstance(inst.dims, tuple(levels), inst.eps)


def unboundedness_gadget(base: MlpInstance) -> MlpInstance:
    """Augment with a leader variable t >= 1 scaling all right-hand sides.

    Every row a.x >= b becomes a.x - b*t >= 0, and t >= 1 is appended to the
    leader's rows and then forwarded to the last level. The result's value is
    inf over t >= 1 of t times the base value: unbounded iff the base value
    is negative, equal to the base value otherwise.
    """
    if any(level.rows for level in base.levels[:-1]):
        raise ValueError(
            "the gadget needs all rows at the last level (no upper-level rows)"
        )
    cut = base.dims[0]
    dims = (base.dims[0] + 1,) + base.dims[1:]
    total = sum(dims)

    def widen(v: Vec, at_cut: Fraction = ZERO) -> Vec:
        return v[:cut] + (at_cut,) + v[cut:]

    levels = []
    for li, level in enumerate(base.levels):
        rows = tuple(
            LevelRow(widen(r.coeffs, -r.rhs), ZERO, r.strict) for r in level.rows
        )
        if li == 0:
            rows = rows + (LevelRow(unit(total, cut), ONE, False),)
        levels.append(Level(rows, widen(level.objective)))
    return forward_constraints(MlpInstance(dims, tuple(levels), base.eps))


def check_conditions(inst: MlpInstance) -> ConditionReport:
    violations = []

    c1 = True
    for li in range(1, inst.k):
        count = len(inst.levels[li - 1].rows)
        if count:
            c1 = False
            violations.append(f"level {li} has {count} rows above the last level")

    total = inst.total
    bounds = set()
    for row in inst.levels[inst.k - 1].rows:
        if row.strict:
            continue
        bounds.add(_normalize(row.coeffs, row.rhs))
    c2 = True
    for j in range(total):
        lower = (unit(total, j), ZERO)
        upper = (tuple(-q for q in unit(total, j)), -ONE)
        if lower not in bounds:
            c2 = False
            violations.append(f"missing bound x_{j + 1} >= 0 at the last level")
        if upper not in bounds:
            c2 = False
            violations.append(f"missing bound x_{j + 1} <= 1 at the last level")

    c3 = True

    def entry_ok(q: Fraction) -> bool:
        return q.denominator == 1 and -total <= q.numerator <= total

    for li, level in enumerate(inst.levels, start=1):
        for ri, row in enumerate(level.rows):
            bad = [q for q in tuple(row.coeffs) + (row.rhs,) if not entry_ok(q)]
            if bad:
                c3 = False
                violations.append(
                    f"level {li} row {ri}: entries outside integers in "
                    f"[-{total}, {total}]"
                )
        if any(not entry_ok(q) for q in level.objective):
            c3 = False
            violations.append(
                f"level {li} objective: entries outside integers in "
                f"[-{total}, {total}]"
            )
    return ConditionReport(c1, c2, c3, tuple(violations))
