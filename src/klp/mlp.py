"""k-level linear program instances and the exact solver.

A k-level instance is a chain of nested minimizations: player l picks its
block of variables to minimize its objective subject to its linear rows and
to the remaining players acting optimally (the optimistic convention: ties
among optimal followers resolve in the leader's favor).

The solver materializes the classic value-function reformulation bottom-up:
the last level's feasible set is a single generalized polyhedron; each level
above replaces the deeper players' optimality by "deeper objective <= deeper
value function (+ eps)", refined over the pieces of that value function. The
level-1 feasible set then comes out as a union of generalized polyhedra over
the full variable space, and optimal value, attainment, and witnesses reduce
to exact linear minimization over that union.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .exactnum import ZERO, Vec, dot, frac, vec, zeros
from .genpoly import NEG_INF, POS_INF, ExtReal, GenPoly
from .pwl import Piece, PwlFunc, lp_value_function

INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"
FINITE = "FINITE"


@dataclass(frozen=True)
class LevelRow:
    """One linear constraint, coefficients over the full variable vector."""

    coeffs: Vec
    rhs: Fraction
    strict: bool = False


@dataclass(frozen=True)
class Level:
    """One player's rows and objective (full-width, zero on earlier blocks)."""

    rows: tuple[LevelRow, ...]
    objective: Vec


@dataclass(frozen=True)
class MlpInstance:
    dims: tuple[int, ...]
    levels: tuple[Level, ...]
    eps: Fraction = ZERO

    def __post_init__(self):
        if not self.dims:
            raise ValueError("need at least one level")
        if any(n < 1 for n in self.dims):
            raise ValueError("every level needs at least one variable")
        if len(self.levels) != len(self.dims):
            raise ValueError("dims and levels disagree on the number of players")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        total = sum(self.dims)
        for li, level in enumerate(self.levels):
            if len(level.objective) != total:
                raise ValueError(f"level {li + 1} objective has wrong width")
            cut = sum(self.dims[:li])
            if any(q != 0 for q in level.objective[:cut]):
                raise ValueError(
                    f"level {li + 1} objective touches earlier players' variables"
                )
            for ri, row in enumerate(level.rows):
                if len(row.coeffs) != total:
                    raise ValueError(f"level {li + 1} row {ri} has wrong width")

    @property
    def k(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        return sum(self.dims)

    def prefix_n(self, level: int) -> int:
        """Number of variables owned by players before ``level`` (1-based)."""
        return sum(self.dims[: level - 1])


def build_instance(dims, level_rows, objectives, eps=0) -> MlpInstance:
    """Assemble an instance from full-width row triples and objectives.

    ``level_rows[l]`` is a list of (coeffs, rhs) or (coeffs, rhs, strict);
    ``objectives[l]`` is the full-width objective of player l+1.
    """
    levels = []
    for rows, objective in zip(level_rows, objectives):
        packed = []
        for entry in rows:
            coeffs, rhs, *flag = entry
            packed.append(LevelRow(vec(coeffs), frac(rhs), bool(flag[0]) if flag else False))
        levels.append(Level(tuple(packed), vec(objective)))
    return MlpInstance(tuple(int(n) for n in dims), tuple(levels), frac(eps))


@dataclass(frozen=True)
class SolveReport:
    """Exact optimal value of an instance, and a minimizer when it is attained."""

    value: ExtReal
    witness: Vec | None

    @property
    def status(self) -> str:
        return {POS_INF: INFEASIBLE, NEG_INF: UNBOUNDED}.get(self.value, FINITE)

    @property
    def attained(self) -> bool:
        return self.witness is not None


@dataclass(frozen=True)
class FeasibleSetDesc:
    level: int
    cells: tuple[GenPoly, ...]


@dataclass(frozen=True)
class _Analysis:
    """Nonempty feasible-graph cells and the value function of each level,
    plus the leader's objective, minimized over the level-1 cells on the
    first request for the report."""

    cells: dict[int, tuple[GenPoly, ...]]
    vfuncs: dict[int, PwlFunc]
    objective: Vec

    @cached_property
    def report(self) -> SolveReport:
        """One minimization per leader cell; the witness is the minimizer of
        the first cell that attains the overall minimum."""
        value, witness = POS_INF, None
        for cell in self.cells[1]:
            cell_value, minimizer = cell.inf_linear(self.objective)
            if cell_value < value or (cell_value == value and witness is None):
                value, witness = cell_value, minimizer
        return SolveReport(value, witness)


def _level_poly(inst: MlpInstance, level: int) -> GenPoly:
    rows = inst.levels[level - 1].rows
    return GenPoly(
        inst.total,
        weak=tuple((r.coeffs, r.rhs) for r in rows if not r.strict),
        strict=tuple((r.coeffs, r.rhs) for r in rows if r.strict),
    )


@lru_cache(maxsize=None)
def _analysis(inst: MlpInstance) -> _Analysis:
    k, n = inst.k, inst.total
    last = _level_poly(inst, k)
    cells: dict[int, tuple[GenPoly, ...]] = {k: () if last.is_empty() else (last,)}
    vfuncs: dict[int, PwlFunc] = {}
    for level in range(k, 1, -1):
        prefix = inst.prefix_n(level)
        suffix = n - prefix
        objective = inst.levels[level - 1].objective[prefix:]
        if cells[level]:
            # reorder to (own-and-deeper variables, then the parameters)
            order = list(range(prefix, n)) + list(range(prefix))
            vfuncs[level] = lp_value_function(
                [c.permuted(order) for c in cells[level]], suffix, objective
            )
        else:
            vfuncs[level] = PwlFunc.constant(prefix, Piece.plus_inf())
        cells[level - 1] = _refine_level(inst, level - 1, cells[level], vfuncs[level])
    return _Analysis(cells, vfuncs, inst.levels[0].objective)


def _refine_level(
    inst: MlpInstance, level: int, deeper_cells: Sequence[GenPoly], vf: PwlFunc
) -> tuple[GenPoly, ...]:
    """Feasible-graph cells of ``level`` from the next level's cells and value
    function: own rows, plus "deeper objective <= value piece + eps" on each
    finite piece's region. Infinite pieces add nothing: a deeper cell meets
    no +inf region of V_{l+1}, and a -inf piece is infeasible."""
    n = inst.total
    own = _level_poly(inst, level)
    deeper_obj = inst.levels[level].objective  # objective of player level+1
    out = []
    for cell in deeper_cells:
        base = cell.intersect(own)
        for region, piece in vf.cells:
            if not piece.offset.is_finite:
                continue
            lifted = piece.coeffs + zeros(n - len(piece.coeffs))
            row = tuple(a - b for a, b in zip(lifted, deeper_obj))
            ext = region.extended(n)
            bound = ((row, -piece.offset.finite - inst.eps),)
            refined = base.intersect(GenPoly(n, ext.weak + bound, ext.strict))
            if not refined.is_empty():
                out.append(refined)
    return tuple(out)


def value_functions(inst: MlpInstance) -> list[PwlFunc]:
    """Value functions of players k down to 2 (player l's is over x_1..x_{l-1})."""
    analysis = _analysis(inst)
    return [analysis.vfuncs[level] for level in range(inst.k, 1, -1)]


def feasible_set(inst: MlpInstance, level: int) -> FeasibleSetDesc:
    """Cells (over the full variable space) whose union is the graph of the
    level's feasible-set mapping."""
    if not 1 <= level <= inst.k:
        raise ValueError(f"no level {level} in a {inst.k}-level instance")
    return FeasibleSetDesc(level, _analysis(inst).cells[level])


def is_feasible(inst: MlpInstance) -> bool:
    return bool(_analysis(inst).cells[1])


def solve(inst: MlpInstance) -> SolveReport:
    """Exact optimal value of the instance, with attainment and witness."""
    return _analysis(inst).report


def decide_val(inst: MlpInstance, threshold) -> bool:
    """Is there a feasible point with leader objective <= threshold?

    An infimum that equals the threshold but is not attained answers no.
    """
    t = ExtReal.of(threshold)
    report = _analysis(inst).report
    return report.value < t or (report.value == t and report.attained)


def decide_unbounded(inst: MlpInstance) -> bool:
    return _analysis(inst).report.value == NEG_INF


def check_feasible_point(inst: MlpInstance, x: Sequence) -> bool:
    """Membership of a point in the level-1 feasible set.

    Checks every linear row of every level, then for each deeper player l'
    that the player's objective is <= its value function at the point's
    prefix, plus eps; a +inf value bound is vacuous and a -inf bound fails.
    """
    point = vec(x)
    if len(point) != inst.total:
        raise ValueError(f"point of length {len(point)} for {inst.total} variables")
    if not all(_level_poly(inst, lv).contains(point) for lv in range(1, inst.k + 1)):
        return False
    analysis = _analysis(inst)
    for lv in range(2, inst.k + 1):
        objective = dot(inst.levels[lv - 1].objective, point)
        bound = analysis.vfuncs[lv].eval(point[: inst.prefix_n(lv)]).plus(inst.eps)
        if not ExtReal.of(objective) <= bound:
            return False
    return True


def check_optimal_point(inst: MlpInstance, x: Sequence) -> bool:
    """Feasible and leader objective exactly equal to the optimal value."""
    point = vec(x)
    if not check_feasible_point(inst, point):
        return False
    return ExtReal.of(dot(inst.levels[0].objective, point)) == _analysis(inst).report.value
