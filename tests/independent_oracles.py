"""Independent evaluation paths used to cross-check the library's answers.

These deliberately avoid the code paths they certify: fibers are built by
direct substitution of the sampled coordinates, value functions are checked
against the per-fiber epigraph-projection infimum, and a k-level value
function against the instance with its leading variables fixed.
"""

from fractions import Fraction

from klp.exactnum import dot
from klp.genpoly import POS_INF, ExtReal, GenPoly
from klp.mlp import MlpInstance, build_instance, solve

F = Fraction


def substituted_fiber(poly: GenPoly, keep, point) -> GenPoly:
    """Plug the kept coordinates into the rows; return the residual system
    over the dropped coordinates."""
    fixed = dict(zip(keep, point))
    dropped = [j for j in range(poly.dim) if j not in fixed]

    def convert(pairs):
        out = []
        for coeffs, rhs in pairs:
            residual = rhs - sum(
                (coeffs[j] * value for j, value in fixed.items()), F(0)
            )
            out.append((tuple(coeffs[j] for j in dropped), residual))
        return tuple(out)

    return GenPoly(len(dropped), convert(poly.weak), convert(poly.strict))


def fiber_infimum(cells, n_x, cost, y) -> ExtReal:
    """inf of cost.x over the union's fiber at parameter y, cell by cell."""
    best = POS_INF
    for cell in cells:

        def plug(pairs):
            out = []
            for coeffs, rhs in pairs:
                shift = sum((coeffs[n_x + j] * y[j] for j in range(len(y))), F(0))
                out.append((coeffs[:n_x], rhs - shift))
            return tuple(out)

        fiber = GenPoly(n_x, plug(cell.weak), plug(cell.strict))
        best = min(best, fiber.inf_linear(cost)[0])
    return best


def prefix_fixed_value(inst: MlpInstance, level: int, p) -> ExtReal:
    """V_level(p) from its definition: the value of the sub-instance made of
    levels level..k with x_1..x_{level-1} fixed at p. Each rhs becomes
    rhs - coeffs_prefix.p; rows and objectives keep their suffix columns, and
    eps stays the same.

    The last level is one LP, solved by ``inf_linear`` without the dual
    vertices that build value functions. A shallower level is a smaller
    instance with different data, solved by ``solve``, which runs the same
    construction on it: a defect that both paths share, such as one in the
    refinement or the dual-support enumeration, stays invisible here.
    """
    cut = inst.prefix_n(level)
    levels = inst.levels[level - 1 :]
    rows = [
        [(r.coeffs[cut:], r.rhs - dot(r.coeffs[:cut], p), r.strict) for r in lv.rows]
        for lv in levels
    ]
    objectives = [lv.objective[cut:] for lv in levels]
    if level == inst.k:
        weak = tuple((c, r) for c, r, strict in rows[0] if not strict)
        strict = tuple((c, r) for c, r, strict in rows[0] if strict)
        return GenPoly(inst.total - cut, weak, strict).inf_linear(objectives[0])[0]
    sub = build_instance(inst.dims[level - 1 :], rows, objectives, inst.eps)
    return solve(sub).value
