"""Cell splitting of ``klp.pwl`` as it was before one lowest-piece split
served both the pointwise minimum and the value-function maximum: reference
implementations for differential tests.

``reference_min_combine`` adds one comparison row per side of each pair of
cells, and keeps or drops the whole base when an infinite side decides the
comparison. ``reference_lp_value_function`` keeps each dual form where it is
highest with its own row loop, and combines the cells with
``reference_min_combine``.
"""

from klp.exactnum import ZERO, vec
from klp.genpoly import GenPoly
from klp.pwl import Piece, PwlFunc, _dual_vertices


def _comparison_region(base, big, small, strict):
    if not (big.offset.is_finite and small.offset.is_finite):
        holds = big.offset > small.offset if strict else big.offset >= small.offset
        return base if holds else None
    row = tuple(a - b for a, b in zip(big.coeffs, small.coeffs))
    return base.with_row(row, small.offset.finite - big.offset.finite, strict)


def _min_pair(f, g):
    out = []
    for rf, pf in f.cells:
        for rg, pg in g.cells:
            base = rf.intersect(rg)
            if base.is_empty():
                continue
            keeps_f = _comparison_region(base, pg, pf, strict=False)
            if keeps_f is not None and not keeps_f.is_empty():
                out.append((keeps_f, pf))
            keeps_g = _comparison_region(base, pf, pg, strict=True)
            if keeps_g is not None and not keeps_g.is_empty():
                out.append((keeps_g, pg))
    return PwlFunc(f.dim, tuple(out))


def reference_min_combine(funcs):
    combined = funcs[0]
    for g in funcs[1:]:
        combined = _min_pair(combined, g)
    return combined


def _cell_value_function(cell, n_x, cost, n_y):
    domain = cell.project(range(n_x, n_x + n_y))
    if domain.is_empty():
        return PwlFunc.constant(n_y, Piece.plus_inf())
    pieces = [
        (hole, Piece.plus_inf())
        for hole in domain.complement_cells()
        if not hole.is_empty()
    ]
    closed = cell.weak + cell.strict
    g_rows = [coeffs[:n_x] for coeffs, _ in closed]
    h_rows = [coeffs[n_x:] for coeffs, _ in closed]
    rhs = [r for _, r in closed]
    vertices = _dual_vertices(g_rows, cost)
    if not vertices:
        pieces.append((domain, Piece.minus_inf()))
        return PwlFunc(n_y, tuple(pieces))

    forms = []
    for u in vertices:
        coeffs = tuple(
            -sum((u[i] * h_rows[i][t] for i in range(len(u))), ZERO)
            for t in range(n_y)
        )
        offset = sum((u[i] * rhs[i] for i in range(len(u))), ZERO)
        forms.append((coeffs, offset))

    for i, (ci, di) in enumerate(forms):
        rows = [(tuple(a - b for a, b in zip(ci, cj)), dj - di) for cj, dj in forms]
        region = domain.intersect(GenPoly(n_y, tuple(rows[i + 1 :]), tuple(rows[:i])))
        if not region.is_empty():
            pieces.append((region, Piece.affine(ci, di)))
    return PwlFunc(n_y, tuple(pieces))


def reference_lp_value_function(cells, n_x, cost):
    c = vec(cost)
    n_y = cells[0].dim - n_x
    return reference_min_combine([_cell_value_function(p, n_x, c, n_y) for p in cells])
