"""Row bookkeeping of ``klp.genpoly`` as it was before each row was
normalized once: reference implementations for differential tests.

``reference_reduce`` tracks the key order, the kept original rows and the
binding right-hand sides in three dicts; ``reference_equality_pivot``
normalizes every weak row, and the negation of each candidate, per call.
"""

from klp.exactnum import ONE, ZERO


def _normalize(coeffs, rhs):
    lead = next((c for c in coeffs if c != 0), None)
    if lead is None:
        return coeffs, rhs
    scale = ONE / abs(lead)
    return tuple(scale * c for c in coeffs), scale * rhs


def reference_reduce(rows, dim):
    zero = (ZERO,) * dim
    order = {}
    originals = {}
    best = {}
    for coeffs, rhs, strict in rows:
        key, nrhs = _normalize(coeffs, rhs)
        if key == zero:
            violated = (nrhs >= 0) if strict else (nrhs > 0)
            if violated:
                return (), ((zero, ZERO),)
            continue
        slot = best.setdefault(key, {})
        if strict not in slot or nrhs > slot[strict]:
            slot[strict] = nrhs
            originals[(key, strict)] = (coeffs, rhs)
        order.setdefault(key)

    weak = []
    strict_rows = []
    for key in order:
        slot = best[key]
        if True in slot and (False not in slot or slot[True] >= slot[False]):
            strict_rows.append(originals[(key, True)])
        else:
            weak.append(originals[(key, False)])
    return tuple(weak), tuple(strict_rows)


def reference_equality_pivot(poly, var):
    norms = {_normalize(c, r) for c, r in poly.weak}
    for coeffs, rhs in poly.weak:
        if coeffs[var] != 0:
            negated = _normalize(tuple(-q for q in coeffs), -rhs)
            if negated in norms:
                return coeffs, rhs
    return None
