"""Answer checks, run after the timed phase.

Every problem found is appended to the operation it concerns, and an
operation with any problem counts as failed. Two kinds of check apply:

* independent checks, valid on every seed: witnesses lie in the feasible set
  and attain the value, bounded instances are FINITE, standard-form bilevels
  agree with ``bilevel_basis_solve``, and the answers of one ``query-mix``
  session agree with each other;
* on the default seed, each answer is compared with ``expected_seed0.json``.
  Witnesses are never compared there, since another exact method may return
  another optimal vertex.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby

# CLI operations whose JSON is {"answer": bool}
DECISIONS = ("feasible", "decide-unb", "decide-val", "gadget-decide-unb")


def answer(op) -> str | None:
    """Short comparable form of an operation's answer; None when the
    operation has no stored answer (or failed to give one)."""
    if op.exit_code != 0:
        return None
    out = op.output
    if op.name == "solve":
        if isinstance(out, dict):
            return f"{out['status']} {out['value']} {int(out['attained'])}"
        return f"{out.status} {out.value} {int(out.attained)}"
    if op.name in DECISIONS:
        return str(int(out["answer"]))
    if op.name == "check-point":
        return f"{int(out['feasible'])}{int(out['optimal'])}"
    return None


def _solve_fields(op):
    """(status, value text, attained, witness) of a solve operation."""
    out = op.output
    if isinstance(out, dict):
        witness = out["witness"]
        return out["status"], out["value"], out["attained"], (
            None if witness is None else tuple(Fraction(q) for q in witness)
        )
    return out.status, str(out.value), out.attained, out.witness


def _check_witness(inst, op) -> None:
    from klp.exactnum import dot
    from klp.mlp import check_feasible_point

    status, value, attained, witness = _solve_fields(op)
    if not attained:
        if witness is not None:
            op.problems.append("witness given for an unattained value")
        return
    if status != "FINITE" or witness is None:
        op.problems.append(f"attained {status} answer without a witness")
        return
    if not check_feasible_point(inst, witness):
        op.problems.append("witness is not in the feasible set")
    if dot(inst.levels[0].objective, witness) != Fraction(value):
        op.problems.append("witness objective differs from the value")


def _standard_bilevel(obj):
    from klp.exactnum import mat, vec
    from klp.oracle import StandardBilevel

    return StandardBilevel(
        mat(obj["a11"]), mat(obj["a12"]), vec(obj["b1"]),
        mat(obj["a21"]), mat(obj["a22"]), vec(obj["b2"]),
        vec(obj["c11"]), vec(obj["c12"]), vec(obj["c22"]),
    )


def check_solves(items, instances, ops) -> None:
    """Checks for the cold-solve workloads."""
    from klp.oracle import bilevel_basis_solve

    by_id = {item["id"]: (item, inst) for item, inst in zip(items, instances)}
    for op in ops:
        if op.exit_code != 0:
            op.problems.append(f"raised {op.output}")
            continue
        item, inst = by_id[op.item]
        _check_witness(inst, op)
        status, value, _, _ = _solve_fields(op)
        if item["kind"] == "standard":
            oracle = bilevel_basis_solve(_standard_bilevel(item["bilevel"]))
            if (oracle.status, str(oracle.value)) != (status, value):
                op.problems.append(
                    f"oracle says {oracle.status} {oracle.value}, solve {status} {value}"
                )
        elif status != "FINITE":
            op.problems.append(f"bounded C1+C2 instance came out {status}")


def _check_forward(inst, forwarded: dict) -> bool:
    """Forwarding moves rows down to the last level and changes nothing else."""
    from klp.jsonio import instance_from_obj

    out = instance_from_obj(forwarded)

    def all_rows(x):
        return sorted((r.coeffs, r.rhs, r.strict) for lv in x.levels for r in lv.rows)

    return (
        out.dims == inst.dims
        and out.eps == inst.eps
        and [lv.objective for lv in out.levels] == [lv.objective for lv in inst.levels]
        and all_rows(out) == all_rows(inst)
    )


def check_sessions(items, instances, ops) -> None:
    """Checks for query-mix: each session's answers against its solve."""
    by_id = {item["id"]: inst for item, inst in zip(items, instances)}
    for item_id, group in groupby(ops, key=lambda op: op.item):
        session = list(group)
        inst = by_id[item_id]
        for op in session:
            if op.exit_code != 0:
                op.problems.append(f"exit {op.exit_code}: {str(op.output)[:200]}")
        solved = session[0]
        if solved.exit_code != 0:
            continue
        _check_witness(inst, solved)
        status, value, attained, _ = _solve_fields(solved)
        finite = status == "FINITE"
        want = {
            "feasible": status != "INFEASIBLE",
            "decide-unb": status == "UNBOUNDED",
            "decide-val": attained if finite else status == "UNBOUNDED",
            "gadget-decide-unb": status == "UNBOUNDED"
            or (finite and Fraction(value) < 0),
        }
        for op in session[1:]:
            if op.exit_code != 0:
                continue
            out = op.output
            if op.name in want and out["answer"] != want[op.name]:
                op.problems.append(f"answer {out['answer']} disagrees with {status} {value}")
            elif op.name == "check-point" and not (out["feasible"] and out["optimal"]):
                op.problems.append(f"witness not optimal: {out}")
            elif op.name == "value-functions":
                levels = [entry["level"] for entry in out]
                if levels != list(range(inst.k, 1, -1)):
                    op.problems.append(f"value functions for levels {levels}")
            elif op.name == "transform-forward" and not _check_forward(inst, out):
                op.problems.append("forwarding changed more than row placement")


def check_expected(ops, expected: list[dict]) -> None:
    """Compare answers with the stored answers of the default seed."""
    for op in ops:
        if op.item >= len(expected):
            continue
        stored = expected[op.item]["answers"].get(op.name)
        got = answer(op)
        if stored is not None and got != stored:
            op.problems.append(f"answer {got!r}, expected {stored!r}")
