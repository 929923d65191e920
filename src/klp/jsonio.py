"""JSON wire formats: instances, generalized polyhedra, value functions,
reports. Rationals travel as "p/q" strings ("p" when the denominator is 1);
coefficient blocks are keyed by 1-based level and omitted when zero.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .exactnum import Vec, format_rational, frac, vec, zeros
from .genpoly import ExtReal, GenPoly
from .mlp import Level, LevelRow, MlpInstance, SolveReport
from .oracle import NaiveTrilevelDemo
from .pwl import Piece, PwlFunc


class FormatError(ValueError):
    """Malformed input document."""


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _rat(value) -> Fraction:
    if isinstance(value, float):
        raise FormatError(f"floats are not exact: {value!r}")
    if isinstance(value, bool):
        raise FormatError(f"expected a rational, got {value!r}")
    try:
        return frac(value)
    except (ValueError, TypeError) as exc:
        raise FormatError(str(exc)) from exc


def _rat_list(values) -> Vec:
    return tuple(_rat(v) for v in _list(values, "a rational vector"))


def _int(value, what: str) -> int:
    # bool is a subclass of int in Python, but true/false are not counts
    if not isinstance(value, int) or isinstance(value, bool):
        raise FormatError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _obj(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise FormatError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise FormatError(f"{what} must be a JSON list, got {type(value).__name__}")
    return value


# -- instances -------------------------------------------------------------------


def _blocks_to_full(blocks, dims, what: str) -> Vec:
    if not isinstance(blocks, dict):
        raise FormatError(f"{what} must be an object keyed by level")
    k = len(dims)
    full: list[Fraction] = []
    for level in range(1, k + 1):
        part = blocks.get(str(level))
        if part is None:
            full.extend(zeros(dims[level - 1]))
            continue
        entries = _rat_list(part)
        if len(entries) != dims[level - 1]:
            raise FormatError(
                f"{what}: block {level} has {len(entries)} entries, "
                f"expected {dims[level - 1]}"
            )
        full.extend(entries)
    for key in blocks:
        # only the canonical spelling is read above; "01" would be dropped
        if key not in {str(level) for level in range(1, k + 1)}:
            raise FormatError(f"{what}: unknown level key {key!r}")
    return tuple(full)


def _full_to_blocks(full: Vec, dims) -> dict:
    blocks = {}
    start = 0
    for level, width in enumerate(dims, start=1):
        part = full[start : start + width]
        if any(q != 0 for q in part):
            blocks[str(level)] = [format_rational(q) for q in part]
        start += width
    return blocks


def instance_from_obj(obj) -> MlpInstance:
    obj = _obj(obj, "instance document")
    try:
        k = _int(obj["k"], "k")
        dims = tuple(_int(n, "each entry of n") for n in _list(obj["n"], "n"))
        level_objs = _list(obj["levels"], "levels")
    except KeyError as exc:
        raise FormatError(f"missing instance field: {exc}") from exc
    if len(dims) != k or len(level_objs) != k:
        raise FormatError("k, n, and levels disagree on the number of players")
    levels = []
    for li, level_obj in enumerate(level_objs, start=1):
        level_obj = _obj(level_obj, f"level {li}")
        rows = []
        row_objs = _list(level_obj.get("rows", []), f"level {li} rows")
        for ri, row_obj in enumerate(row_objs):
            row_obj = _obj(row_obj, f"level {li} row {ri}")
            coeffs = _blocks_to_full(row_obj.get("coeffs", {}), dims, f"level {li} row")
            strict = row_obj.get("strict", False)
            if not isinstance(strict, bool):
                raise FormatError(f"level {li} row {ri}: strict must be true or false")
            rows.append(LevelRow(coeffs, _rat(row_obj.get("rhs", 0)), strict))
        objective = _blocks_to_full(
            level_obj.get("objective", {}), dims, f"level {li} objective"
        )
        cut = sum(dims[: li - 1])
        if any(q != 0 for q in objective[:cut]):
            raise FormatError(f"level {li} objective touches earlier levels")
        levels.append(Level(tuple(rows), objective))
    eps = _rat(obj.get("eps", 0))
    try:
        return MlpInstance(dims, tuple(levels), eps)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def instance_to_obj(inst: MlpInstance) -> dict:
    levels = []
    for level in inst.levels:
        rows = []
        for row in level.rows:
            row_obj = {
                "coeffs": _full_to_blocks(row.coeffs, inst.dims),
                "rhs": format_rational(row.rhs),
            }
            if row.strict:
                row_obj["strict"] = True
            rows.append(row_obj)
        levels.append(
            {"rows": rows, "objective": _full_to_blocks(level.objective, inst.dims)}
        )
    obj = {"k": inst.k, "n": list(inst.dims), "levels": levels}
    if inst.eps != 0:
        obj["eps"] = format_rational(inst.eps)
    return obj


# -- generalized polyhedra ---------------------------------------------------------


def genpoly_from_obj(obj) -> GenPoly:
    if not isinstance(obj, dict) or "dim" not in obj:
        raise FormatError("polyhedron document needs a dim field")
    dim = _int(obj["dim"], "dim")

    def rows(key):
        out = []
        for entry in _list(obj.get(key, []), key):
            if not (isinstance(entry, list) and len(entry) == 2):
                raise FormatError(f"{key} entries must be [coeffs, rhs] pairs")
            coeffs = _rat_list(entry[0])
            if len(coeffs) != dim:
                raise FormatError(f"{key} row of length {len(coeffs)} in dim {dim}")
            out.append((coeffs, _rat(entry[1])))
        return tuple(out)

    return GenPoly(dim, rows("weak"), rows("strict"))


def genpoly_to_obj(poly: GenPoly) -> dict:
    def rows(pairs):
        return [
            [[format_rational(c) for c in coeffs], format_rational(rhs)]
            for coeffs, rhs in pairs
        ]

    return {"dim": poly.dim, "weak": rows(poly.weak), "strict": rows(poly.strict)}


# -- piecewise-linear functions ------------------------------------------------------


def piece_to_obj(piece: Piece):
    if not piece.offset.is_finite:
        return extreal_to_obj(piece.offset)
    return {
        "c": [format_rational(q) for q in piece.coeffs],
        "d": extreal_to_obj(piece.offset),
    }


def pwl_to_obj(func: PwlFunc) -> dict:
    return {
        "dim": func.dim,
        "cells": [
            {"region": genpoly_to_obj(region), "piece": piece_to_obj(piece)}
            for region, piece in func.cells
        ],
    }


# -- reports ---------------------------------------------------------------------


def extreal_to_obj(value: ExtReal) -> str:
    return str(value)


def report_to_obj(report: SolveReport) -> dict:
    return {
        "status": report.status,
        "value": extreal_to_obj(report.value),
        "attained": report.attained,
        "witness": None
        if report.witness is None
        else [format_rational(q) for q in report.witness],
    }


def demo_to_obj(demo: NaiveTrilevelDemo) -> dict:
    return {
        "t": format_rational(demo.threshold),
        "exact": report_to_obj(demo.exact),
        "naive": {
            "status": demo.naive_status,
            "certificate": [format_rational(q) for q in demo.certificate],
            "certificate_feasible": demo.certificate_feasible,
        },
        "mismatch": demo.mismatch,
    }


def parse_point(text: str, expect: int | None = None) -> Vec:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    point = vec(_rat(p) for p in parts)
    if expect is not None and len(point) != expect:
        raise FormatError(f"point has {len(point)} coordinates, expected {expect}")
    return point
