"""Command-line front end.

Every subcommand reads UTF-8 JSON files, writes one JSON document to stdout,
and exits 0 on success or 2 on input errors (the error itself is a JSON
object). Decision subcommands put their answer in the JSON, never in the
exit code, so scripted harnesses cannot confuse a NO with a failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import jsonio, mlp, oracle, transforms
from .exactnum import frac
from .jsonio import FormatError


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def _load_instance(path: str) -> mlp.MlpInstance:
    return jsonio.instance_from_obj(_load_json(path))


def _emit(obj) -> int:
    sys.stdout.write(jsonio.dumps(obj))
    return 0


def _cmd_solve(args) -> int:
    return _emit(jsonio.report_to_obj(mlp.solve(_load_instance(args.file))))


def _cmd_decide_val(args) -> int:
    inst = _load_instance(args.file)
    return _emit({"answer": mlp.decide_val(inst, frac(args.t))})


def _cmd_decide_unb(args) -> int:
    return _emit({"answer": mlp.decide_unbounded(_load_instance(args.file))})


def _cmd_feasible(args) -> int:
    return _emit({"answer": mlp.is_feasible(_load_instance(args.file))})


def _cmd_check_point(args) -> int:
    inst = _load_instance(args.file)
    point = jsonio.parse_point(args.point, expect=inst.total)
    return _emit(
        {
            "feasible": mlp.check_feasible_point(inst, point),
            "optimal": mlp.check_optimal_point(inst, point),
        }
    )


def _cmd_value_functions(args) -> int:
    inst = _load_instance(args.file)
    funcs = mlp.value_functions(inst)
    levels = list(range(inst.k, 1, -1))
    return _emit(
        [
            {"level": level, "function": jsonio.pwl_to_obj(func)}
            for level, func in zip(levels, funcs)
        ]
    )


def _cmd_transform(args) -> int:
    inst = _load_instance(args.file)
    if args.op == "scale":
        if args.lam is None:
            raise FormatError("--lambda is required for scaling")
        out = transforms.scale_rhs(inst, frac(args.lam))
    elif args.op == "forward":
        out = transforms.forward_constraints(inst)
    else:
        out = transforms.unboundedness_gadget(inst)
    return _emit(jsonio.instance_to_obj(out))


def _cmd_project(args) -> int:
    poly = jsonio.genpoly_from_obj(_load_json(args.file))
    try:
        keep = [int(p) - 1 for p in args.keep.split(",") if p.strip()]
    except ValueError as exc:
        raise FormatError(f"--keep must be 1-based coordinate indices: {exc}") from exc
    if not keep or any(not 0 <= j < poly.dim for j in keep):
        raise FormatError(f"--keep must name coordinates between 1 and {poly.dim}")
    return _emit(jsonio.genpoly_to_obj(poly.project(keep)))


def _cmd_demo_buchheim(args) -> int:
    return _emit(jsonio.demo_to_obj(oracle.naive_trilevel_demo(frac(args.t))))


def _cmd_gen(args) -> int:
    dims = [int(p) for p in args.dims.split(",") if p.strip()]
    rows = [int(p) for p in args.rows.split(",") if p.strip()]
    require = [p.strip() for p in args.require.split(",") if p.strip()] if args.require else []
    inst = oracle.random_instance(args.seed, args.k, dims, rows, args.bound, require)
    return _emit(jsonio.instance_to_obj(inst))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klp",
        description="Exact solver and toolkit for multilevel linear programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("decide-val", help="is there a feasible point with value <= t")
    p.add_argument("file")
    p.add_argument("--t", required=True, help="threshold, as p/q")
    p.set_defaults(handler=_cmd_decide_val)

    p = sub.add_parser("decide-unb", help="is the instance unbounded from below")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_decide_unb)

    p = sub.add_parser("feasible", help="does the instance have a feasible point")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_feasible)

    p = sub.add_parser("check-point", help="feasibility/optimality of a given point")
    p.add_argument("file")
    p.add_argument("--point", required=True, help="comma-separated rationals")
    p.set_defaults(handler=_cmd_check_point)

    p = sub.add_parser("value-functions", help="dump the lower-level value functions")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_value_functions)

    p = sub.add_parser("transform", help="apply an instance transformation")
    p.add_argument("file")
    p.add_argument("--op", required=True, choices=["scale", "forward", "gadget"])
    p.add_argument("--lambda", dest="lam", help="positive scaling factor, as p/q")
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("project", help="project a polyhedron file onto coordinates")
    p.add_argument("file")
    p.add_argument("--keep", required=True, help="1-based coordinates, comma-separated")
    p.set_defaults(handler=_cmd_project)

    p = sub.add_parser(
        "demo-buchheim",
        help="exact vs. naive basis reformulation on the trilevel counterexample",
    )
    p.add_argument("--t", default="0", help="nonnegative threshold, as p/q")
    p.set_defaults(handler=_cmd_demo_buchheim)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dims", required=True, help="per-level variable counts, comma-separated")
    p.add_argument("--rows", required=True, help="per-level row counts, comma-separated")
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--require", default="", help="subset of C1,C2,C3")
    p.set_defaults(handler=_cmd_gen)
    return parser


def run(argv=None) -> int:
    """Dispatch a command line; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (FormatError, ValueError) as exc:
        sys.stdout.write(jsonio.dumps({"error": str(exc)}))
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
