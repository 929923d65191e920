"""In-memory span tracer installed around klp's cross-module entry points.

Each wrapper records one span per call (name, start, end, parent span) while
the tracer is active, plus the work counters listed in ``COUNTERS``. Spans
stay in memory until the run ends; per-layer self time is then the span
durations minus the time covered by their child spans, summed per layer.

Wrappers are installed by identity: every attribute of a loaded ``klp``
module or class that *is* the original function gets the wrapper, so aliases
such as ``klp.pwl.gauss_solve`` are traced together with
``klp.exactnum.gauss_solve``. An entry point that no longer exists is listed
in ``Tracer.missing`` and the metrics built on it are reported absent.

Everything runs on one thread, so spans nest strictly and no layer ever
waits for another; the tracer records no wait time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# span name -> (module, dotted attribute of the original function)
ENTRY_POINTS = {
    "exactnum.gauss_solve": ("klp.exactnum", "gauss_solve"),
    **{
        f"genpoly.{m}": ("klp.genpoly", f"GenPoly.{m}")
        for m in (
            "intersect", "with_row", "permuted", "extended", "contains",
            "eliminate", "project", "is_empty", "closure", "complement_cells",
            "is_subset", "witness_point", "inf_linear",
        )
    },
    "pwl.lp_value_function": ("klp.pwl", "lp_value_function"),
    "pwl.min_combine": ("klp.pwl", "min_combine"),
    "pwl.eval": ("klp.pwl", "PwlFunc.eval"),
    **{
        f"mlp.{f}": ("klp.mlp", f)
        for f in (
            "solve", "value_functions", "feasible_set", "is_feasible",
            "decide_val", "decide_unbounded", "check_feasible_point",
            "check_optimal_point",
        )
    },
    **{
        f"transforms.{f}": ("klp.transforms", f)
        for f in (
            "scale_rhs", "forward_constraints", "unboundedness_gadget",
            "check_conditions", "nonforwardable_rows",
        )
    },
    **{
        f"jsonio.{f}": ("klp.jsonio", f)
        for f in (
            "dumps", "instance_from_obj", "instance_to_obj", "genpoly_from_obj",
            "genpoly_to_obj", "pwl_to_obj", "report_to_obj", "parse_point",
        )
    },
    "cli.run": ("klp.cli", "run"),
}
LAYERS = ("exactnum", "genpoly", "pwl", "mlp", "transforms", "jsonio", "cli")


def _resolve(module: str, dotted: str):
    try:
        obj = importlib.import_module(module)
        for part in dotted.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return None
    return obj


def _is_dual_vertex(result) -> bool:
    return (
        result is not None
        and result.unique
        and all(q >= 0 for q in result.particular)
    )


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: Counter = Counter()
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._open: Counter = Counter()

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        # resolve everything first, so that every module that could hold an
        # alias is loaded before the first scan
        originals = {
            name: _resolve(module, dotted)
            for name, (module, dotted) in ENTRY_POINTS.items()
        }
        for name, original in originals.items():
            if original is None:
                self.missing.add(name)
                continue
            wrapper = self._wrap(name, original)
            for holder in _holders():
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self._stack.append(index)
            self._open[name] += 1
            self.ends.append(0.0)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = perf_counter()
                self._open[name] -= 1
                self._stack.pop()
            self.counters[name + ".calls"] += 1
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    # -- results ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Dump the spans as tab-separated id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart\tend\n")
            for i, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                out.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")

    def layer_metrics(self) -> dict[str, float | int | None]:
        """Per-layer self times, stage times and counters; None marks a
        metric whose entry point is missing."""
        n = len(self.names)
        duration = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        solve_of = [-1] * n  # innermost enclosing mlp.solve span
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += duration[i]
            solve_of[i] = i if self.names[i] == "mlp.solve" else (
                solve_of[parent] if parent >= 0 else -1
            )
        self_s = dict.fromkeys(LAYERS, 0.0)
        total = Counter()
        solve_s = vf_in_solve = final_s = 0.0
        for i in range(n):
            name = self.names[i]
            self_s[name.split(".", 1)[0]] += duration[i] - child[i]
            total[name] += duration[i]
            parent = self.parents[i]
            if name == "mlp.solve" and (parent < 0 or solve_of[parent] < 0):
                solve_s += duration[i]
            elif name == "pwl.lp_value_function" and solve_of[i] >= 0:
                vf_in_solve += duration[i]
            elif (
                name in ("genpoly.inf_linear", "genpoly.witness_point")
                and parent >= 0
                and self.names[parent] == "mlp.solve"
            ):
                final_s += duration[i]

        c = self.counters
        out: dict[str, float | int | None] = {
            "exactnum.gauss_solve.calls": c["exactnum.gauss_solve.calls"],
            "pwl.dual_support_yield": _ratio(c["pwl.dual_vertices"], c["pwl.supports_tried"]),
            "pwl.lp_value_function.calls": c["pwl.lp_value_function.calls"],
            "pwl.pieces_out": c["pwl.pieces_out"],
            "pwl.min_combine_s": total["pwl.min_combine"],
            "genpoly.is_empty.calls": c["genpoly.is_empty.calls"],
            "genpoly.is_empty.empty_ratio": _ratio(
                c["genpoly.is_empty.empty"], c["genpoly.is_empty.calls"]
            ),
            "genpoly.eliminate.calls": c["genpoly.eliminate.calls"],
            "genpoly.eliminate.rows_in": c["genpoly.eliminate.rows_in"],
            "genpoly.eliminate.rows_out": c["genpoly.eliminate.rows_out"],
            "genpoly.project.calls": c["genpoly.project.calls"],
            "mlp.stage.value_function_s": vf_in_solve,
            "mlp.stage.refine_s": solve_s - vf_in_solve - final_s,
            "mlp.stage.final_s": final_s,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        for metric, needs in _NEEDS.items():
            if needs & self.missing:
                out[metric] = None
        return out


def _ratio(part: int, whole: int) -> float | None:
    return part / whole if whole else None


def _holders():
    """Every loaded klp module and every class defined in one."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "klp" or name.startswith("klp.")):
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__.startswith("klp"):
                yield value


def _count_support(tracer: Tracer, args, result) -> None:
    if tracer._open["pwl.lp_value_function"]:
        tracer.counters["pwl.supports_tried"] += 1
        tracer.counters["pwl.dual_vertices"] += _is_dual_vertex(result)


def _count_empty(tracer: Tracer, args, result) -> None:
    tracer.counters["genpoly.is_empty.empty"] += bool(result)


def _count_rows(tracer: Tracer, args, result) -> None:
    tracer.counters["genpoly.eliminate.rows_in"] += args[0].n_rows
    tracer.counters["genpoly.eliminate.rows_out"] += result.n_rows


def _count_pieces(tracer: Tracer, args, result) -> None:
    tracer.counters["pwl.pieces_out"] += len(result.cells)


_HOOKS = {
    "exactnum.gauss_solve": _count_support,
    "genpoly.is_empty": _count_empty,
    "genpoly.eliminate": _count_rows,
    "pwl.lp_value_function": _count_pieces,
}

# metric -> span names it is built from
_NEEDS = {
    "exactnum.gauss_solve.calls": {"exactnum.gauss_solve"},
    "pwl.dual_support_yield": {"exactnum.gauss_solve", "pwl.lp_value_function"},
    "pwl.lp_value_function.calls": {"pwl.lp_value_function"},
    "pwl.pieces_out": {"pwl.lp_value_function"},
    "pwl.min_combine_s": {"pwl.min_combine"},
    "genpoly.is_empty.calls": {"genpoly.is_empty"},
    "genpoly.is_empty.empty_ratio": {"genpoly.is_empty"},
    "genpoly.eliminate.calls": {"genpoly.eliminate"},
    "genpoly.eliminate.rows_in": {"genpoly.eliminate"},
    "genpoly.eliminate.rows_out": {"genpoly.eliminate"},
    "genpoly.project.calls": {"genpoly.project"},
    "mlp.stage.value_function_s": {"mlp.solve", "pwl.lp_value_function"},
    "mlp.stage.refine_s": {
        "mlp.solve", "pwl.lp_value_function", "genpoly.inf_linear",
        "genpoly.witness_point",
    },
    "mlp.stage.final_s": {"mlp.solve", "genpoly.inf_linear", "genpoly.witness_point"},
}
