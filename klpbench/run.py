#!/usr/bin/env python3
"""Benchmark of exact k-level solves: one workload, one seed, one run.

    python3 klpbench/run.py --workload deep-bounded --seed 0 --seconds 30 --trace 0

Run from the repository root. The run sets up its corpus three times in fresh
interpreters (``setup_s`` is the median), then drives the workload as a
single-client closed loop for ``--seconds``, checks every answer, and prints
a summary followed by one JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 1`` the run instead traces a fixed number of corpus items, so
that its work counters repeat exactly, and reports the per-layer metrics;
``trace_overhead_ratio`` compares it with an untraced run of the same items
in a fresh process. ``--items N`` fixes the number of corpus items in either
mode.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from corpus import CORPUS_SIZE, SHAPES  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import run_sessions, run_solves  # noqa: E402

DEFAULT_SEED = 0
EXPECTED = BENCH / "expected_seed0.json"
SETUP_REPEATS = 3
TRACE_ITEMS = {"deep-bounded": 100, "wide-bilevel": 100, "query-mix": 100}
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.p75": "s",
    "op_s.p90": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "exactnum.gauss_solve.calls": "count",
    "exactnum.self_s": "s",
    "pwl.dual_support_yield": "ratio",
    "pwl.lp_value_function.calls": "count",
    "pwl.pieces_out": "count",
    "pwl.min_combine_s": "s",
    "pwl.self_s": "s",
    "genpoly.is_empty.calls": "count",
    "genpoly.is_empty.empty_ratio": "ratio",
    "genpoly.eliminate.calls": "count",
    "genpoly.eliminate.rows_in": "count",
    "genpoly.eliminate.rows_out": "count",
    "genpoly.project.calls": "count",
    "genpoly.self_s": "s",
    "mlp.stage.value_function_s": "s",
    "mlp.stage.refine_s": "s",
    "mlp.stage.final_s": "s",
    "mlp.cells_total": "count",
    "mlp.leader_cells": "count",
    "mlp.self_s": "s",
    "transforms.self_s": "s",
    "jsonio.self_s": "s",
    "cli.self_s": "s",
    "trace_overhead_ratio": "ratio",
}
PERCENTILES = {"op_s.p50": 50, "op_s.p75": 75, "op_s.p90": 90}


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


def _setup(workload: str, seed: int, count: int, out: Path) -> float:
    """One timed set-up: fresh interpreter, import klp, generate, write."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, str(BENCH / "corpus.py"), "--workload", workload,
         "--seed", str(seed), "--count", str(count), "--out", str(out)],
        check=True, timeout=CHILD_TIMEOUT_S,
    )
    return perf_counter() - start


def _load_expected(workload: str, items: list[dict]) -> list[dict]:
    """Stored answers of the default seed; stops the run if the generator
    no longer produces the stored corpus."""
    stored = json.loads(EXPECTED.read_text(encoding="utf-8"))[workload]
    for item, entry in zip(items, stored):
        if item["sha"] != entry["sha"]:
            raise BenchError(
                f"{workload} item {item['id']} hashes to {item['sha']}, expected "
                f"{entry['sha']}: the corpus generator changed; regenerate "
                f"{EXPECTED.name} with make_expected.py"
            )
    return stored


def _percentile(sorted_samples: list[float], p: int) -> float:
    if len(sorted_samples) == 1:
        return sorted_samples[0]
    return statistics.quantiles(sorted_samples, n=100, method="inclusive")[p - 1]


def _trace_extras(instances) -> dict[str, int | None]:
    """Cell counts of the reformulation, read through the public API."""
    import klp.mlp as mlp

    if not hasattr(mlp, "feasible_set"):
        return {"mlp.cells_total": None, "mlp.leader_cells": None}
    total = leaders = 0
    for inst in instances:
        for level in range(1, inst.k + 1):
            cells = len(mlp.feasible_set(inst, level).cells)
            total += cells
            leaders += cells if level == 1 else 0
    return {"mlp.cells_total": total, "mlp.leader_cells": leaders}


def _untraced_timed_s(args, items: int) -> float:
    """Timed-phase wall time of the same items without tracing, in a fresh
    process so that no cache is warm."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0", "--items", str(items)],
        capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise BenchError("the untraced comparison run gave wrong answers")
    return result["attempted"] / result["metrics"]["ops_per_s"]["value"]


def measure(args, workdir: Path) -> dict:
    workload = args.workload
    limit = args.items if args.items is not None else (
        TRACE_ITEMS[workload] if args.trace else None
    )
    count = limit or CORPUS_SIZE[workload]
    setups = [_setup(workload, args.seed, count, workdir) for _ in range(SETUP_REPEATS)]

    sys.path.insert(0, str(SRC))
    from klp.jsonio import instance_from_obj

    items = json.loads((workdir / "corpus.json").read_text(encoding="utf-8"))
    expected = _load_expected(workload, items) if args.seed == DEFAULT_SEED else None
    instances = [instance_from_obj(item["instance"]) for item in items]

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.active = True
    if limit is None:
        deadline = perf_counter() + args.seconds

        def stop(done: int) -> bool:
            return perf_counter() >= deadline
    else:
        def stop(done: int) -> bool:
            return done >= limit

    start = perf_counter()
    if workload == "query-mix":
        ops = run_sessions(items, workdir, stop)
    else:
        ops = run_solves(items, instances, stop)
    timed_s = perf_counter() - start
    if tracer is not None:
        tracer.active = False
    # before the checks, whose oracle solves would otherwise set the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if not ops:
        raise BenchError("the timed phase ran no operation")
    done_items = len({op.item for op in ops})
    if workload == "query-mix":
        checks.check_sessions(items, instances, ops)
    else:
        checks.check_solves(items, instances, ops)
    if expected is not None:
        checks.check_expected(ops, expected)
    failed = [op for op in ops if op.problems]

    samples = sorted(op.seconds for op in ops)
    e2e = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ops) / timed_s,
        **{name: _percentile(samples, p) for name, p in PERCENTILES.items()},
        "peak_rss_mb": peak_rss_mb,
    }
    result = {
        "ops": ops, "failed": failed, "items": done_items, "timed_s": timed_s,
        "setups": setups, "e2e": e2e, "samples": samples,
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers.update(_trace_extras(instances[:done_items]))
        layers["trace_overhead_ratio"] = timed_s / _untraced_timed_s(args, done_items)
        trace_file = BENCH / "traces" / f"{workload}-seed{args.seed}.tsv"
        tracer.write(trace_file)
        result.update(layers=layers, spans=len(tracer.names), trace_file=trace_file,
                      missing=sorted(tracer.missing))
    return result


def _report(args, result: dict) -> dict:
    """Print the human summary; return the final JSON object."""
    ops, failed, samples = result["ops"], result["failed"], result["samples"]
    e2e = result["e2e"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  closed loop, 1 client, 1 thread")
    print(f"  {'setup_s':<30} {e2e['setup_s']:.4f} s  "
          f"(median of {', '.join(f'{s:.3f}' for s in result['setups'])})")
    print(f"  {'ops_per_s':<30} {e2e['ops_per_s']:.4f} 1/s  "
          f"({len(ops)} ops on {result['items']} items in {result['timed_s']:.2f} s)")
    for name, p in PERCENTILES.items():
        beyond = sum(1 for s in samples if s > e2e[name])
        print(f"  {name:<30} {e2e[name]:.6f} s  ({len(samples)} samples, {beyond} beyond)")
    print(f"  {'failed_ratio':<30} {len(failed) / len(ops):.4f} ratio  "
          f"({len(failed)} of {len(ops)})")
    print(f"  {'peak_rss_mb':<30} {e2e['peak_rss_mb']:.1f} MB")
    for op in failed[:20]:
        print(f"  FAILED item {op.item} {op.name}: {'; '.join(op.problems)}")

    if args.trace:
        metrics = {}
        for name, unit in PER_LAYER.items():
            value = result["layers"].get(name)
            if value is None:
                metrics[name] = {"value": None, "unit": unit, "absent": True}
                print(f"  {name:<30} absent")
            else:
                metrics[name] = {"value": value, "unit": unit}
                print(f"  {name:<30} {value:.6g} {unit}")
        print(f"  {result['spans']} spans written to {result['trace_file'].relative_to(ROOT)}"
              + (f"; missing entry points: {', '.join(result['missing'])}"
                 if result["missing"] else ""))
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--items", type=int, help="run exactly this many corpus items")
    args = parser.parse_args(argv)
    if args.items is not None and args.items < 1:
        parser.error("--items must be at least 1")
    if not (SRC / "klp" / "__init__.py").is_file():
        print(f"run.py: no klp package under {SRC}", file=sys.stderr)
        return 2
    try:
        with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
            result = measure(args, Path(tmp))
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    final = _report(args, result)
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
