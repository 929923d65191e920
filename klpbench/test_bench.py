"""Tests of the benchmark itself, small enough for CI:

    python -m pytest -q klpbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from corpus import SHAPES  # noqa: E402

# per-layer metrics that are work counts (or ratios of them), not times
COUNTERS = sorted(
    name for name, unit in run.PER_LAYER.items()
    if unit != "s" and name != "trace_overhead_ratio"
)


def _run(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["deep-bounded", "query-mix"])
def test_traced_counters_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "3", "--trace", "1", "--items", "3")
    first, second = _run(*args), _run(*args)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(run.PER_LAYER)
    assert all(m["value"] is not None for m in first["metrics"].values())
    assert {n: first["metrics"][n]["value"] for n in COUNTERS} == {
        n: second["metrics"][n]["value"] for n in COUNTERS
    }


@pytest.mark.parametrize("workload", sorted(SHAPES))
def test_non_default_seed_has_no_failures(workload):
    result = _run("--workload", workload, "--seed", "11", "--items", "6")
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] >= 6
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(SHAPES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_missing_entry_point_is_reported_absent(monkeypatch):
    monkeypatch.setattr(
        tracer, "ENTRY_POINTS",
        {"genpoly.eliminate": ("klp.genpoly", "GenPoly.no_such_method")},
    )
    t = tracer.Tracer()
    t.install()  # patches nothing: the only entry point does not resolve
    assert t.missing == {"genpoly.eliminate"}
    metrics = t.layer_metrics()
    assert metrics["genpoly.eliminate.calls"] is None
    assert metrics["genpoly.eliminate.rows_out"] is None
    assert metrics["genpoly.is_empty.calls"] == 0


def test_wrappers_replace_every_alias():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "from tracer import Tracer\n"
        "t = Tracer(); t.install()\n"
        "import klp, klp.exactnum, klp.pwl\n"
        "assert not t.missing, t.missing\n"
        "assert klp.gauss_solve is klp.exactnum.gauss_solve is klp.pwl.gauss_solve\n"
        "assert klp.pwl.gauss_solve.__wrapped__\n"
        "assert klp.mlp.lp_value_function is klp.pwl.lp_value_function\n"
        "assert klp.GenPoly.is_empty.__wrapped__\n"
    )
    subprocess.run(
        [sys.executable, "-c", code, str(BENCH), str(ROOT / "src")],
        check=True, timeout=60,
    )
