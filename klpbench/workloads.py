"""Closed-loop runners for the three workloads.

One client, one thread: the next operation starts when the previous one
returns. Every operation is timed on its own with ``perf_counter``; outputs
are parsed and checked only after the loop, outside the timed region.

``deep-bounded`` and ``wide-bilevel`` call ``klp.mlp.solve`` once per corpus
item. Corpus items are pairwise distinct, so no solve is served from the
process-wide caches of an earlier equal instance.

``query-mix`` runs one session of ``klp.cli.run`` calls per instance file.
The follow-up queries of a session reuse the analysis that its ``solve``
left in ``klp.mlp``'s process-wide cache; that reuse is part of what the
workload measures.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable


@dataclass
class Op:
    item: int
    name: str
    seconds: float
    exit_code: int  # 0 returned, 1 raised, otherwise the CLI's exit code
    output: object  # SolveReport, parsed CLI JSON, or the error text
    problems: list[str] = field(default_factory=list)


def run_solves(items, instances, stop: Callable[[int], bool]) -> list[Op]:
    """Cold ``solve`` of each instance in turn until ``stop(items_done)``."""
    import klp.mlp as mlp

    ops = []
    for item, inst in zip(items, instances):
        if stop(len(ops)):
            break
        start = perf_counter()
        try:
            output, code = mlp.solve(inst), 0
        except Exception as exc:  # counted as a failed operation
            output, code = f"{type(exc).__name__}: {exc}", 1
        ops.append(Op(item["id"], "solve", perf_counter() - start, code, output))
    return ops


def _cli(item_id: int, name: str, argv: list[str]) -> Op:
    import klp.cli as cli

    buffer = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.run(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # counted as a failed operation
        code = 1
        buffer.write(f"{type(exc).__name__}: {exc}")
    seconds = perf_counter() - start
    text = buffer.getvalue()
    try:
        output = json.loads(text) if code == 0 else text
    except json.JSONDecodeError:
        code, output = 1, text
    return Op(item_id, name, seconds, code, output)


def run_session(item: dict, workdir: Path) -> list[Op]:
    """All queries on one instance file, in a fixed order."""
    i, path = item["id"], item["file"]
    solved = _cli(i, "solve", ["solve", path])
    ops = [solved]
    report = solved.output if solved.exit_code == 0 else {}
    finite = report.get("status") == "FINITE"
    ops.append(_cli(i, "feasible", ["feasible", path]))
    ops.append(_cli(i, "decide-unb", ["decide-unb", path]))
    threshold = report["value"] if finite else "0"
    ops.append(_cli(i, "decide-val", ["decide-val", path, f"--t={threshold}"]))
    if report.get("witness"):
        point = ",".join(report["witness"])
        ops.append(_cli(i, "check-point", ["check-point", path, f"--point={point}"]))
    ops.append(_cli(i, "value-functions", ["value-functions", path]))
    ops.append(_cli(i, "transform-forward", ["transform", path, "--op", "forward"]))
    if item["kind"] == "C1":
        gadget = _cli(i, "transform-gadget", ["transform", path, "--op", "gadget"])
        ops.append(gadget)
        if gadget.exit_code == 0:
            gadget_path = workdir / f"gadget-{i}.json"
            gadget_path.write_text(json.dumps(gadget.output), encoding="utf-8")
            ops.append(_cli(i, "gadget-decide-unb", ["decide-unb", str(gadget_path)]))
    return ops


def run_sessions(items, workdir: Path, stop: Callable[[int], bool]) -> list[Op]:
    """One session per item until ``stop(items_done)``."""
    ops: list[Op] = []
    for done, item in enumerate(items):
        if stop(done):
            break
        ops.extend(run_session(item, workdir))
    return ops
