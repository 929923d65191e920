#!/usr/bin/env python3
"""Regenerate expected_seed0.json, the stored answers of the default seed.

    python3 klpbench/make_expected.py

Solves every workload's full default-seed corpus once (about four minutes),
refuses to write if any independent check fails, and stores per item the
instance hash and the answer of each operation. Witnesses are not stored.
Run it only when the corpus generator changes on purpose, and say so in the
change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
from corpus import CORPUS_SIZE, SHAPES, generate, write_corpus  # noqa: E402
from run import DEFAULT_SEED, EXPECTED  # noqa: E402
from workloads import run_sessions, run_solves  # noqa: E402


def expected_entries(workload: str, workdir: Path) -> list[dict]:
    from klp.jsonio import instance_from_obj

    items = generate(workload, DEFAULT_SEED, CORPUS_SIZE[workload])
    write_corpus(items, workdir, instance_files=workload == "query-mix")
    instances = [instance_from_obj(item["instance"]) for item in items]

    def never(done: int) -> bool:
        return False

    if workload == "query-mix":
        ops = run_sessions(items, workdir, never)
        checks.check_sessions(items, instances, ops)
    else:
        ops = run_solves(items, instances, never)
        checks.check_solves(items, instances, ops)
    bad = [op for op in ops if op.problems]
    if bad:
        for op in bad[:20]:
            print(f"item {op.item} {op.name}: {'; '.join(op.problems)}", file=sys.stderr)
        raise SystemExit(f"{workload}: {len(bad)} operations failed; nothing written")
    entries = [{"sha": item["sha"], "answers": {}} for item in items]
    for op in ops:
        got = checks.answer(op)
        if got is not None:
            entries[op.item]["answers"][op.name] = got
    return entries


def main() -> None:
    lines = []
    for workload in SHAPES:
        with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
            entries = expected_entries(workload, Path(tmp))
        print(f"{workload}: {len(entries)} items", file=sys.stderr)
        # one item per line keeps diffs of this file readable
        body = ",\n".join(json.dumps(e, sort_keys=True) for e in entries)
        lines.append(f"{json.dumps(workload)}: [\n{body}\n]")
    EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
