"""Seeded corpus generation for the benchmark workloads.

Run as a script, this is the benchmark's set-up step: a fresh interpreter
imports klp, generates the first ``--count`` items of a workload's corpus and
writes them to ``--out``. ``run.py`` times it, so ``setup_s`` includes the
import. Generation runs in its own process because ``random_instance``'s
emptiness checks would otherwise warm ``klp.genpoly``'s process-wide cache
for the timed solves.

The corpus is a pure function of (workload, seed, count): items are drawn in
order from one ``random.Random`` stream, so a smaller count gives a prefix of
a larger one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Integer data are drawn from [-bound, bound]. deep-bounded uses 1: with the
# CLI's default of 3 its solve times spread so widely (coefficient of
# variation above 1, tail to 3 s) that runs on different seeds spread by more
# than the benchmark's bounds (numbers in README.md).
BOUND = {"deep-bounded": 1, "wide-bilevel": 3, "query-mix": 3}

# (k, dims, rows, require); require=None marks a standard-form bilevel
DEEP_SHAPES = [
    (3, (1, 1, 1), (0, 0, 3), ("C1", "C2")),
    (3, (1, 1, 2), (0, 0, 3), ("C1", "C2")),
    (3, (2, 1, 1), (0, 0, 3), ("C1", "C2")),
    (3, (1, 2, 1), (0, 0, 3), ("C1", "C2")),
    (4, (1, 1, 1, 1), (0, 0, 0, 2), ("C1", "C2")),
]
WIDE_SHAPES = [
    (2, (1, 2), (0, 3), ("C1", "C2")),
    (2, (1, 3), (0, 4), ("C1", "C2")),
    (2, (2, 2), (0, 4), ("C1", "C2")),
    (2, (1, 4), (0, 4), ("C1", "C2")),
    (2, None, None, None),
]
QUERY_SHAPES = [
    (3, (1, 1, 1), (1, 1, 2), ("C2",)),
    (2, (1, 2), (2, 3), ("C2",)),
    (3, (1, 1, 1), (0, 0, 4), ("C1",)),
    (2, (2, 2), (0, 5), ("C1",)),
]
SHAPES = {
    "deep-bounded": DEEP_SHAPES,
    "wide-bilevel": WIDE_SHAPES,
    "query-mix": QUERY_SHAPES,
}
# Items per full corpus: about 1.5 times what one 30 s run gets through on a
# 2-core x86-64 container, so that a somewhat faster program still finds
# fresh items; a bigger margin would lengthen every set-up.
CORPUS_SIZE = {"deep-bounded": 550, "wide-bilevel": 380, "query-mix": 700}


def instance_hash(obj) -> str:
    """Short digest of an instance's canonical JSON form."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rationals(rows):
    return [[str(q) for q in row] for row in rows]


def _bilevel_to_obj(p) -> dict:
    return {
        "a11": _rationals(p.a11),
        "a12": _rationals(p.a12),
        "b1": [str(q) for q in p.b1],
        "a21": _rationals(p.a21),
        "a22": _rationals(p.a22),
        "b2": [str(q) for q in p.b2],
        "c11": [str(q) for q in p.c11],
        "c12": [str(q) for q in p.c12],
        "c22": [str(q) for q in p.c22],
    }


def generate(workload: str, seed: int, count: int) -> list[dict]:
    """The first ``count`` corpus items; no two items are equal instances."""
    from klp.jsonio import instance_to_obj
    from klp.oracle import random_bilevel, random_instance, to_mlp

    shapes = SHAPES[workload]
    stream = random.Random(f"{workload}/{seed}")
    seen: set[str] = set()
    items = []
    while len(items) < count:
        k, dims, rows, require = shapes[len(items) % len(shapes)]
        sub_seed = stream.randrange(2**32)
        item = {"id": len(items)}
        if require is None:
            problem = random_bilevel(random.Random(sub_seed), BOUND[workload])
            inst = to_mlp(problem)
            item["kind"] = "standard"
            item["bilevel"] = _bilevel_to_obj(problem)
        else:
            inst = random_instance(sub_seed, k, dims, rows, BOUND[workload], require)
            item["kind"] = "+".join(require)
        obj = instance_to_obj(inst)
        digest = instance_hash(obj)
        if digest in seen:
            continue  # the same slot draws again, so the shape cycle holds
        seen.add(digest)
        item["sha"] = digest
        item["instance"] = obj
        items.append(item)
    return items


def write_corpus(items: list[dict], out: Path, instance_files: bool) -> None:
    """One corpus.json, plus one instance file per item when the CLI reads
    the instances."""
    out.mkdir(parents=True, exist_ok=True)
    if instance_files:
        for item in items:
            path = out / f"inst-{item['id']}.json"
            path.write_text(json.dumps(item["instance"]), encoding="utf-8")
            item["file"] = str(path)
    (out / "corpus.json").write_text(json.dumps(items), encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    items = generate(args.workload, args.seed, args.count)
    write_corpus(items, Path(args.out), instance_files=args.workload == "query-mix")


if __name__ == "__main__":
    main()
