#!/usr/bin/env python
"""Interpreter work per benchmark workload: a deterministic opcode count.

Runs benchmark workloads (``benchmarks/e2e/workloads.py``: the
workload's ``prepare``, then one ``run``) under a ``sys.settrace`` hook
with ``frame.f_trace_opcodes`` on, and counts the Python-level calls,
lines and opcodes that the ``run`` executes. Each count is made in a
fresh interpreter with ``PYTHONHASHSEED=0``, so no str-keyed set order
can move it: two counts of one tree are equal to the unit, where two
wall-clock timings on a shared box differ by tens of percent.

Given two trees (``--tree PARENT --tree CHANGE``) it prints each
workload's counts for both and the change/parent ratio of each.

Limits: only Python-level work is seen. A call into C (numpy, ``heapq``,
dict and deque methods) costs its calling opcodes whatever it does
inside, so work moved into numpy reads as a saving even when it is
slower. The count stands beside wall-time pairs; it does not replace
them. Tracing costs about 25x wall. A forked child is not traced, so
``city_fork2`` is counted in its ``serial`` variant.

Stdlib only; of the benchmark it reads ``workloads.py`` alone.

Usage::

    python tools/opcount.py                         # this tree, six workloads
    python tools/opcount.py --tree ../parent --tree .   # parent -> change
    python tools/opcount.py radio_dense --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: the workloads that fork nothing, in BENCHMARK.json order
DEFAULT_WORKLOADS = ("radio_dense", "radio_mobile", "dataplane_overload",
                     "dataplane_mobility", "control_storm", "paper_suite")

FIELDS = ("opcodes", "lines", "calls")


def count_child(tree: Path, name: str, seed: int, smoke: bool) -> None:
    """In this interpreter: count one workload of ``tree``; print JSON."""
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmarks" / "e2e")]
    from workloads import WORKLOADS
    from repro.runner import derive_seed

    spec = WORKLOADS[name]
    args = spec.args(smoke)
    if spec.serial is not None:
        args.update(spec.serial)
    inputs = spec.prepare(args, derive_seed(seed, spec.name))
    counts = dict.fromkeys(FIELDS, 0)

    def local(frame, event, arg):
        if event == "opcode":
            counts["opcodes"] += 1
        elif event == "line":
            counts["lines"] += 1
        return local

    def on_call(frame, event, arg):
        counts["calls"] += 1
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        spec.run(inputs)
    finally:
        sys.settrace(None)
    print(json.dumps(counts))


def count(tree: Path, name: str, seed: int, smoke: bool) -> Dict[str, int]:
    """One workload of ``tree``, counted in a fresh interpreter."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, str(Path(__file__).resolve()), "--child",
            "--tree", str(tree), "--seed", str(seed), name]
    if smoke:
        argv.append("--smoke")
    out = subprocess.run(argv, env=env, cwd=str(tree), check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def report(trees: Sequence[Path], names: Sequence[str], seed: int,
           smoke: bool) -> None:
    """Print one tab-separated line per workload: each tree's counts,
    then the change/parent ratios when there are two trees."""
    header = ["workload"] + [f"{field}[{index}]" for index in
                             range(len(trees)) for field in FIELDS]
    if len(trees) == 2:
        header += [f"{field} ratio" for field in FIELDS]
    print("\t".join(header))
    for name in names:
        counts = [count(tree, name, seed, smoke) for tree in trees]
        cells = [name] + [f"{c[field]:,}" for c in counts for field in FIELDS]
        if len(trees) == 2:
            cells += [f"{counts[1][field] / counts[0][field]:.4f}"
                      for field in FIELDS]
        print("\t".join(cells), flush=True)


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=DEFAULT_WORKLOADS,
                        help=f"default: {' '.join(DEFAULT_WORKLOADS)}")
    parser.add_argument("--tree", action="append", type=Path,
                        help="a checkout to count (give two to compare, "
                             "parent first; default: this one)")
    parser.add_argument("--seed", type=int, default=None,
                        help="root seed, as run_one.py takes it (default: "
                             "the workloads' DEFAULT_SEED)")
    parser.add_argument("--smoke", action="store_true",
                        help="the workloads' smoke arguments")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    opts = parser.parse_args(argv)
    trees = [tree.resolve() for tree in (opts.tree or [ROOT])]
    if len(trees) > 2:
        parser.error("give at most two trees")
    seed = opts.seed
    if seed is None:
        sys.path.insert(0, str(trees[0] / "benchmarks" / "e2e"))
        from workloads import DEFAULT_SEED
        seed = DEFAULT_SEED
        sys.path.pop(0)
    if opts.child:
        [name] = opts.workloads
        count_child(trees[0], name, seed, opts.smoke)
        return 0
    print(f"# {'smoke' if opts.smoke else 'full'} args, root seed {seed}, "
          f"trees: " + " | ".join(f"[{i}] {tree}"
                                   for i, tree in enumerate(trees)))
    report(trees, list(opts.workloads), seed, opts.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
