#!/usr/bin/env python3
"""One benchmark run: one fresh interpreter, one workload, one JSON line.

A user pays imports and cold caches on every ``python -m repro``
invocation, so the harness starts a new process per run. The last line
of stdout is a JSON object: ``ready`` is ``time.monotonic()`` (system
wide on Linux) when the inputs were built — the parent subtracts its
own spawn time to get ``setup_s`` — and the rest is measured around the
single ``Workload.run`` call. ``--trace`` runs it inside a hub bracket
under cProfile and adds the per-layer ledger; nothing is timed for the
end-to-end metrics in that mode.

``calib_s`` times a fixed kernel right before and after the call
(``calib_before_s``, next to the set-up, is the first reading alone). The
reference box's CPU speed steps by 20-40% on a timescale of minutes
(wall == cpu throughout, steal ~0), which no amount of repetition inside
one run averages out; the parent divides every time by this reading so
that two runs minutes apart are comparable.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import os
import platform
import resource
import sys
import time
from typing import Any, Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WORKLOADS, Workload  # noqa: E402


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _calibrate() -> float:
    """Seconds for a fixed pure-Python kernel — heap push/pop, dict store,
    float add: the event loop's diet, and nothing from ``repro`` so no PR
    can move it. The minimum of 7 rejects spikes and keeps the level."""
    best = float("inf")
    for _ in range(7):
        heap, table, acc = [], {}, 0.0
        t0 = time.perf_counter()
        for i in range(40000):
            heapq.heappush(heap, (i * 7919 % 10007, i))
            table[i & 1023] = acc
            acc += i * 0.5
            if i & 3 == 0:
                heapq.heappop(heap)
        best = min(best, time.perf_counter() - t0)
    return best


def _cpu_s() -> float:
    """User + system CPU of this process and its reaped children (what
    ``os.times`` sums, read at getrusage's microsecond resolution)."""
    return sum(usage.ru_utime + usage.ru_stime for usage in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def _timed(spec: Workload, inputs: Dict[str, Any]) -> Dict[str, Any]:
    calib_before_s = _calibrate()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    text, extras = spec.run(inputs)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    calib_s = (calib_before_s + _calibrate()) / 2.0
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return {"wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_kb / 1024.0,
            "calib_s": calib_s, "calib_before_s": calib_before_s,
            "digest": _digest(text), "extras": extras}


def _traced(spec: Workload, args: Dict[str, Any], seed: int,
            inputs: Dict[str, Any]) -> Dict[str, Any]:
    import cProfile
    import pstats

    import repro
    from repro.telemetry.hub import HUB

    from layers import fold_profile, fork_counts, named_counts

    # Simulator.events_executed is public but RunTelemetry does not keep
    # the simulators; every constructor announces itself through adopt()
    sims: List[Any] = []
    adopt = HUB.adopt

    def recording_adopt(sim: Any) -> None:
        sims.append(sim)
        adopt(sim)

    HUB.adopt = recording_adopt
    out: Dict[str, Any] = {}
    fork: Dict[str, float] = {}
    if spec.serial is not None:
        # fork-side numbers: the workload as timed, bracketed, unprofiled
        HUB.start_run()
        t0 = time.perf_counter()
        text, _extras = spec.run(inputs)
        fork_wall_s = time.perf_counter() - t0
        fork = fork_counts(HUB.finish_run(), fork_wall_s)
        out["fork_digest"] = _digest(text)
        sims.clear()
        inputs = spec.prepare(dict(args, **spec.serial), seed)

    profiler = cProfile.Profile()
    calib_s = _calibrate()
    HUB.start_run()
    t0 = time.perf_counter()
    profiler.enable()
    text, _extras = spec.run(inputs)
    profiler.disable()
    wall_s = time.perf_counter() - t0
    run = HUB.finish_run()
    calib_s = (calib_s + _calibrate()) / 2.0

    layers = fold_profile(pstats.Stats(profiler).stats,
                          os.path.dirname(os.path.abspath(repro.__file__)))
    for entry in layers.values():
        entry["share"] = entry["self_s"] / wall_s
    counts = named_counts(run, sims, layers)
    counts.update(fork)
    out.update(wall_s=wall_s, calib_s=calib_s, digest=_digest(text),
               layers=layers, counts=counts,
               coverage=sum(e["self_s"] for e in layers.values()) / wall_s)
    return out


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="root seed; the workload's own seed is "
                             "derive_seed(root, workload name)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--serial", action="store_true",
                        help="run the workload's single-process variant")
    opts = parser.parse_args(argv)
    spec = WORKLOADS[opts.workload]
    args = spec.args(opts.smoke)
    if opts.serial:
        if spec.serial is None:
            parser.error(f"{spec.name} has no serial variant")
        args.update(spec.serial)

    from repro.runner import derive_seed
    seed = derive_seed(opts.seed, spec.name)
    inputs = spec.prepare(args, seed)
    ready = time.monotonic()

    result = (_traced(spec, args, seed, inputs) if opts.trace
              else _timed(spec, inputs))
    import numpy
    result.update(ready=ready, python=platform.python_version(),
                  numpy=numpy.__version__)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
