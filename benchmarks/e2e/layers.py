"""Per-layer ledger: fold one cProfile pass by ``repro`` package and read
the named counts off the public telemetry surfaces.

Everything here observes ``repro`` from outside. Layers are the repo's
packages; a function's self time goes to the package its file is in, and
the self time of everything else (C builtins, numpy, stdlib, this
benchmark's own driver) goes to the nearest ``repro`` caller, found
through pstats caller edges — so ``math.log10`` under ``phy/vmath.py``
is ``phy``, and numpy internals reached through a numpy wrapper still
land on the package that called the wrapper. Time with no ``repro``
ancestor is ``host``.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Packages reported under their own name; every other ``repro`` module
#: (experiments, metrics, geo, deploy, faults, invariants, mobility,
#: ``__main__``) is ``harness``.
NAMED_LAYERS = ("simcore", "phy", "mac", "enodeb", "net", "transport", "epc",
                "core", "coordination", "spectrum", "workloads", "telemetry",
                "runner")
LAYERS = NAMED_LAYERS + ("harness", "host")

#: Named counts and ratios with their units, in report order (README.md
#: gives each one's source).
COUNT_UNITS = {
    "simcore.events": "count", "simcore.us_per_event": "us",
    "simcore.heap_hwm": "count", "simcore.shard_windows": "count",
    "simcore.shard_exec_s": "s", "simcore.barrier_wait_s": "s",
    "mac.ttis": "count", "mac.ue_ttis": "count", "mac.us_per_ue_tti": "us",
    "mac.csma_frames": "count",
    "enodeb.tti_p50_us": "us", "enodeb.tti_p99_us": "us",
    "net.packets_delivered": "count", "net.packets_dropped": "count",
    "net.bytes_sent": "bytes", "net.link_peak_queue": "count",
    "net.ecn_marks": "count", "net.us_per_packet": "us",
    "epc.msgs_processed": "count", "epc.msgs_shed": "count",
    "epc.agent_peak_queue": "count", "epc.attach_attempts": "count",
    "epc.attach_completed": "count", "epc.attach_rejected": "count",
    "epc.us_per_msg": "us",
    "telemetry.observations": "count", "telemetry.instruments": "count",
    "telemetry.ns_per_observation": "ns",
    "runner.tasks": "count", "runner.fork_s": "s",
    "runner.pickle_bytes": "bytes", "runner.fork_speedup": "x",
    "runner.outside_windows_s": "s",
    "trace.overhead_frac": "share",
}

#: Counts that are exact functions of (code, seed): ``--aa`` requires them
#: identical between two sets of runs, together with every ``L.calls``.
EXACT_COUNTS = (
    "simcore.events", "simcore.heap_hwm", "simcore.shard_windows",
    "mac.ttis", "mac.ue_ttis", "mac.csma_frames",
    "net.packets_delivered", "net.packets_dropped", "net.bytes_sent",
    "net.link_peak_queue", "net.ecn_marks",
    "epc.msgs_processed", "epc.msgs_shed", "epc.agent_peak_queue",
    "epc.attach_attempts", "epc.attach_completed", "epc.attach_rejected",
    "telemetry.observations", "telemetry.instruments",
    "runner.tasks", "runner.pickle_bytes",
)

LAYER_FIELDS = {"self_s": "s", "share": "share", "calls": "count"}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{layer}.{field}": unit for layer in LAYERS
             for field, unit in LAYER_FIELDS.items()}
    units.update(COUNT_UNITS)
    return units


def _layer_of(filename: str, root: str) -> Optional[str]:
    if not filename.startswith(root):
        return None
    head, sep, _rest = filename[len(root):].partition(os.sep)
    return head if sep and head in NAMED_LAYERS else "harness"


def fold_profile(stats: Dict[Tuple, Tuple], repro_root: str,
                 ) -> Dict[str, Dict[str, float]]:
    """Fold ``pstats.Stats(...).stats`` into per-layer self time and calls.

    ``calls`` counts calls to functions defined in the layer (for
    ``host``: to every function outside ``repro``); it is exact and
    repeats run to run.
    """
    root = repro_root.rstrip(os.sep) + os.sep
    layer = {func: _layer_of(func[0], root) for func in stats}
    out = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}

    # owner[f]: how a foreign function's time splits over layers, by the
    # cumulative time each caller spent in it; foreign callers pass their
    # own split on, so a few sweeps resolve wrapper chains.
    owner: Dict[Tuple, Dict[str, float]] = {}
    foreign = [func for func in stats if layer[func] is None]
    for _sweep in range(8):
        for func in foreign:
            callers = stats[func][4]
            weights = {c: edge[3] for c, edge in callers.items()}
            total = sum(weights.values())
            if total <= 0.0:
                weights = {c: float(edge[0]) for c, edge in callers.items()}
                total = sum(weights.values())
            split: Dict[str, float] = {}
            for caller, weight in weights.items():
                share = weight / total
                name = layer.get(caller)
                if name is not None:
                    split[name] = split.get(name, 0.0) + share
                else:
                    for k, v in owner.get(caller, {}).items():
                        split[k] = split.get(k, 0.0) + share * v
            owner[func] = split

    for func, (_cc, ncalls, self_s, _ct, callers) in stats.items():
        name = layer[func]
        if name is not None:
            out[name]["self_s"] += self_s
            out[name]["calls"] += ncalls
            continue
        out["host"]["calls"] += ncalls
        if not callers:
            out["host"]["self_s"] += self_s
            continue
        for caller, edge in callers.items():
            edge_self = edge[2]
            split = ({layer[caller]: 1.0} if layer.get(caller) is not None
                     else owner.get(caller, {}))
            placed = 0.0
            for k, v in split.items():
                out[k]["self_s"] += edge_self * v
                placed += v
            out["host"]["self_s"] += edge_self * max(0.0, 1.0 - placed)
    return out


def _total(rows: Iterable[dict], name: str, key: str = "value") -> float:
    return sum(row.get(key) or 0 for row in rows if row["name"] == name)


def named_counts(run: Any, sims: List[Any],
                 layers: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Counts and ratios from ``RunTelemetry``, ``metrics_rows()`` and the
    simulators the child saw ``TelemetryHub.adopt``-ed. Ratios divide the
    layer's traced self time by its count (0 when the layer did nothing).
    """
    rows = run.metrics_rows()

    def per(layer: str, count: float, scale: float) -> float:
        return layers[layer]["self_s"] / count * scale if count else 0.0

    events = sum(sim.events_executed for sim in sims)
    ue_ttis = _total(rows, "phy.sinr_db", "count")
    delivered = _total(rows, "net.link.delivered")
    processed = _total(rows, "epc.agent.processed")
    observations = sum(row.get("count") or 0 for row in rows
                       if row["kind"] == "histogram")
    return {
        "simcore.events": events,
        "simcore.us_per_event": per("simcore", events, 1e6),
        "simcore.heap_hwm": run.heap_high_water,
        "mac.ttis": _total(rows, "mac.cell.ttis"),
        "mac.ue_ttis": ue_ttis,
        "mac.us_per_ue_tti": per("mac", ue_ttis, 1e6),
        "mac.csma_frames": _total(rows, "mac.csma.frames_sent"),
        "net.packets_delivered": delivered,
        "net.packets_dropped": _total(rows, "net.link.dropped"),
        "net.bytes_sent": _total(rows, "net.link.bytes_sent"),
        "net.link_peak_queue": run.link_peak_queue,
        "net.ecn_marks": run.ecn_marks,
        "net.us_per_packet": per("net", delivered, 1e6),
        "epc.msgs_processed": processed,
        "epc.msgs_shed": run.agents_shed,
        "epc.agent_peak_queue": run.agent_peak_queue,
        "epc.attach_attempts": _total(rows, "nas.attach.attempts"),
        "epc.attach_completed": _total(rows, "epc.attach.completed"),
        "epc.attach_rejected": _total(rows, "nas.attach.rejected"),
        "epc.us_per_msg": per("epc", processed, 1e6),
        "telemetry.observations": observations,
        "telemetry.instruments": len(rows),
        "telemetry.ns_per_observation": per("telemetry", observations, 1e9),
    }


def fork_counts(run: Any, wall_s: float) -> Dict[str, float]:
    """Fork-side numbers of a sharded run made inside a hub bracket, from
    the public ``run.shard_stats`` and ``run.lifecycle``.

    ``runner.outside_windows_s`` is the wall the parent spent outside
    every window's slowest shard: process start, shard build, pipe
    round-trips, harvest pickling and merge.
    """
    in_windows: Dict[str, float] = {}
    for entry in run.shard_stats:
        arm = entry.get("label", "")
        in_windows[arm] = max(in_windows.get(arm, 0.0),
                              entry["exec_s"] + entry["barrier_wait_s"])
    arms = {entry.get("label", ""): entry["windows_driven"]
            for entry in run.shard_stats}
    summary = run.lifecycle.summary() or {}
    return {
        "simcore.shard_windows": sum(arms.values()),
        "simcore.shard_exec_s": sum(e["exec_s"] for e in run.shard_stats),
        "simcore.barrier_wait_s": sum(e["barrier_wait_s"]
                                      for e in run.shard_stats),
        "runner.tasks": summary.get("tasks", 0),
        "runner.fork_s": summary.get("fork_s", 0.0),
        "runner.pickle_bytes": summary.get("serialize_bytes", 0),
        "runner.outside_windows_s": (wall_s - sum(in_windows.values())
                                     if run.shard_stats else 0.0),
    }
