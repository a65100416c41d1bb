"""Runner-lifecycle tracing: where *wall-clock* time goes in ``--jobs N``.

The simulator's own telemetry observes the simulated world; this module
observes the real-time machinery around it — the parallel path that the
bench baseline flagged as inverted (``--jobs 4`` at 0.74x). Each
parallel map records, per task: queue wait, execution, result
pickle/serialize size and time, ship-home latency, and hub-merge time;
plus per-map worker fork/spawn cost. From those, :meth:`summary`
decomposes measured parallel wall time into fork vs IPC vs load
imbalance vs idle — the numbers printed on the ``--profile`` line and
emitted as ``"type": "runner"`` records into ``--trace-out`` JSONL.

All measurements are wall-clock (``time.monotonic``, comparable across
forked processes on Linux) and purely observational: recording happens
only while a hub run is active, and the serial path records nothing —
which is why runner records are, by construction, the one telemetry
family that differs between serial and parallel runs. Exports keep them
under the dedicated ``runner`` source tag so byte-identity checks can
exclude exactly this family.

The ``runner.`` metric family (see OBSERVABILITY.md):

- ``runner.task.queue_wait_s`` / ``exec_s`` / ``serialize_s`` /
  ``ship_s`` / ``merge_s`` — histograms, one sample per task;
- ``runner.task.serialize_bytes`` — counter, total pickled result bytes;
- ``runner.tasks`` / ``runner.maps`` — counters;
- ``runner.map.fork_s{mode}`` — histogram, worker creation cost per map
  (``pool`` = ``parallel_map``, ``supervised``, ``shards`` = one task
  per fork-mode shard worker).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.telemetry.registry import MetricsRegistry

__all__ = ["MapLifecycle", "RunnerLifecycle", "TaskLifecycle"]


class TaskLifecycle:
    """Wall-clock phase breakdown of one parallel task."""

    __slots__ = ("slot", "label", "pid", "queue_wait_s", "exec_s",
                 "serialize_s", "serialize_bytes", "ship_s", "merge_s")

    def __init__(self, slot: int, label: str, pid: int,
                 queue_wait_s: float, exec_s: float, serialize_s: float,
                 serialize_bytes: int, ship_s: float,
                 merge_s: float = 0.0) -> None:
        self.slot = slot
        self.label = label
        self.pid = pid
        self.queue_wait_s = queue_wait_s
        self.exec_s = exec_s
        self.serialize_s = serialize_s
        self.serialize_bytes = serialize_bytes
        self.ship_s = ship_s
        self.merge_s = merge_s

    @property
    def busy_s(self) -> float:
        """Worker-side seconds this task kept its worker occupied."""
        return self.exec_s + self.serialize_s

    def to_dict(self, map_index: int) -> Dict[str, Any]:
        return {"type": "runner", "record": "task", "map": map_index,
                "slot": self.slot, "label": self.label, "pid": self.pid,
                "queue_wait_s": self.queue_wait_s, "exec_s": self.exec_s,
                "serialize_s": self.serialize_s,
                "serialize_bytes": self.serialize_bytes,
                "ship_s": self.ship_s, "merge_s": self.merge_s}


class MapLifecycle:
    """One parallel map: fork cost, wall time, and its tasks."""

    __slots__ = ("mode", "jobs", "fork_s", "wall_s", "tasks", "started_at")

    def __init__(self, mode: str, jobs: int) -> None:
        self.mode = mode          # "pool" | "supervised" | "shards"
        self.jobs = jobs
        self.fork_s = 0.0
        self.wall_s = 0.0
        self.tasks: List[TaskLifecycle] = []
        self.started_at = time.monotonic()

    def finish(self) -> None:
        """Close the map's wall-clock window (idempotent enough: last wins)."""
        self.wall_s = time.monotonic() - self.started_at

    # -- per-map decomposition --------------------------------------------

    def busy_by_pid(self) -> Dict[int, float]:
        per: Dict[int, float] = {}
        for task in self.tasks:
            per[task.pid] = per.get(task.pid, 0.0) + task.busy_s
        return per

    @property
    def busy_s(self) -> float:
        return sum(task.busy_s for task in self.tasks)

    @property
    def imbalance_s(self) -> float:
        """Busiest-worker seconds above the mean — pure load skew."""
        per = self.busy_by_pid()
        if len(per) < 2:
            return 0.0
        return max(per.values()) - sum(per.values()) / len(per)

    @property
    def idle_s(self) -> float:
        """Worker-seconds not spent executing or pickling results."""
        span = max(0.0, self.wall_s - self.fork_s)
        return max(0.0, self.jobs * span - self.busy_s)

    def to_dict(self, map_index: int) -> Dict[str, Any]:
        return {"type": "runner", "record": "map", "map": map_index,
                "mode": self.mode, "jobs": self.jobs, "fork_s": self.fork_s,
                "wall_s": self.wall_s, "tasks": len(self.tasks),
                "imbalance_s": self.imbalance_s, "idle_s": self.idle_s}


class RunnerLifecycle:
    """Per-run accumulator of parallel-map lifecycles (owned by the hub)."""

    def __init__(self) -> None:
        self.maps: List[MapLifecycle] = []
        self.registry = MetricsRegistry()

    def begin_map(self, mode: str, jobs: int) -> MapLifecycle:
        """Open a map record; call :meth:`finish_map` when it completes."""
        record = MapLifecycle(mode, jobs)
        self.maps.append(record)
        return record

    def record_task(self, record: MapLifecycle, slot: int, label: str,
                    pid: int, queue_wait_s: float, exec_s: float,
                    serialize_s: float, serialize_bytes: int,
                    ship_s: float) -> TaskLifecycle:
        """Record one completed task (merge time is added later)."""
        task = TaskLifecycle(slot, label, pid, queue_wait_s, exec_s,
                             serialize_s, serialize_bytes, ship_s)
        record.tasks.append(task)
        return task

    def finish_map(self, record: MapLifecycle) -> None:
        """Close a map and mirror its numbers into the runner. metrics."""
        record.finish()
        reg = self.registry
        reg.counter("runner.maps").inc()
        reg.histogram("runner.map.fork_s", mode=record.mode) \
            .observe(record.fork_s)
        for task in record.tasks:
            reg.counter("runner.tasks").inc()
            reg.histogram("runner.task.queue_wait_s").observe(task.queue_wait_s)
            reg.histogram("runner.task.exec_s").observe(task.exec_s)
            reg.histogram("runner.task.serialize_s").observe(task.serialize_s)
            reg.counter("runner.task.serialize_bytes") \
                .inc(task.serialize_bytes)
            reg.histogram("runner.task.ship_s").observe(task.ship_s)
            reg.histogram("runner.task.merge_s").observe(task.merge_s)

    # -- export ------------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """JSONL-ready dicts: one per map, then one per task."""
        out: List[Dict[str, Any]] = []
        for index, record in enumerate(self.maps):
            out.append(record.to_dict(index))
            out.extend(task.to_dict(index) for task in record.tasks)
        return out

    def summary(self) -> Optional[Dict[str, float]]:
        """Aggregate decomposition across every map (None if no maps)."""
        if not self.maps:
            return None
        tasks = [task for record in self.maps for task in record.tasks]
        jobs = max(record.jobs for record in self.maps)
        wall_s = sum(record.wall_s for record in self.maps)
        fork_s = sum(record.fork_s for record in self.maps)
        serialize_s = sum(task.serialize_s for task in tasks)
        ship_s = sum(task.ship_s for task in tasks)
        merge_s = sum(task.merge_s for task in tasks)
        idle_s = sum(record.idle_s for record in self.maps)
        busy_s = sum(record.busy_s for record in self.maps)
        # per-map accounting identity: wall ~= fork + (busy + idle)/jobs;
        # coverage reports how much of the measured wall the recorded
        # phases explain (clock skew / untracked parent work shows up as
        # a shortfall)
        covered = sum(r.fork_s + (r.busy_s + r.idle_s) / r.jobs
                      for r in self.maps)
        return {
            "maps": len(self.maps),
            "tasks": len(tasks),
            "jobs": jobs,
            "wall_s": wall_s,
            "fork_s": fork_s,
            "queue_wait_s": sum(task.queue_wait_s for task in tasks),
            "exec_s": sum(task.exec_s for task in tasks),
            "serialize_s": serialize_s,
            "serialize_bytes": sum(task.serialize_bytes for task in tasks),
            "ship_s": ship_s,
            "merge_s": merge_s,
            "ipc_s": serialize_s + ship_s + merge_s,
            "busy_s": busy_s,
            "idle_s": idle_s,
            "imbalance_s": sum(record.imbalance_s for record in self.maps),
            "coverage": covered / wall_s if wall_s > 0 else 1.0,
        }

    def summary_line(self) -> str:
        """One human line for the ``--profile`` output."""
        s = self.summary()
        if s is None:
            return "no parallel maps"
        kib = s["serialize_bytes"] / 1024.0
        return (f"{s['maps']} map(s), {s['tasks']} task(s) over "
                f"{s['jobs']} worker(s); wall {s['wall_s']:.3f} s: "
                f"fork {s['fork_s']:.3f} s, exec {s['exec_s']:.3f} s, "
                f"ipc {s['ipc_s']:.3f} s "
                f"(pickle {s['serialize_s']:.3f} s/{kib:.0f} KiB, "
                f"ship {s['ship_s']:.3f} s, merge {s['merge_s']:.3f} s), "
                f"imbalance {s['imbalance_s']:.3f} s, "
                f"idle {s['idle_s']:.3f} s, "
                f"queue-wait {s['queue_wait_s']:.3f} s; "
                f"coverage {s['coverage']:.0%}")
