"""Supervised ordered map: deadlines, bounded retry, checkpoints.

The any-free-worker scheduling policy over the shared worker runtime
(:mod:`repro.runner.worker`), and the execution layer the paper's own
argument demands the harness have (§3: independently-failing parts must
not take the federation down). To the runtime's guarantees — heartbeat,
crash detection, kill with post-mortem, no orphans — it adds:

* **per-task deadlines** — an attempt over ``task_timeout_s`` of wall
  clock is declared hung and its worker killed;
* **bounded retry with stable reseeding** — a failed task is re-run up
  to ``retries`` times. Tasks are self-seeding (:func:`repro.runner.
  seeds.derive_seed` keys the task, not the attempt), so a retried task
  reproduces byte-identical output;
* **structured failure records** — every crash/hang/exception is a
  :class:`TaskFailure` on the :class:`SupervisorReport` and bumps
  lazily created ``runner.supervisor.{failures,retries}`` counters (a
  clean run's telemetry is byte-identical to an unsupervised one);
* **checkpoint/resume** — with a :class:`~repro.runner.checkpoint.
  SweepCheckpoint`, finished tasks are journaled and journaled ones
  replayed without executing (``--resume``).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.runner.worker import (ShipHome, TaskFailure, Worker, get_jobs,
                                 in_worker, watch)
from repro.telemetry.hub import HUB, ambient_registry

__all__ = ["SupervisorReport", "TaskFailedError", "TaskFailure",
           "supervised_map"]


class TaskFailedError(RuntimeError):
    """A supervised task exhausted its retry budget; carries the final
    :class:`TaskFailure` and the task's whole failure history, so the
    worker-side traceback survives into the parent's error."""

    def __init__(self, failure: TaskFailure, item: Any,
                 history: Sequence[TaskFailure]) -> None:
        self.failure = failure
        self.item = item
        self.history = list(history)
        item_repr = repr(item)
        if len(item_repr) > 200:
            item_repr = item_repr[:197] + "..."
        lines = [f"supervised task {failure.label!r} (slot {failure.slot}, "
                 f"item {item_repr}) failed {len(self.history)} time(s); "
                 f"last failure: {failure.kind}"]
        if failure.detail:
            lines.append(failure.detail)
        super().__init__("\n".join(lines))


@dataclass
class SupervisorReport:
    """What a supervised run did beyond returning results."""

    failures: List[TaskFailure] = field(default_factory=list, repr=False)
    retries: int = 0
    crashes: int = 0
    hangs: int = 0
    exceptions: int = 0
    completed: int = 0
    replayed_from_checkpoint: int = 0

    def record(self, failure: TaskFailure) -> None:
        """Append a failure and bump the matching counters."""
        self.failures.append(failure)
        if failure.kind == "crash":
            self.crashes += 1
        elif failure.kind == "hang":
            self.hangs += 1
        else:
            self.exceptions += 1
        # lazily-created counters: a clean run never touches the
        # registry, keeping its telemetry byte-identical
        ambient_registry().counter("runner.supervisor.failures",
                                   kind=failure.kind).inc()


def supervised_map(fn: Callable[[Any], Any], items: Sequence[Any],
                   jobs: Optional[int] = None,
                   costs: Optional[Sequence[float]] = None,
                   labels: Optional[Sequence[str]] = None,
                   task_timeout_s: Optional[float] = None,
                   retries: int = 0,
                   checkpoint=None,
                   report: Optional[SupervisorReport] = None) -> List[Any]:
    """Ordered map with supervision; results in item order.

    Same contract as :func:`~repro.runner.parallel.parallel_map` —
    picklable ``fn``/``items``, self-seeding tasks, optional longest-
    first ``costs``, telemetry and runner-lifecycle timings shipped home
    under an active hub run (OBSERVABILITY.md) — plus supervision:

    Args:
        labels: stable, unique per-task names (default the item index);
            used in failure records, chaos plans and as checkpoint keys.
        task_timeout_s: wall-clock deadline per attempt; exceeding it
            kills the worker and counts a hang.
        retries: extra attempts per task after a crash/hang/exception.
        checkpoint: a :class:`~repro.runner.checkpoint.SweepCheckpoint`;
            journaled tasks are replayed without executing, finished
            ones journaled (results must be JSON-serializable). Refused
            under an active telemetry run: replays carry no telemetry.
        report: a :class:`SupervisorReport` to fill in.

    Raises:
        TaskFailedError: a task failed ``retries + 1`` times; every
            worker is killed and joined before it propagates.

    Serial mode (``jobs=1`` or nested in a worker) executes inline with
    the same retry/annotation/checkpoint semantics but cannot preempt
    hangs — deadlines need workers. A single pending item at ``jobs>1``
    therefore still gets a worker, so ``--task-timeout`` protects
    one-experiment runs too.
    """
    items = list(items)
    n = jobs if jobs is not None else get_jobs()
    if n < 1:
        raise ValueError(f"jobs must be >= 1, got {n}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if labels is None:
        labels = [str(i) for i in range(len(items))]
    else:
        labels = [str(label) for label in labels]
        if len(labels) != len(items):
            raise ValueError("labels must align with items")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be unique")
    if costs is not None and len(costs) != len(items):
        raise ValueError("costs must align with items")
    if report is None:
        report = SupervisorReport()
    if checkpoint is not None and HUB.active:
        raise ValueError("checkpoint/resume cannot run under an active "
                         "telemetry run: replayed tasks contribute no "
                         "telemetry, so exports would not match")

    results: List[Any] = [None] * len(items)
    pending: List[int] = []
    for slot, label in enumerate(labels):
        if checkpoint is not None and checkpoint.done(label):
            results[slot] = checkpoint.get(label)
            report.replayed_from_checkpoint += 1
        else:
            pending.append(slot)

    def finish(slot: int, value: Any) -> None:
        results[slot] = value
        report.completed += 1
        if checkpoint is not None:
            checkpoint.record(labels[slot], value)

    if n == 1 or in_worker():
        _run_inline(fn, items, labels, pending, retries, report, finish)
    elif pending:
        fan_out("supervised", fn, items, labels, pending, costs, n,
                task_timeout_s, retries, report, finish)
    return results


def _retry_or_raise(failure: TaskFailure, item: Any,
                    history: List[TaskFailure], retries: int,
                    report: SupervisorReport) -> None:
    """Book one failed attempt; raise once the retry budget is spent."""
    report.record(failure)
    history.append(failure)
    if failure.attempt > retries:
        raise TaskFailedError(failure, item, history)
    report.retries += 1
    ambient_registry().counter("runner.supervisor.retries").inc()


def _run_inline(fn, items, labels, pending, retries, report,
                finish) -> None:
    """Serial fallback: retry + annotate in this process, no preemption.
    An active hub run already collects this process's simulators, so
    tasks run bare and the runner lifecycle records nothing."""
    for slot in pending:
        history: List[TaskFailure] = []
        while True:
            started = time.monotonic()
            try:
                value = fn(items[slot])
            except Exception as exc:
                failure = TaskFailure(
                    labels[slot], slot, len(history) + 1, "exception",
                    traceback.format_exc(), time.monotonic() - started,
                    type(exc).__name__)
                _retry_or_raise(failure, items[slot], history, retries,
                                report)
            else:
                finish(slot, value)
                break


def fan_out(mode: str, fn, items, labels, pending, costs, jobs,
            task_timeout_s, retries, report, finish) -> None:
    """Any-free-worker scheduling: assign, watch, retry or raise.
    ``mode`` only names the map in ``HUB.lifecycle``. Every worker is
    stopped or killed and joined on every exit path, Ctrl-C included."""
    queue = list(pending)
    if costs is not None:
        queue.sort(key=lambda slot: -costs[slot])
    queue.reverse()  # pop() takes the longest first
    history: Dict[int, List[TaskFailure]] = {slot: [] for slot in pending}
    n_workers = min(jobs, len(pending))
    home = ShipHome(mode, n_workers)
    workers: List[Worker] = []

    def replace(worker: Worker) -> Worker:
        fresh = workers[workers.index(worker)] = Worker()
        return fresh

    def assign_next(worker: Worker) -> None:
        while queue:
            slot = queue.pop()
            try:
                worker.assign(labels[slot], *home.wrap(fn, items[slot]),
                              slot, len(history[slot]) + 1)
                return
            except OSError:
                # died while idle: charge no attempt, replace it
                queue.append(slot)
                worker.kill()
                worker = replace(worker)

    try:
        for _ in range(n_workers):
            workers.append(Worker())
        home.forked()
        for worker in workers:  # replacement keeps the positions
            assign_next(worker)
        for worker, kind, value in watch(workers, task_timeout_s):
            slot = worker.slot
            if kind == "done":
                finish(slot, home.receive(slot, labels[slot], value))
            else:
                _retry_or_raise(value, items[slot], history[slot], retries,
                                report)
                queue.append(slot)  # next up; byte-identical by seeding
                if kind != "exception":  # the runtime killed it
                    worker = replace(worker)
            assign_next(worker)
    finally:
        for worker in workers:
            worker.stop()
    home.merge()
