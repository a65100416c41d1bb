"""Fork-worker pool for sharded simulation: one pinned worker per shard.

The multi-process driver behind :class:`~repro.simcore.sharded.
ShardedSimulator` (``couplings`` / ``start_time`` / ``step`` /
``harvest`` / ``close``), and the *worker-pinned* scheduling policy
over the shared runtime (:mod:`repro.runner.worker`): shard ``i``'s
tasks always go to worker ``i``, because that worker is **stateful** —
an ``open`` task builds the :class:`~repro.simcore.sharded.ShardHost`
inside the worker and parks it in a module global of that process,
``step`` tasks advance it one window (per-window traffic is just the
cross-shard records, not the world), ``harvest`` ships the result home.

Tasks are labelled ``shard:<i>`` (the chaos-plan key). A shard worker
that raises, dies or stops beating surfaces as :class:`ShardWorkerError`
naming the shard; :meth:`ShardWorkerPool.close` reaps the siblings.
Under an active hub run each pool records one ``"shards"`` map, one task
per shard, into ``HUB.lifecycle``, telemetry absorbed in shard order.
"""

from __future__ import annotations

import time
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runner.worker import ShipHome, Worker, pack, watch
from repro.telemetry.hub import HUB

__all__ = ["ShardWorkerError", "ShardWorkerPool"]

#: This worker process's shard (host + lifecycle stamps), set by the
#: ``open`` task; always None in the parent.
_SHARD: Optional[SimpleNamespace] = None


class ShardWorkerError(RuntimeError):
    """A shard worker raised, died or hung; carries the worker-side story."""

    def __init__(self, shard: int, exc_type: str, traceback_text: str) -> None:
        super().__init__(
            f"shard {shard} worker failed with {exc_type}; "
            f"original traceback:\n{traceback_text}")
        self.shard = shard
        self.exc_type = exc_type
        self.traceback_text = traceback_text


def _open_shard(args) -> Tuple[float, List[Tuple[str, int, float]]]:
    """``open`` task: build this worker's shard and keep it."""
    global _SHARD
    builder, spec, ship, profile, trace = args
    started_at = time.monotonic()
    if ship:
        HUB.start_run(profile=profile, trace=trace)
    host = builder(spec)
    _SHARD = SimpleNamespace(host=host, ship=ship, started_at=started_at,
                             exec_s=time.monotonic() - started_at)
    return host.sim.now, list(host.boundary.couplings)


def _step_shard(args) -> Tuple[List[Any], float]:
    """``step`` task: inject, advance one window, hand back the egress."""
    until, final, records = args
    host = _SHARD.host
    t0 = time.perf_counter()
    host.inject(records)
    host.advance(until, final)
    spent = time.perf_counter() - t0
    _SHARD.exec_s += spent
    return host.boundary.drain(), spent


def _harvest_shard(_):
    """``harvest`` task: ``(result, stats)``, packed under a hub run."""
    host = _SHARD.host
    if host.sim.checker is not None:  # it outlived the ``open`` task's audit
        host.sim.checker.verify()
    result = (host.harvest(), host.stats())
    if _SHARD.ship:
        return pack(result, _SHARD.started_at, _SHARD.exec_s)
    return result


class ShardWorkerPool:
    """Driver that runs each shard in its own forked worker."""

    def __init__(self, builder: Callable[[Any], Any], specs: Sequence[Any]) -> None:
        self._home = ShipHome("shards", len(specs))
        self._workers: List[Worker] = []
        try:
            for _ in specs:
                self._workers.append(Worker())
            self._home.forked()
            opened = self._round(_open_shard, [
                (builder, spec, self._home.on, HUB.profiling, HUB.tracing)
                for spec in specs])
        except BaseException:
            self.close()
            raise
        self._start_time = max(now for now, _ in opened)
        self._couplings = [couplings for _, couplings in opened]

    def _round(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """One task per shard on its own worker; replies in shard order."""
        replies: List[Any] = [None] * len(items)
        try:
            for shard, (worker, item) in enumerate(zip(self._workers, items)):
                worker.assign(f"shard:{shard}", fn, item, slot=shard)
        except OSError:
            raise ShardWorkerError(shard, "WorkerCrashed",
                                   "worker died between windows") from None
        for worker, kind, value in watch(self._workers):
            if kind != "done":
                raise ShardWorkerError(worker.slot, value.exc_type,
                                       value.detail)
            replies[worker.slot] = value
        return replies

    def couplings(self) -> List[List[Tuple[str, int, float]]]:
        return self._couplings

    def start_time(self) -> float:
        return self._start_time

    def step(self, until: float, final: bool,
             injections: Sequence[Sequence[Any]],
             ) -> Tuple[List[List[Any]], List[float]]:
        replies = self._round(_step_shard, [(until, final, records)
                                            for records in injections])
        return ([egress for egress, _ in replies],
                [spent for _, spent in replies])

    def harvest(self) -> Tuple[List[Any], List[Dict[str, Any]]]:
        replies = [
            self._home.receive(shard, f"shard:{shard}", shipped)
            for shard, shipped in enumerate(
                self._round(_harvest_shard, [None] * len(self._workers)))]
        self._home.merge()
        return ([result for result, _ in replies],
                [stats for _, stats in replies])

    def close(self) -> None:
        for worker in self._workers:
            worker.stop()
        self._workers = []
