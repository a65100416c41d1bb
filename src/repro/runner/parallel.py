"""Ordered parallel map for independent sweep cells.

The contract that keeps parallel runs byte-identical to serial ones:

* results come back in *item order*, never completion order;
* every task is self-seeding (see :mod:`repro.runner.seeds`) — nothing
  it computes may depend on which worker ran it or when;
* nested calls run serially: a worker that reaches another
  ``parallel_map`` just loops, so cell-level parallelism composes with
  experiment-level fan-out without oversubscription;
* under an active :data:`~repro.telemetry.hub.HUB` run each task's
  telemetry ships home and is spliced into the parent run in task order.

Execution is :func:`repro.runner.supervisor.fan_out` with no deadline
and no retries: the first task that raises — or whose worker dies or
stops beating — ends the map with a :class:`WorkerTaskError`; under
``--retries`` the CLI then re-runs the whole experiment.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.runner.supervisor import (SupervisorReport, TaskFailedError,
                                     fan_out)
from repro.runner.worker import get_jobs, in_worker

__all__ = ["WorkerTaskError", "parallel_map"]


class WorkerTaskError(RuntimeError):
    """A task raised inside a worker, or took its worker down.

    Carries the task's index, its item (whose repr names the derived
    seed), the exception type name (``"WorkerCrashed"``/``"WorkerHung"``
    when the process itself failed) and the worker-side traceback text.
    """

    def __init__(self, slot: int, item: Any, exc_type: str,
                 traceback_text: str) -> None:
        self.slot = slot
        self.item = item
        self.exc_type = exc_type
        self.traceback_text = traceback_text
        item_repr = repr(item)
        if len(item_repr) > 200:
            item_repr = item_repr[:197] + "..."
        super().__init__(
            f"task {slot} ({item_repr}) raised {exc_type} in a "
            f"worker; original traceback:\n{traceback_text}")


def parallel_map(fn: Callable[[Any], Any], items: Sequence[Any],
                 jobs: Optional[int] = None,
                 costs: Optional[Sequence[float]] = None) -> List[Any]:
    """Map ``fn`` over ``items`` on worker processes, results in item order.

    Args:
        fn: a picklable (module-level) single-argument callable.
        items: task descriptors, each picklable.
        jobs: worker count; defaults to :func:`get_jobs`. ``1`` (or a
            single item, or a nested call inside a worker) runs a plain
            serial loop — the reference behavior parallel runs must match.
        costs: optional per-item cost hints; when given, tasks are
            *submitted* longest-first to minimize makespan, but results
            still come back in item order.

    Raises:
        WorkerTaskError: a task raised in a worker or the worker died;
            every worker is torn down before it propagates.
    """
    items = list(items)
    n = jobs if jobs is not None else get_jobs()
    if n < 1:
        raise ValueError(f"jobs must be >= 1, got {n}")
    if costs is not None and len(costs) != len(items):
        raise ValueError("costs must align with items")
    if n == 1 or in_worker() or len(items) < 2:
        return [fn(item) for item in items]
    results: List[Any] = [None] * len(items)
    try:
        fan_out("pool", fn, items, [str(item)[:80] for item in items],
                range(len(items)), costs, n, None, 0, SupervisorReport(),
                results.__setitem__)
    except TaskFailedError as err:
        raise WorkerTaskError(err.failure.slot, err.item, err.failure.exc_type,
                              err.failure.detail) from None
    return results
