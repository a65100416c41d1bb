"""The parallel experiment runner: fan independent work over processes.

Sweep cells (E6's (arm, dwell), E7's (architecture, n_aps)), E19's
sharded passes and whole experiments are all embarrassingly parallel as
long as every task derives its randomness from the task *key* rather
than from execution order, which this package enforces:

* :func:`derive_seed` — a stable seed from (root seed, task key): same
  key, same seed, in any process and any order.
* :func:`parallel_map` — ordered map of sweep cells over workers, a
  plain loop at ``jobs=1`` (the default); tables are byte-identical
  either way. A failed task or lost worker raises
  :class:`WorkerTaskError`.
* :func:`supervised_map` — what the CLI drives for whole experiments:
  the same map plus per-task deadlines, bounded retry,
  :class:`TaskFailure` records and :class:`SweepCheckpoint` resume.

Both are scheduling policies over **one** worker runtime
(:mod:`repro.runner.worker`; ROBUSTNESS.md), which also ships worker
telemetry home under a :data:`~repro.telemetry.hub.HUB` run.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "checkpoint": ("SweepCheckpoint",),
    "parallel": ("WorkerTaskError", "parallel_map"),
    "seeds": ("derive_seed",),
    "supervisor": ("SupervisorReport", "TaskFailedError", "supervised_map"),
    "worker": ("TaskFailure", "get_jobs", "in_worker", "set_jobs"),
})
