"""The parallel experiment runner: fan independent work over processes.

Sweep cells (E6's (arm, dwell), E7's (architecture, n_aps)), E19's
sharded passes and whole experiments are all embarrassingly parallel as
long as every task derives its randomness from the task *key* rather
than from execution order, which this package enforces:

* :func:`derive_seed` — a stable seed from (root seed, task key): same
  key, same seed, in any process and any order.
* :func:`parallel_map` — the one ordered map, over workers or in an
  inline loop at ``jobs=1`` (the default); tables are byte-identical
  either way. Per-task deadlines, bounded retry, :class:`TaskFailure`
  records and :class:`SweepCheckpoint` resume ride on it, and a task
  that fails its last attempt raises :class:`TaskFailedError`.

It schedules over **one** worker runtime (:mod:`repro.runner.worker`;
ROBUSTNESS.md), which also ships worker telemetry home under a
:data:`~repro.telemetry.hub.HUB` run.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "checkpoint": ("SweepCheckpoint",),
    "seeds": ("derive_seed",),
    "supervisor": ("SupervisorReport", "TaskFailedError", "parallel_map"),
    "worker": ("TaskFailure", "get_jobs", "in_worker", "set_jobs"),
})
