"""The telemetry hub: collect everything one experiment run produced.

Experiments build their own simulators internally (E16 builds two, one
per architecture arm), so the CLI cannot thread a registry through every
``run()`` signature. Instead, every :class:`Simulator` announces itself
to the process-wide :data:`HUB` at construction. While no run is active
that is a single flag check; when the CLI (or a test) brackets an
experiment with :meth:`TelemetryHub.start_run` / :meth:`finish_run`, the
hub keeps a reference to each simulator born in between, optionally
arms a tracer on each, and at the end hands back one
:class:`RunTelemetry` with every registry and tracer. A traced run's
finished spans are in its tracers (``Tracer.spans``); the span trackers
stay with their simulators, since only a post-mortem reads them.

``start_run(profile=True)`` also runs the whole bracket under the
stdlib's ``cProfile``, so every function the run calls is counted,
whether or not an event loop dispatched it. The profile is folded into
:class:`ProfileRow` rows keyed by code object; a worker ships its rows
home with its simulators, and the parent adds them up.

Components that have no simulator (a :class:`Cell` driven by explicit
TTI calls, a :class:`CsmaSimulation` run) record into the
*ambient* registry — the hub's shared registry during a run, a
process-global default otherwise — unless handed an explicit one.
"""

from __future__ import annotations

import contextlib
import operator
import os
import sys
import time
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from repro.simcore.trace import Tracer
from repro.telemetry.lifecycle import RunnerLifecycle
from repro.telemetry.registry import MetricsRegistry

__all__ = ["HUB", "SIM_GAUGES", "ProfileRow", "TelemetryHub", "RunTelemetry",
           "WorkerSimTelemetry", "ambient_registry", "tagged_rows"]

#: Fallback registry for sim-less components outside any hub run.
_DEFAULT_REGISTRY = MetricsRegistry()

#: Ring-buffer capacity of the tracer a run arms on each simulator.
_TRACE_CAPACITY = 1_000_000

#: The passive gauges every Simulator keeps as plain int attributes, and
#: how a run folds each across its simulators (``max`` for a high-water
#: mark, ``add`` for a count). :class:`RunTelemetry` carries the folded
#: value, :class:`WorkerSimTelemetry` ships the per-simulator one home
#: and the flight recorder dumps it, all under the same name.
SIM_GAUGES: Dict[str, Callable[[int, int], int]] = {
    "events_executed": operator.add,  # dispatched events
    "heap_high_water": max,        # largest run-queue footprint
    "agent_peak_queue": max,       # deepest control-agent queue
    "agents_shed": operator.add,   # control messages shed under overload
    "link_peak_queue": max,        # deepest link egress queue
    "ecn_marks": operator.add,     # ECN CE-marks applied by AQM
}


#: a folded profile: (file, first line, qualname) of a code object, or
#: ``("", 0, label)`` for a builtin -> [calls, self s, cumulative s]
ProfileTotals = Dict[Tuple[str, int, str], List]


class ProfileRow(NamedTuple):
    """One function's share of a profiled run."""

    function: str    # ``module.qualname``, or cProfile's builtin label
    calls: int
    self_s: float    # time in the function itself
    cum_s: float     # time in it and everything it called


def _add_totals(into: ProfileTotals, key: Tuple[str, int, str],
                calls: int, self_s: float, cum_s: float) -> None:
    totals = into.get(key)
    if totals is None:
        into[key] = [calls, self_s, cum_s]
    else:
        totals[0] += calls
        totals[1] += self_s
        totals[2] += cum_s


def _fold_profile(profiler: Any, into: ProfileTotals) -> None:
    """Add a ``cProfile.Profile``'s entries to ``into``, keyed by code
    object, so that distinct code objects sharing one label (every
    dataclass ``__init__``) add up rather than overwrite each other."""
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):  # a builtin: cProfile names it
            key = ("", 0, code)
        else:
            key = (code.co_filename, code.co_firstlineno,
                   getattr(code, "co_qualname", code.co_name))
        _add_totals(into, key, entry.callcount, entry.inlinetime,
                    entry.totaltime)


def _profile_rows(totals: ProfileTotals) -> List[ProfileRow]:
    """Label folded totals by module and sort them by self time."""
    modules = {os.path.abspath(module.__file__): name
               for name, module in list(sys.modules.items())
               if getattr(module, "__file__", None)}
    rows = []
    for (filename, _line, qualname), (calls, self_s, cum_s) in \
            totals.items():
        if filename:
            module = modules.get(os.path.abspath(filename)) \
                or os.path.splitext(os.path.basename(filename))[0]
            qualname = f"{module}.{qualname}"
        rows.append(ProfileRow(qualname, calls, self_s, cum_s))
    rows.sort(key=lambda row: (-row.self_s, row.function))
    return rows


def tagged_rows(registries: Sequence[Tuple[str, Any]]) -> List[Dict[str, Any]]:
    """Flatten (tag, MetricsRegistry) pairs into snapshot rows.

    Each row gains a ``sim`` key carrying the tag, so instruments with
    identical names from different simulators stay separate.
    """
    rows: List[Dict[str, Any]] = []
    for tag, registry in registries:
        for row in registry.snapshot():
            row = dict(row)
            row["sim"] = tag
            rows.append(row)
    return rows


class RunTelemetry:
    """Everything collected between start_run() and finish_run()."""

    def __init__(self, registries: List[Tuple[str, MetricsRegistry]],
                 tracers: List[Tuple[str, Any]],
                 profile: Optional[List[ProfileRow]],
                 gauges: Dict[str, int],
                 wall_s: float = 0.0,
                 lifecycle: Optional[RunnerLifecycle] = None,
                 shard_stats: Optional[List[dict]] = None) -> None:
        self.registries = registries
        self.tracers = tracers
        #: every function the run called, by self time (None unless
        #: the run was started with ``profile=True``)
        self.profile = profile
        #: wall-clock seconds from start_run() to finish_run()
        self.wall_s = wall_s
        #: runner-lifecycle log of the run's parallel maps (always
        #: present; empty — no maps — for serial runs)
        self.lifecycle = lifecycle if lifecycle is not None \
            else RunnerLifecycle()
        # one attribute per :data:`SIM_GAUGES` name, folded run-wide
        # (``run.heap_high_water``, ``run.ecn_marks``, ...)
        for name in SIM_GAUGES:
            setattr(self, name, gauges[name])
        #: per-shard stats dicts noted by ShardedSimulator runs (events,
        #: heap_hwm, windows, exec_s, barrier_wait_s per shard); empty
        #: for unsharded runs
        self.shard_stats = shard_stats if shard_stats is not None else []

    def metrics_rows(self) -> List[dict]:
        """Tagged snapshot rows across every collected registry."""
        return tagged_rows(self.registries)

    def subsystems(self) -> List[str]:
        """Distinct metric subsystems seen anywhere in the run."""
        seen = set()
        for _tag, registry in self.registries:
            seen.update(registry.subsystems())
        return sorted(seen)


class WorkerSimTelemetry:
    """Picklable stand-in for one simulator collected in a worker process.

    Exposes exactly the attributes :meth:`TelemetryHub.finish_run` reads
    off a live :class:`~repro.simcore.simulator.Simulator` — ``metrics``,
    ``tracer`` (with the spans of a traced run) and the
    :data:`SIM_GAUGES` — so absorbed worker simulators and
    parent-process simulators merge identically.
    """

    __slots__ = ("metrics", "tracer", *SIM_GAUGES)

    def __init__(self, sim: Any) -> None:
        self.metrics = sim.metrics
        self.tracer = sim.tracer
        for name in SIM_GAUGES:
            setattr(self, name, getattr(sim, name))


class TelemetryHub:
    """Process-wide collection point for experiment runs."""

    def __init__(self) -> None:
        self.active = False
        #: the active run's ``cProfile.Profile`` (None unless profiling)
        self._profiler: Any = None
        #: profile totals that workers shipped home during the run
        self._profile_totals: ProfileTotals = {}
        self._started_at = 0.0
        self._trace = False
        self._sims: List[Any] = []
        self._shared = MetricsRegistry()
        self._worker_shared: List[MetricsRegistry] = []
        self._lifecycle: Optional[RunnerLifecycle] = None
        self._shard_stats: List[dict] = []

    @property
    def registry(self) -> MetricsRegistry:
        """The ambient registry for sim-less components during a run."""
        return self._shared

    @property
    def lifecycle(self) -> Optional[RunnerLifecycle]:
        """The active run's runner-lifecycle log (None outside a run).

        ``parallel_map`` records fork/queue/exec/pickle/ship/merge
        timings here for the maps it fans over workers; its inline loop
        never touches it.
        """
        return self._lifecycle if self.active else None

    @property
    def profiling(self) -> bool:
        """True when the active run is profiled."""
        return self.active and self._profiler is not None

    @property
    def tracing(self) -> bool:
        """True when the active run arms a tracer on each simulator."""
        return self.active and self._trace

    # -- run lifecycle -----------------------------------------------------

    def start_run(self, profile: bool = False, trace: bool = False) -> None:
        """Begin collecting; simulators built from now on are adopted."""
        if self.active:
            raise RuntimeError("a telemetry run is already active")
        self.active = True
        self._trace = trace
        self._sims = []
        self._shared = MetricsRegistry()
        self._worker_shared = []
        self._lifecycle = RunnerLifecycle()
        self._shard_stats = []
        self._started_at = time.perf_counter()
        if profile:
            import cProfile  # only a profiled run pays for the import
            self._profiler = cProfile.Profile()
            self._profiler.enable()

    def adopt(self, sim: Any) -> None:
        """Called by every Simulator constructor; no-op outside a run."""
        if not self.active:
            return
        self._sims.append(sim)
        if self._trace and sim.tracer is None:
            sim.tracer = Tracer(max_events=_TRACE_CAPACITY)

    def note_shards(self, stats: List[dict]) -> None:
        """Record per-shard stats from a ShardedSimulator; no-op outside
        a run. Called once per sharded run (an experiment with several
        arms notes once per arm)."""
        if self.active:
            self._shard_stats.extend(stats)

    def finish_run(self) -> RunTelemetry:
        """Stop collecting and return everything gathered."""
        if not self.active:
            raise RuntimeError("no telemetry run is active")
        totals = self._stop_profile()
        wall_s = time.perf_counter() - self._started_at
        self.active = False
        registries: List[Tuple[str, MetricsRegistry]] = []
        tracers: List[Tuple[str, Any]] = []
        gauges = dict.fromkeys(SIM_GAUGES, 0)
        for index, sim in enumerate(self._sims):
            tag = f"s{index}"
            registries.append((tag, sim.metrics))
            if sim.tracer is not None:
                tracers.append((tag, sim.tracer))
            for name, fold in SIM_GAUGES.items():
                gauges[name] = fold(gauges[name], getattr(sim, name))
        if len(self._shared):
            registries.append(("shared", self._shared))
        for index, registry in enumerate(self._worker_shared):
            registries.append((f"shared-w{index}", registry))
        lifecycle = self._lifecycle or RunnerLifecycle()
        if len(lifecycle.registry):
            # tagged "runner" so byte-identity checks can exclude the one
            # family that legitimately differs between serial and --jobs
            registries.append(("runner", lifecycle.registry))
        shard_stats = self._shard_stats
        self._clear()
        return RunTelemetry(
            registries, tracers,
            None if totals is None else _profile_rows(totals), gauges,
            wall_s=wall_s, lifecycle=lifecycle, shard_stats=shard_stats)

    def abort_run(self) -> None:
        """Drop an active run without collecting (test cleanup, and a
        forked worker's copy of its parent's run)."""
        self._stop_profile()
        self._clear()

    def _stop_profile(self) -> Optional[ProfileTotals]:
        """Switch the run's profiler off; the run's folded profile (its
        own and what workers shipped), or None if it is not profiled."""
        profiler = self._profiler
        if profiler is None:
            return None
        profiler.disable()
        self._profiler = None
        _fold_profile(profiler, self._profile_totals)
        return self._profile_totals

    def _clear(self) -> None:
        self.active = False
        self._sims = []
        self._worker_shared = []
        self._lifecycle = None
        self._shard_stats = []
        self._profile_totals = {}

    @contextlib.contextmanager
    def task(self) -> Iterator[None]:
        """Bracket one task run in this process as a worker brackets it;
        a no-op outside a run.

        The task records sim-less components into a fresh shared
        registry. When it returns, the simulators it built are swapped
        for what a worker ships home for them (their readings and
        traces stay, their graphs go), so that nothing it built is
        alive at the next release point, and its shared registry, if
        non-empty, joins the per-task list where
        :meth:`absorb_worker_run` puts a worker's. The outer shared
        registry is restored either way.
        """
        if not self.active:
            yield
            return
        start, outer = len(self._sims), self._shared
        self._shared = MetricsRegistry()
        try:
            yield
            for index in range(start, len(self._sims)):
                sim = self._sims[index]
                sim.metrics.detach()
                self._sims[index] = WorkerSimTelemetry(sim)
            if len(self._shared):
                self._worker_shared.append(self._shared)
        finally:
            self._shared = outer

    # -- worker shipping (see repro.runner.worker) -------------------------

    def export_worker_run(self) -> dict:
        """Harvest this (worker-side) run into a picklable payload.

        Ends the run: the worker collected telemetry only to ship it
        home. A traced run's finished spans travel in the tracers.
        """
        if not self.active:
            raise RuntimeError("no telemetry run is active")
        payload = {
            "profile": self._stop_profile(),
            "sims": [WorkerSimTelemetry(sim) for sim in self._sims],
            "shared": self._worker_shared + (
                [self._shared] if len(self._shared) else []),
            "shards": self._shard_stats,
        }
        self._clear()
        return payload

    def absorb_worker_run(self, payload: dict) -> None:
        """Splice a worker payload into the active run, in call order.

        Each shipped simulator joins ``_sims`` exactly where a locally
        built one would have, so tags and exports come out in the same
        order as a serial run; the worker's profile adds to the run's.
        """
        if not self.active:
            return
        for key, totals in (payload["profile"] or {}).items():
            _add_totals(self._profile_totals, key, *totals)
        self._sims.extend(payload["sims"])
        self._worker_shared.extend(payload["shared"])
        self._shard_stats.extend(payload.get("shards", ()))


#: The process-wide hub every Simulator announces itself to.
HUB = TelemetryHub()


def ambient_registry() -> MetricsRegistry:
    """Registry for components with no simulator of their own."""
    return HUB.registry if HUB.active else _DEFAULT_REGISTRY
