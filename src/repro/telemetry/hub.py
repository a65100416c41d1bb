"""The telemetry hub: collect everything one experiment run produced.

Experiments build their own simulators internally (E16 builds two, one
per architecture arm), so the CLI cannot thread a registry through every
``run()`` signature. Instead, every :class:`Simulator` announces itself
to the process-wide :data:`HUB` at construction. While no run is active
that is a single flag check; when the CLI (or a test) brackets an
experiment with :meth:`TelemetryHub.start_run` / :meth:`finish_run`, the
hub keeps a reference to each simulator born in between, optionally
arms a profiler and a tracer on each, and at the end hands back one
:class:`RunTelemetry` with every registry, span tracker, tracer, and a
merged profile.

Components that have no simulator (a :class:`Cell` driven by explicit
TTI calls, a :class:`CsmaSimulation` run) record into the
*ambient* registry — the hub's shared registry during a run, a
process-global default otherwise — unless handed an explicit one.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.simcore.trace import Tracer
from repro.telemetry.lifecycle import RunnerLifecycle
from repro.telemetry.profiler import RunProfiler
from repro.telemetry.registry import MetricsRegistry

__all__ = ["HUB", "SIM_GAUGES", "TelemetryHub", "RunTelemetry",
           "WorkerSimTelemetry", "ambient_registry", "tagged_rows"]

#: Fallback registry for sim-less components outside any hub run.
_DEFAULT_REGISTRY = MetricsRegistry()

#: The passive gauges every Simulator keeps as plain int attributes, and
#: how a run folds each across its simulators (``max`` for a high-water
#: mark, ``add`` for a count). :class:`RunTelemetry` carries the folded
#: value, :class:`WorkerSimTelemetry` ships the per-simulator one home
#: and the flight recorder dumps it, all under the same name.
SIM_GAUGES: Dict[str, Callable[[int, int], int]] = {
    "heap_high_water": max,        # largest run-queue footprint
    "agent_peak_queue": max,       # deepest control-agent queue
    "agents_shed": operator.add,   # control messages shed under overload
    "link_peak_queue": max,        # deepest link egress queue
    "ecn_marks": operator.add,     # ECN CE-marks applied by AQM
}


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
                 span_trackers: List[Tuple[str, Any]],
                 tracers: List[Tuple[str, Any]],
                 profiler: Optional[RunProfiler],
                 gauges: Dict[str, int],
                 lifecycle: Optional[RunnerLifecycle] = None,
                 shard_stats: Optional[List[dict]] = None) -> None:
        self.registries = registries
        self.span_trackers = span_trackers
        self.tracers = tracers
        self.profiler = profiler
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
    off a live :class:`~repro.simcore.simulator.Simulator` — ``telemetry``
    (metrics + spans), ``tracer``, ``profiler`` — so absorbed worker
    simulators and parent-process simulators merge identically.
    """

    __slots__ = ("telemetry", "tracer", "profiler", *SIM_GAUGES)

    def __init__(self, sim: Any) -> None:
        self.telemetry = sim.telemetry
        self.tracer = sim.tracer
        self.profiler = sim.profiler
        for name in SIM_GAUGES:
            setattr(self, name, getattr(sim, name))


class TelemetryHub:
    """Process-wide collection point for experiment runs."""

    def __init__(self) -> None:
        self.active = False
        self._profile = False
        self._trace = False
        self._trace_capacity = 1_000_000
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

        The parallel runners record fork/queue/exec/pickle/ship/merge
        timings here; serial paths never touch it.
        """
        return self._lifecycle if self.active else None

    @property
    def profiling(self) -> bool:
        """True when the active run arms a profiler on each simulator."""
        return self.active and self._profile

    @property
    def tracing(self) -> bool:
        """True when the active run arms a tracer on each simulator."""
        return self.active and self._trace

    # -- run lifecycle -----------------------------------------------------

    def start_run(self, profile: bool = False, trace: bool = False,
                  trace_capacity: int = 1_000_000) -> None:
        """Begin collecting; simulators built from now on are adopted."""
        if self.active:
            raise RuntimeError("a telemetry run is already active")
        self.active = True
        self._profile = profile
        self._trace = trace
        self._trace_capacity = trace_capacity
        self._sims = []
        self._shared = MetricsRegistry()
        self._worker_shared = []
        self._lifecycle = RunnerLifecycle()
        self._shard_stats = []

    def adopt(self, sim: Any) -> None:
        """Called by every Simulator constructor; no-op outside a run."""
        if not self.active:
            return
        self._sims.append(sim)
        if self._profile and sim.profiler is None:
            sim.profiler = RunProfiler()
        if self._trace and sim.tracer is None:
            sim.tracer = Tracer(max_events=self._trace_capacity)

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
        self.active = False
        registries: List[Tuple[str, MetricsRegistry]] = []
        span_trackers: List[Tuple[str, Any]] = []
        tracers: List[Tuple[str, Any]] = []
        profiler: Optional[RunProfiler] = \
            RunProfiler() if self._profile else None
        gauges = dict.fromkeys(SIM_GAUGES, 0)
        for index, sim in enumerate(self._sims):
            tag = f"s{index}"
            registries.append((tag, sim.telemetry.metrics))
            span_trackers.append((tag, sim.telemetry.spans))
            if sim.tracer is not None:
                tracers.append((tag, sim.tracer))
            if profiler is not None and sim.profiler is not None:
                profiler.merge(sim.profiler)
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
        self._sims = []
        self._worker_shared = []
        self._lifecycle = None
        self._shard_stats = []
        return RunTelemetry(registries, span_trackers, tracers, profiler,
                            gauges, lifecycle=lifecycle,
                            shard_stats=shard_stats)

    def abort_run(self) -> None:
        """Drop an active run without collecting (test cleanup)."""
        self.active = False
        self._sims = []
        self._worker_shared = []
        self._lifecycle = None
        self._shard_stats = []

    # -- worker shipping (see repro.runner.parallel) -----------------------

    def export_worker_run(self) -> dict:
        """Harvest this (worker-side) run into a picklable payload.

        Ends the run: the worker collected telemetry only to ship it
        home. Span trackers drop their clock closure in transit (see
        ``SpanTracker.__getstate__``); finished spans travel intact.
        """
        if not self.active:
            raise RuntimeError("no telemetry run is active")
        payload = {
            "sims": [WorkerSimTelemetry(sim) for sim in self._sims],
            "shared": self._shared if len(self._shared) else None,
            "shards": self._shard_stats,
        }
        self.active = False
        self._sims = []
        self._lifecycle = None
        self._shard_stats = []
        return payload

    def absorb_worker_run(self, payload: dict) -> None:
        """Splice a worker payload into the active run, in call order.

        Each shipped simulator joins ``_sims`` exactly where a locally
        built one would have, so tags, exports, and the merged profile
        come out in the same order as a serial run.
        """
        if not self.active:
            return
        self._sims.extend(payload["sims"])
        if payload["shared"] is not None:
            self._worker_shared.append(payload["shared"])
        self._shard_stats.extend(payload.get("shards", ()))


#: The process-wide hub every Simulator announces itself to.
HUB = TelemetryHub()


def ambient_registry() -> MetricsRegistry:
    """Registry for components with no simulator of their own."""
    return HUB.registry if HUB.active else _DEFAULT_REGISTRY
