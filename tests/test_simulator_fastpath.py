"""The uninstrumented dispatch path makes zero telemetry calls.

Guards the simcore fast path: with no tracer and no metrics consumers,
`Simulator.run` must not touch the telemetry object at all — per-event
cost is heap-pop plus callback, nothing else — and a profiled run
(`HUB.start_run(profile=True)`) dispatches through the same loop.
"""

from repro.simcore.simulator import Simulator
from repro.telemetry import HUB


class CountingProxy:
    """Wraps an object and counts every attribute access on it."""

    def __init__(self, inner):
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "calls", 0)

    def __getattr__(self, name):
        object.__setattr__(self, "calls", self.calls + 1)
        return getattr(self._inner, name)


def test_uninstrumented_dispatch_makes_zero_telemetry_calls():
    sim = Simulator(0)
    proxy = CountingProxy(sim.telemetry)
    sim.telemetry = proxy
    fired = [0]

    def tick():
        fired[0] += 1

    for i in range(1000):
        sim.schedule(i * 1e-4, tick)
    sim.run()

    assert fired[0] == 1000
    assert sim.events_executed == 1000
    assert proxy.calls == 0


def test_uninstrumented_step_makes_zero_telemetry_calls():
    sim = Simulator(0)
    proxy = CountingProxy(sim.telemetry)
    sim.telemetry = proxy
    sim.schedule(0.001, lambda: None)
    sim.schedule(0.002, lambda: None)
    sim.run(max_events=1)
    assert sim.events_executed == 1
    assert proxy.calls == 0


def test_trace_is_noop_without_observers():
    sim = Simulator(0)
    proxy = CountingProxy(sim.telemetry)
    sim.telemetry = proxy
    sim.trace("mac", "should vanish", detail=1)
    assert proxy.calls == 0


class CountingTracer:
    def __init__(self):
        self.records = 0

    def record(self, *args, **kwargs):
        self.records += 1


def test_trace_records_only_while_a_tracer_is_set():
    sim = Simulator(0)
    assert sim.tracer is None
    tracer = CountingTracer()
    sim.tracer = tracer
    sim.trace("mac", "kept")
    assert tracer.records == 1
    sim.tracer = None
    sim.trace("mac", "dropped")
    assert tracer.records == 1


def test_profiled_run_still_counts_events():
    HUB.start_run(profile=True)
    try:
        sim = Simulator(0)
        proxy = CountingProxy(sim.telemetry)
        sim.telemetry = proxy
        for i in range(100):
            sim.schedule(i * 1e-3, lambda: None)
        sim.run()
        # profiling is the hub's: the dispatch loop makes no telemetry call
        assert proxy.calls == 0
    finally:
        run = HUB.finish_run()
    assert sim.events_executed == 100
    assert run.events_executed == 100
