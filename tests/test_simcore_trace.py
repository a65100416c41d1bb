"""Unit tests for the event tracer (repro.simcore.trace)."""

import json

import pytest

from repro.core import DLTENetwork
from repro.simcore import Simulator, TraceEvent, Tracer
from repro.telemetry.exporters import write_events_jsonl
from repro.workloads import RuralTown


def test_trace_noop_without_tracer():
    sim = Simulator(0)
    sim.trace("anything", "goes nowhere", x=1)  # must not raise


def test_record_and_query():
    sim = Simulator(0)
    sim.tracer = Tracer()
    sim.schedule(1.0, lambda: sim.trace("cat", "hello", n=1))
    sim.schedule(2.0, lambda: sim.trace("dog", "world"))
    sim.run()
    assert len(sim.tracer.events()) == 2
    cats = sim.tracer.events("cat")
    assert len(cats) == 1
    assert cats[0].time_s == 1.0
    assert cats[0].fields == {"n": 1}
    assert [e.category for e in sim.tracer.events()] == ["cat", "dog"]


def test_events_query_filters_by_category():
    """A tracer records every category; a reader picks one."""
    tracer = Tracer()
    tracer.record(0.0, "keep", "yes")
    tracer.record(0.0, "drop", "no")
    assert [e.message for e in tracer.events("keep")] == ["yes"]
    assert tracer.recorded == 2


def test_ring_buffer_bounds_memory():
    tracer = Tracer(max_events=10)
    for i in range(100):
        tracer.record(float(i), "x", f"event{i}")
    assert len(tracer.events()) == 10
    assert tracer.events()[0].time_s == 90.0  # oldest dropped
    assert tracer.recorded == 100


def test_validates():
    with pytest.raises(ValueError):
        Tracer(max_events=0)


def test_event_is_frozen():
    event = TraceEvent(1.0, "c", "m")
    with pytest.raises(Exception):
        event.time_s = 2.0


def test_eviction_exactly_at_capacity():
    """The ring buffer holds exactly max_events before evicting."""
    tracer = Tracer(max_events=5)
    for i in range(5):
        tracer.record(float(i), "x", f"event{i}")
    assert len(tracer.events()) == 5
    assert tracer.events()[0].time_s == 0.0  # nothing evicted yet
    tracer.record(5.0, "x", "event5")        # one past capacity
    assert len(tracer.events()) == 5
    assert tracer.events()[0].time_s == 1.0  # exactly the oldest dropped
    assert tracer.recorded == 6


def _exported(tracer, path):
    """The trace lines ``--trace-out``'s writer puts in ``path``."""
    assert write_events_jsonl(str(path), tracers=[("s", tracer)]) == \
        len(tracer.events())
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_jsonl_round_trip(tmp_path):
    tracer = Tracer()
    tracer.record(1.0, "attach", "session created", ue="ue3", n=2)
    tracer.record(2.5, "drop", "link x: overflow")
    loaded = _exported(tracer, tmp_path / "trace.jsonl")
    assert len(loaded) == 2
    for before, after in zip(tracer.events(), loaded):
        assert after["type"] == "trace" and after["sim"] == "s"
        assert after["time_s"] == before.time_s
        assert after["category"] == before.category
        assert after["message"] == before.message
    assert loaded[0]["fields"] == {"ue": "ue3", "n": 2}


def test_jsonl_stringifies_non_json_fields(tmp_path):
    class Opaque:
        def __str__(self):
            return "opaque-thing"

    tracer = Tracer()
    tracer.record(0.0, "x", "m", obj=Opaque())
    loaded = _exported(tracer, tmp_path / "trace.jsonl")
    assert loaded[0]["fields"] == {"obj": "opaque-thing"}


def test_network_run_emits_protocol_traces():
    """The instrumented points fire during a real network run."""
    town = RuralTown(radius_m=1500, n_ues=4, n_aps=2, seed=2)
    net = DLTENetwork.build(town, seed=2)
    net.sim.tracer = Tracer()
    net.run(duration_s=3.0)
    assert len(net.sim.tracer.events("attach")) == 4  # one per UE session
    assert len(net.sim.tracer.events("coordination")) >= 2  # both APs
    for event in net.sim.tracer.events("attach"):
        assert "address" in event.fields


def test_backdated_records_are_read_in_time_order(tmp_path):
    """sim.trace(at=) stamps a lazily reached verdict with its own
    instant; readers and the JSONL export see one time-ordered trace,
    arrival order kept within an instant."""
    sim = Simulator()
    sim.tracer = Tracer()
    sim.schedule(1.0, sim.trace, "x", "first")
    sim.schedule(2.0, sim.trace, "x", "late", 0.5)
    sim.schedule(2.0, sim.trace, "x", "tie", 1.0)
    sim.run()
    assert [(e.time_s, e.message) for e in sim.tracer.events()] == [
        (0.5, "late"), (1.0, "first"), (1.0, "tie")]
    loaded = _exported(sim.tracer, tmp_path / "trace.jsonl")
    assert [e["message"] for e in loaded] == ["late", "first", "tie"]
