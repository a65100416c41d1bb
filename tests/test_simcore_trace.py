"""Unit tests for the event tracer (repro.simcore.trace)."""

import pytest

from repro.core import DLTENetwork
from repro.simcore import Simulator, TraceEvent, Tracer
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
    assert len(sim.tracer) == 2
    cats = sim.tracer.events("cat")
    assert len(cats) == 1
    assert cats[0].time_s == 1.0
    assert cats[0].fields == {"n": 1}
    assert sim.tracer.categories() == ["cat", "dog"]


def test_time_window_query():
    tracer = Tracer()
    for t in (1.0, 2.0, 3.0, 4.0):
        tracer.record(t, "x", "tick")
    assert len(tracer.events(since_s=2.0, until_s=3.0)) == 2


def test_category_filter():
    tracer = Tracer(categories=["keep"])
    tracer.record(0.0, "keep", "yes")
    tracer.record(0.0, "drop", "no")
    assert tracer.count() == 1
    assert tracer.recorded == 1
    assert tracer.filtered == 1


def test_ring_buffer_bounds_memory():
    tracer = Tracer(max_events=10)
    for i in range(100):
        tracer.record(float(i), "x", f"event{i}")
    assert len(tracer) == 10
    assert tracer.events()[0].time_s == 90.0  # oldest dropped
    assert tracer.recorded == 100


def test_dump_renders_fields():
    tracer = Tracer()
    tracer.record(1.5, "attach", "session created", ue="ue3")
    text = tracer.dump()
    assert "attach" in text and "session created" in text and "ue=ue3" in text


def test_clear():
    tracer = Tracer()
    tracer.record(0.0, "x", "a")
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.recorded == 1  # counters survive


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
    assert len(tracer) == 5
    assert tracer.events()[0].time_s == 0.0  # nothing evicted yet
    tracer.record(5.0, "x", "event5")        # one past capacity
    assert len(tracer) == 5
    assert tracer.events()[0].time_s == 1.0  # exactly the oldest dropped
    assert tracer.recorded == 6


def test_time_window_boundaries_inclusive():
    """since/until are closed bounds; events at the edges are included."""
    tracer = Tracer()
    for t in (1.0, 2.0, 3.0):
        tracer.record(t, "x", "tick")
    assert [e.time_s for e in tracer.events(since_s=2.0)] == [2.0, 3.0]
    assert [e.time_s for e in tracer.events(until_s=2.0)] == [1.0, 2.0]
    assert [e.time_s
            for e in tracer.events(since_s=2.0, until_s=2.0)] == [2.0]
    assert tracer.events(since_s=3.0, until_s=1.0) == []


def test_filtered_counter_tracks_every_rejection():
    tracer = Tracer(categories=["keep"])
    for i in range(7):
        tracer.record(float(i), "drop", "no")
    tracer.record(7.0, "keep", "yes")
    assert tracer.filtered == 7
    assert tracer.recorded == 1


def test_clear_keeps_filter_counters():
    tracer = Tracer(categories=["keep"])
    tracer.record(0.0, "keep", "a")
    tracer.record(0.0, "drop", "b")
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.recorded == 1 and tracer.filtered == 1
    tracer.record(1.0, "drop", "c")  # the filter itself survives clear()
    assert tracer.filtered == 2


def test_jsonl_round_trip(tmp_path):
    tracer = Tracer()
    tracer.record(1.0, "attach", "session created", ue="ue3", n=2)
    tracer.record(2.5, "drop", "link x: overflow")
    path = str(tmp_path / "trace.jsonl")
    assert tracer.to_jsonl(path) == 2
    reloaded = Tracer.from_jsonl(path)
    assert len(reloaded) == 2
    original, loaded = tracer.events(), reloaded.events()
    for before, after in zip(original, loaded):
        assert after.time_s == before.time_s
        assert after.category == before.category
        assert after.message == before.message
    assert loaded[0].fields == {"ue": "ue3", "n": 2}


def test_jsonl_reload_applies_category_filter(tmp_path):
    tracer = Tracer()
    tracer.record(1.0, "keep", "a")
    tracer.record(2.0, "drop", "b")
    path = str(tmp_path / "trace.jsonl")
    tracer.to_jsonl(path)
    narrowed = Tracer.from_jsonl(path, categories=["keep"])
    assert narrowed.count() == 1
    assert narrowed.filtered == 1


def test_jsonl_skips_non_trace_lines(tmp_path):
    path = tmp_path / "mixed.jsonl"
    path.write_text(
        '{"type": "span", "name": "epc.attach"}\n'
        '\n'
        '{"type": "trace", "time_s": 1.0, "category": "c", "message": "m"}\n')
    reloaded = Tracer.from_jsonl(str(path))
    assert len(reloaded) == 1
    assert reloaded.events()[0].category == "c"


def test_jsonl_stringifies_non_json_fields(tmp_path):
    class Opaque:
        def __str__(self):
            return "opaque-thing"

    tracer = Tracer()
    tracer.record(0.0, "x", "m", obj=Opaque())
    path = str(tmp_path / "trace.jsonl")
    tracer.to_jsonl(path)
    reloaded = Tracer.from_jsonl(path)
    assert reloaded.events()[0].fields == {"obj": "opaque-thing"}


def test_network_run_emits_protocol_traces():
    """The instrumented points fire during a real network run."""
    town = RuralTown(radius_m=1500, n_ues=4, n_aps=2, seed=2)
    net = DLTENetwork.build(town, seed=2)
    net.sim.tracer = Tracer()
    net.run(duration_s=3.0)
    assert net.sim.tracer.count("attach") == 4      # one per UE session
    assert net.sim.tracer.count("coordination") >= 2  # both APs installed
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
    path = str(tmp_path / "trace.jsonl")
    sim.tracer.to_jsonl(path)
    assert [e.message for e in Tracer.from_jsonl(path).events()] == [
        "late", "first", "tie"]
