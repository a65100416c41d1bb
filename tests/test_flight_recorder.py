"""Flight recorder: bounded event ring + post-mortem dumps.

The recorder is always on — every Simulator keeps a fixed-size ring of
its most recent dispatched events at O(1) per event with no steady-state
allocation — and the ring only *leaves* the process when something dies:
an invariant violation, a supervisor kill, or an unhandled experiment
exception each dump a structured JSON post-mortem. These tests cover the
ring semantics, the snapshot/dump format, the dump-directory resolution
order, and the three trigger paths end to end.
"""

import json
import os

import pytest

from repro.invariants import InvariantChecker, InvariantError
from repro.simcore import Simulator
from repro.telemetry import flightrec


def _nop() -> None:
    return None


def _tick() -> None:
    return None


# -- ring semantics -----------------------------------------------------------


def test_ring_records_recent_events_oldest_first():
    sim = Simulator(0)
    for i in range(5):
        sim.schedule(i * 0.5, _nop)
    sim.run()
    events = sim.flight_events()
    assert len(events) == 5
    assert [t for t, _ in events] == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert all(fn is _nop for _, fn in events)


def test_ring_wraps_keeping_only_the_tail():
    cap = flightrec.FLIGHT_CAPACITY
    sim = Simulator(0)
    n = cap + 17
    for i in range(n):
        sim.schedule(i * 1e-3, _tick if i >= n - cap else _nop)
    sim.run()
    events = sim.flight_events()
    assert len(events) == cap
    # the oldest surviving entry is event n-cap; order is oldest-first
    assert events[0][0] == pytest.approx((n - cap) * 1e-3)
    assert events[-1][0] == pytest.approx((n - 1) * 1e-3)
    assert all(fn is _tick for _, fn in events)


def test_ring_is_consistent_after_step_interleaved_with_run():
    sim = Simulator(0)
    for i in range(3):
        sim.schedule(i * 1.0, _nop)
    sim.step()  # record path outside the inlined run() loop
    sim.run()
    assert [t for t, _ in sim.flight_events()] == [0.0, 1.0, 2.0]


def test_empty_sim_has_no_flight_events():
    assert Simulator(0).flight_events() == []


# -- snapshot / dump format ---------------------------------------------------


def test_snapshot_is_json_ready_and_names_sites():
    sim = Simulator(0)
    for i in range(4):
        sim.schedule(i * 0.25, _nop)
    sim.run()
    snap = flightrec.snapshot_sim(sim)
    json.dumps(snap, default=str)  # must not raise
    assert snap["events_executed"] == 4
    assert snap["queue_length"] == 0
    sites = {e["site"] for e in snap["recent_events"]}
    assert sites == {f"{__name__}._nop"}


def test_snapshot_carries_all_five_simulator_gauges():
    """Link queue peak and ECN mark count included: the post-mortem of
    an overload run must show the data plane's state, not only the
    control plane's."""
    sim = Simulator(0)
    sim.schedule(0.0, _nop)
    sim.run()
    sim.agent_peak_queue, sim.agents_shed = 7, 3
    sim.link_peak_queue, sim.ecn_marks = 11, 5
    snap = flightrec.snapshot_sim(sim)
    assert {name: snap.get(name) for name in (
        "heap_high_water", "agent_peak_queue", "agents_shed",
        "link_peak_queue", "ecn_marks")} == {
        "heap_high_water": 1, "agent_peak_queue": 7, "agents_shed": 3,
        "link_peak_queue": 11, "ecn_marks": 5}


def test_write_postmortem_dump_parses_and_carries_extra(tmp_path):
    sim = Simulator(0)
    sim.schedule(0.0, _nop)
    sim.run()
    path = flightrec.write_postmortem(
        "unit-test", detail="forced", sims=[sim],
        extra={"task": {"label": "exp:E1"}})
    assert path is not None and os.path.exists(path)
    record = json.loads(open(path).read())
    assert record["type"] == "postmortem"
    assert record["reason"] == "unit-test"
    assert record["detail"] == "forced"
    assert record["task"] == {"label": "exp:E1"}
    assert len(record["sims"]) == 1
    assert record["sims"][0]["events_executed"] == 1


def test_postmortem_defaults_to_every_tracked_live_sim():
    a, b = Simulator(0), Simulator(1)
    a.schedule(0.0, _nop)
    a.run()
    path = flightrec.write_postmortem("unit-test")
    record = json.loads(open(path).read())
    # a and b are the youngest tracked sims, in construction order
    executed = [s["events_executed"] for s in record["sims"][-2:]]
    assert executed == [1, 0]
    del a, b


# -- dump-directory resolution ------------------------------------------------


def test_dump_dir_resolution_order(tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    env_dir.mkdir()
    monkeypatch.setenv("REPRO_POSTMORTEM_DIR", str(env_dir))
    assert flightrec.dump_dir() == str(env_dir)
    set_dir = tmp_path / "from-setter"
    set_dir.mkdir()
    flightrec.set_dump_dir(str(set_dir))
    try:
        # explicit setter (the --postmortem-dir flag) beats the env var
        assert flightrec.dump_dir() == str(set_dir)
        path = flightrec.write_postmortem("unit-test", sims=[])
        assert os.path.dirname(path) == str(set_dir)
    finally:
        flightrec.set_dump_dir(None)
    monkeypatch.delenv("REPRO_POSTMORTEM_DIR")
    assert flightrec.dump_dir() == "."  # cwd fallback


# -- trigger: invariant violation ---------------------------------------------


def test_invariant_violation_dumps_and_tags_the_error(tmp_path):
    sim = Simulator(0)
    checker = InvariantChecker(sim)
    checker.register("unit-law", "widget", lambda: ["it broke"])
    with pytest.raises(InvariantError) as excinfo:
        checker.verify()
    path = getattr(excinfo.value, "postmortem_path", None)
    assert path is not None and os.path.exists(path)
    record = json.loads(open(path).read())
    assert record["reason"] == "invariant-violation"
    assert record["violations"][0]["check"] == "unit-law"
    assert record["violations"][0]["detail"] == "it broke"
    # the dump names the watched simulator, not every live one
    assert len(record["sims"]) == 1


# -- trigger: unhandled experiment exception ----------------------------------


def test_experiment_exception_dumps_once_via_cli(tmp_path, monkeypatch):
    from repro.__main__ import main

    monkeypatch.setenv("REPRO_POSTMORTEM_DIR", str(tmp_path))
    with pytest.raises(TypeError):
        main(["E12", "--exp-arg", "no_such_kwarg=1"])
    dumps = [f for f in os.listdir(tmp_path)
             if f.startswith("postmortem-experiment-exception")]
    assert len(dumps) == 1
    record = json.loads(open(tmp_path / dumps[0]).read())
    assert record["experiment"] == "E12"
    assert "no_such_kwarg" in record["detail"]


# -- trigger: supervisor kill -------------------------------------------------


def _hangable(x: int) -> int:
    return x * x


def test_supervisor_hang_kill_writes_postmortems(tmp_path, monkeypatch):
    from repro.runner.supervisor import SupervisorReport, supervised_map

    pm_dir = tmp_path / "pm"
    pm_dir.mkdir()
    monkeypatch.setenv("REPRO_POSTMORTEM_DIR", str(pm_dir))
    monkeypatch.setenv("REPRO_CHAOS_PLAN", "job:0:hang")
    monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
    report = SupervisorReport()
    results = supervised_map(_hangable, [3, 4], jobs=2,
                             labels=["job:0", "job:1"],
                             task_timeout_s=2.0, retries=1, report=report)
    assert results == [9, 16]
    assert report.hangs == 1
    reasons = set()
    for name in os.listdir(pm_dir):
        record = json.loads(open(pm_dir / name).read())
        assert record["type"] == "postmortem"
        reasons.add(record["reason"])
    # the parent records the kill decision; the worker's SIGTERM handler
    # dumps its own last-events ring before exiting
    assert "supervisor-hang" in reasons
    assert "supervisor-kill" in reasons
