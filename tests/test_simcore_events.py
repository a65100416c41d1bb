"""Unit tests for Event / Timeout / AnyOf (repro.simcore.events)."""

import pytest

from repro.simcore import EventCancelled, Simulator


@pytest.fixture
def sim():
    return Simulator(seed=0)


def test_event_starts_pending(sim):
    ev = sim.event("e")
    assert not ev.triggered
    assert not ev.ok


def test_succeed_delivers_value(sim):
    ev = sim.event()
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    ev.succeed(42)
    sim.run()
    assert got == [42]
    assert ev.ok and ev.triggered


def test_fail_delivers_exception(sim):
    ev = sim.event()
    boom = RuntimeError("boom")
    ev.fail(boom)
    sim.run()
    assert ev.triggered and not ev.ok
    assert ev.exception is boom


def test_fail_requires_exception_instance(sim):
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_double_trigger_rejected(sim):
    ev = sim.event()
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_cancel_is_idempotent(sim):
    ev = sim.event()
    ev.cancel()
    ev.cancel()  # no raise
    assert ev.triggered and not ev.ok
    assert isinstance(ev.exception, EventCancelled)


def test_callback_after_trigger_still_runs(sim):
    ev = sim.event()
    ev.succeed("v")
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    sim.run()
    assert got == ["v"]


def test_callbacks_never_run_synchronously(sim):
    ev = sim.event()
    got = []
    ev.add_callback(lambda e: got.append(1))
    ev.succeed()
    assert got == []  # deferred until the loop runs
    sim.run()
    assert got == [1]


def test_timeout_fires_at_right_time(sim):
    t = sim.timeout(3.5, value="done")
    fired_at = []
    t.add_callback(lambda e: fired_at.append(sim.now))
    sim.run()
    assert fired_at == [3.5]
    assert t.value == "done"


def test_timeout_negative_rejected(sim):
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_any_of_fires_on_first(sim):
    slow = sim.timeout(10, "slow")
    fast = sim.timeout(2, "fast")
    race = sim.any_of([slow, fast])
    winner = []
    race.add_callback(lambda e: winner.append((sim.now, e.value.value)))
    sim.run(until=3)
    assert winner == [(2, "fast")]


def test_any_of_propagates_failure(sim):
    ev = sim.event()
    race = sim.any_of([ev, sim.timeout(100)])
    ev.fail(ValueError("bad"))
    sim.run(until=1)
    assert race.triggered and not race.ok
    assert isinstance(race.exception, ValueError)


def test_any_of_empty_rejected(sim):
    with pytest.raises(ValueError):
        sim.any_of([])


def test_multiple_waiters_all_notified(sim):
    ev = sim.event()
    got = []
    for i in range(5):
        ev.add_callback(lambda e, i=i: got.append(i))
    ev.succeed()
    sim.run()
    assert got == [0, 1, 2, 3, 4]
