"""Unit tests for Event / Timeout / AnyOf (repro.simcore.events)."""

import pytest

from repro.simcore import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=0)


def test_event_starts_pending(sim):
    ev = sim.event()
    assert not ev.triggered
    assert ev.value is None


def test_succeed_delivers_value(sim):
    ev = sim.event()
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    ev.succeed(42)
    sim.run()
    assert got == [42]
    assert ev.triggered


def test_double_trigger_rejected(sim):
    ev = sim.event()
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()


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
    t = sim.timeout(3.5)
    fired_at = []
    t.add_callback(lambda e: fired_at.append(sim.now))
    sim.run()
    assert fired_at == [3.5]
    assert t.triggered


def test_timeout_negative_rejected(sim):
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_any_of_fires_on_first(sim):
    slow = sim.timeout(10)
    fast = sim.timeout(2)
    race = sim.any_of([slow, fast])
    winner = []
    race.add_callback(lambda e: winner.append((sim.now, e.value)))
    sim.run(until=3)
    assert winner == [(2, fast)]


def test_any_of_cancels_its_pending_timeouts(sim):
    outcome = sim.event()
    guard = sim.timeout(100)
    other = sim.event()
    race = sim.any_of([outcome, guard, other])
    sim.schedule(1, outcome.succeed, "done")
    sim.run()
    assert race.value is outcome
    # the guard timer left the queue with the race: the run drained at
    # t=1 instead of firing it for nobody at t=100
    assert sim.now == 1
    assert sim.live_queue_length == 0
    assert not guard.triggered
    assert not other.triggered  # a plain event is not the race's to cancel


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
