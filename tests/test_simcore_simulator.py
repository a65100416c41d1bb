"""Unit tests for the discrete-event kernel (repro.simcore.simulator)."""

import pytest

from repro.simcore import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_advances_clock():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_run_fifo():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.schedule(1.0, order.append, label)
    sim.run()
    assert order == list("abcde")


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    ran = []
    sim.schedule(1.0, ran.append, 1)
    sim.schedule(10.0, ran.append, 10)
    sim.run(until=5.0)
    assert ran == [1]
    assert sim.now == 5.0
    # later event still queued; resuming picks it up
    sim.run()
    assert ran == [1, 10]
    assert sim.now == 10.0


def test_run_until_advances_clock_even_with_empty_queue():
    sim = Simulator()
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.at(1.0, lambda: None)


def test_cancelled_call_does_not_run():
    sim = Simulator()
    ran = []
    handle = sim.schedule(1.0, ran.append, "x")
    handle.cancel()
    sim.run()
    assert ran == []


def test_cancelling_a_call_that_already_ran_is_a_no_op():
    """A dispatched handle has left the heap, so cancelling it counts
    no cancelled entry: the live count stays exact (it decides whether
    a run arms the checker, when the heap compacts and when the
    invariant sweep stops)."""
    sim = Simulator()
    ran = []
    handle = sim.schedule(0.0, ran.append, "x")
    sim.run()
    handle.cancel()
    assert ran == ["x"]
    assert sim.live_queue_length == 0
    sim.schedule(1.0, ran.append, "y")
    assert sim.live_queue_length == 1
    sim.run()
    assert ran == ["x", "y"]
    assert sim.live_queue_length == 0


def test_call_soon_runs_after_pending_same_time_work():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.call_soon(order.append, "soon")

    sim.schedule(1.0, first)
    sim.schedule(1.0, order.append, "second")
    sim.run()
    assert order == ["first", "second", "soon"]


def test_callbacks_can_schedule_more_work():
    sim = Simulator()
    times = []

    def tick():
        times.append(sim.now)
        if sim.now < 5:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    sim.run()
    assert times == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_max_events_budget():
    sim = Simulator()
    count = []
    for i in range(100):
        sim.schedule(i * 0.1, count.append, i)
    sim.run(max_events=10)
    assert len(count) == 10


def test_events_executed_counter():
    sim = Simulator()
    for i in range(7):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_executed == 7


def test_reentrant_run_rejected():
    sim = Simulator()

    def nested():
        with pytest.raises(RuntimeError):
            sim.run()

    sim.schedule(1.0, nested)
    sim.run()


def test_determinism_same_seed_same_draws():
    a = Simulator(seed=42).rng("traffic").random(5)
    b = Simulator(seed=42).rng("traffic").random(5)
    assert (a == b).all()


def test_rng_streams_independent_of_creation_order():
    sim1 = Simulator(seed=7)
    x1 = sim1.rng("a").random()
    y1 = sim1.rng("b").random()
    sim2 = Simulator(seed=7)
    y2 = sim2.rng("b").random()
    x2 = sim2.rng("a").random()
    assert x1 == x2
    assert y1 == y2


def test_rng_different_names_differ():
    sim = Simulator(seed=3)
    assert sim.rng("one").random() != sim.rng("two").random()
