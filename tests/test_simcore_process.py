"""Unit tests for generator-based processes (repro.simcore.process)."""

import pytest

from repro.simcore import Event, Simulator


@pytest.fixture
def sim():
    return Simulator(seed=0)


def test_process_runs_and_returns(sim):
    log = []

    def worker():
        yield sim.timeout(1)
        yield sim.timeout(2)
        log.append("finished")
        return "ignored"

    sim.process(worker())
    sim.run()
    assert log == ["finished"]
    assert sim.now == 3


def test_process_receives_event_value(sim):
    ev = sim.event()
    got = []

    def worker():
        got.append((yield ev))

    sim.process(worker())
    sim.schedule(1, ev.succeed, "hello")
    sim.run()
    assert got == ["hello"]


def test_uncaught_exception_fails_process(sim):
    def worker():
        yield sim.timeout(1)
        raise RuntimeError("exploded")

    sim.process(worker())
    with pytest.raises(RuntimeError, match="exploded"):
        sim.run()
    assert sim.now == 1
    sim.schedule(1, lambda: None)
    sim.run()  # the failed run left the simulator able to run again
    assert sim.now == 2


def test_key_error_in_a_process_body_fails_the_run(sim):
    table = {}

    def lease_loop():
        yield sim.timeout(1)
        table["ap0"] += 1

    sim.process(lease_loop())
    sim.schedule(5, lambda: None)  # later work the run never reaches
    with pytest.raises(KeyError, match="ap0"):
        sim.run()
    assert sim.now == 1


def test_yielding_non_event_fails_process(sim):
    def worker():
        yield 42

    sim.process(worker())
    with pytest.raises(TypeError, match=r"worker.*yielded 42"):
        sim.run()


def test_a_process_is_not_an_event(sim):
    def child():
        yield sim.timeout(2)

    def parent():
        yield sim.process(child())

    assert not isinstance(sim.process(child()), Event)
    sim.process(parent())
    with pytest.raises(TypeError, match="parent"):
        sim.run()


def test_process_waiting_on_any_of(sim):
    quick = sim.timeout(1)
    got = []

    def worker():
        got.append((yield sim.any_of([sim.timeout(5), quick])))

    sim.process(worker())
    sim.run(until=2)
    assert got == [quick]


def test_many_processes_interleave_deterministically(sim):
    log = []

    def worker(name, period):
        for _ in range(3):
            yield sim.timeout(period)
            log.append((sim.now, name))

    sim.process(worker("a", 1.0))
    sim.process(worker("b", 1.5))
    sim.run()
    # At t=3.0 both fire; b's timeout was scheduled first (at t=1.5, before
    # a's at t=2.0) so FIFO ordering puts b ahead.
    assert log == [(1.0, "a"), (1.5, "b"), (2.0, "a"), (3.0, "b"),
                   (3.0, "a"), (4.5, "b")]
