"""What is audited is decided where it is built — counted, not timed.

While :func:`repro.invariants.armed` is on, every new simulator carries
a checker and each class that has a law hands itself over in its
constructor. These tests hold the edges of that: the two coverage holes
the topology walker had (E16's recovery links, the X2 endpoints), the
sweep that must let a simulator drain, the small traps registration
exposed, what an unarmed run pays (nothing), and that a violation in a
``--jobs`` cell or a fork shard comes home as that task's failure.
"""

import gc
import os
import sys

import pytest

from repro.__main__ import main
from repro.epc.agents import ControlAgent
from repro.epc.subscriber import make_profile
from repro.epc.ue import UeState, UserEquipment
from repro.experiments import e7_core_scaling, e16_resilience
from repro.invariants import InvariantChecker, InvariantError, armed
from repro.net.links import Link
from repro.net.nodes import Router
from repro.net.packet import Packet
from repro.runner import WorkerTaskError, set_jobs
from repro.runner.shardpool import ShardWorkerError
from repro.simcore.simulator import Simulator
from tests.callback_agent import CallbackAgent


# -- coverage: the holes the walker had --------------------------------------

def test_armed_e16_watches_every_link_and_agent_it_builds(monkeypatch):
    """The walker ran once, after ``build``: it saw 78 of E16's 90 links
    (the 12 built when the crashed AP's clients reconnect were never
    watched) and 37 of its 40 agents (no X2 endpoint)."""
    built = {Link: [], ControlAgent: []}
    for cls, log in built.items():
        def recording_init(self, *args, _init=cls.__init__, _log=log, **kw):
            _init(self, *args, **kw)
            _log.append(self)
        monkeypatch.setattr(cls, "__init__", recording_init)
    with armed() as audit:
        e16_resilience.run()
        watched = {"link-conservation": 0, "agent-conservation": 0}
        for checker in audit:
            for law, _subject, _fn in checker._checks:
                if law in watched:
                    watched[law] += 1
        # the sweep kept the parent's grid: an armed E16 executes exactly
        # the events the walker-armed E16 did (dLTE arm, centralized arm)
        assert [c.sim.events_executed for c in audit] == [4295, 7080]
    assert len(built[Link]) == watched["link-conservation"] == 90
    assert len(built[ControlAgent]) == watched["agent-conservation"] == 40


# -- the sweep must let a simulator drain ------------------------------------

def test_bare_run_of_an_armed_simulator_returns_at_the_last_event():
    with armed():
        sim = Simulator(1)
        fired = []
        sim.schedule(1.0, fired.append, "real")
        assert sim.run() == 1.0         # the parent never returned
        assert fired == ["real"]
        assert sim.queue_length == 0    # nothing left behind, sweep included
        assert sim.checker.checks_run == 2      # clock law at 0.5 and 1.0


def test_hand_armed_checker_lets_the_queue_drain_too():
    sim = Simulator(1)
    checker = InvariantChecker(sim)
    checker.watch_clock()
    checker.arm()
    sim.schedule(1.0, lambda: None)
    sim.run(max_events=100_000)         # parent: stopped at t = 24,999.5 s
    assert sim.now == 1.0 and sim.queue_length == 0
    checker.verify()


def test_a_sweep_that_stopped_resumes_with_the_work_and_only_once():
    with armed():
        sim = Simulator(1)
        sim.run()                       # nothing to audit: nothing armed
        assert sim.now == 0.0 and sim.events_executed == 0
        sim.schedule(1.0, lambda: None)
        sim.run()
        stopped_at = sim.events_executed
        assert not sim.checker._sweeping
        sim.run()                       # still nothing to do
        assert (sim.now, sim.events_executed) == (1.0, stopped_at)
        # new work: one sweep rides it (start + two events per tick),
        # however many run() calls drive it
        sim.schedule(1.0, lambda: None)
        sim.run(max_events=1)
        sim.run()
        assert sim.now == 2.0
        assert sim.events_executed == 2 * stopped_at
        assert sim.checker.checks_run == 4


def test_under_a_horizon_the_sweep_keeps_its_grid():
    with armed():
        sim = Simulator(1)
        sim.schedule(0.2, lambda: None)
        sim.run(until=3.0)
        assert sim.checker.checks_run == 6      # 0.5 .. 3.0, idle or not
        sim.run(until=4.0)
        assert sim.checker.checks_run == 8


# -- the traps registration exposed ------------------------------------------

def test_tunnel_endpoints_is_a_field_not_a_hasattr():
    checker = InvariantChecker(Simulator(0))
    assert checker._tunnel_endpoints == []
    assert "gtp-conservation" not in [law for law, _s, _f in checker._checks]


def test_a_second_state_observer_chains_instead_of_vanishing():
    sim = Simulator(0)
    ue = UserEquipment(sim, make_profile("999010000000001"), name="ue0")
    heard = []
    ue._state_observer = lambda subject, old, new: heard.append((old, new))
    checker = InvariantChecker(sim)
    checker.watch_ue(ue)
    ue.state = UeState.ATTACHED         # IDLE -> ATTACHED: illegal
    assert heard == [(UeState.IDLE, UeState.ATTACHED)]
    assert [v.check for v in checker.violations] == ["nas-legality"]


def test_a_simulator_double_that_skipped_init_is_unarmed():
    """Decided once, on the class: no component needs a getattr."""
    double = Simulator.__new__(Simulator)
    assert double.checker is None
    with armed():
        assert Simulator.__new__(Simulator).checker is None
        assert Simulator(0).checker is not None
    assert Simulator(0).checker is None and Simulator.arming is None


def test_a_scope_that_raises_verifies_nothing():
    with pytest.raises(KeyError):
        with armed():
            link = Link(Simulator(0), 1e6, 0.0, name="leaky")
            link.delivered += 1         # would be a violation
            raise KeyError("the task failed for another reason")
    assert Simulator.arming is None


# -- count gate: unarmed pays nothing, armed pays per sweep ------------------

def _calls_into_invariants(fn):
    """Python frames entered in ``repro/invariants/`` while ``fn`` runs."""
    marker = os.sep + os.path.join("repro", "invariants") + os.sep
    count = 0
    gc.collect()    # an earlier test's parked sweep generator closes here

    def profiler(frame, event, arg):
        nonlocal count
        if event == "call" and marker in frame.f_code.co_filename:
            count += 1

    outer = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(outer)
    return count


def _build_and_dispatch(n_events):
    sim = Simulator(0)
    links = [Link(sim, 1e6, 1e-3, name=f"l{i}") for i in range(100)]
    for link in links:
        link.connect(lambda packet: None)
    agents = [CallbackAgent(sim, f"a{i}") for i in range(100)]
    routers = [Router(sim, f"r{i}") for i in range(10)]
    for k in range(n_events):
        sim.schedule(k * 9.0 / n_events, links[k % 100].send,
                     Packet(src=None, dst=None, size_bytes=100))
    sim.run(until=10.0)
    assert sim.events_executed >= n_events
    return sim, len(links) + len(agents) + len(routers)


def test_unarmed_build_and_dispatch_never_enters_repro_invariants():
    assert _calls_into_invariants(lambda: _build_and_dispatch(10_000)) == 0
    with armed():                       # the gate does see the package
        assert _calls_into_invariants(lambda: _build_and_dispatch(100)) > 210


def test_armed_checks_grow_with_sweeps_not_with_events():
    with armed():
        small, n_components = _build_and_dispatch(1_000)
        large, _ = _build_and_dispatch(10_000)
        sweeps = 20                                     # 0.5 s over 10 s
        assert len(small.checker._checks) == n_components + 1   # + clock
        assert small.checker.checks_run == sweeps * (n_components + 1)
        assert large.checker.checks_run == small.checker.checks_run


# -- a violation comes home as the failure of the task that made it ----------

def _postmortems(directory):
    return [name for name in os.listdir(directory)
            if name.startswith("postmortem-invariant-violation-")]


@pytest.fixture
def leaky_e7(monkeypatch):
    """Every E7 cell builds one link whose ``delivered`` is bumped behind
    the ledger. Patched before any fork, so workers inherit it."""
    harvest = e7_core_scaling._harvest

    def leaky_harvest(sim, ues, extra):
        link = Link(sim, 1e6, 0.0, name="leaky")
        link.delivered += 1
        return harvest(sim, ues, extra)

    monkeypatch.setattr(e7_core_scaling, "_harvest", leaky_harvest)


def test_a_leak_in_a_jobs_cell_fails_the_run(tmp_path, leaky_e7):
    argv = ["E7", "--jobs", "2", "--exp-arg", "ap_counts=[1, 2]",
            "--exp-arg", "ue_per_ap=2"]
    try:
        assert main(argv) == 0          # unarmed: nobody is looking
        with pytest.raises(WorkerTaskError) as failure:
            main(argv + ["--invariants"])
    finally:
        set_jobs(1)
    assert "link-conservation on leaky" in str(failure.value)
    assert failure.value.exc_type == "InvariantError"
    assert _postmortems(tmp_path)
    assert Simulator.arming is None


def test_a_leak_in_a_fork_shard_names_the_shard(tmp_path, monkeypatch):
    send = Link.send

    def leaky_send(self, packet):
        if self.name == "bh:c3" and self.delivered == 0:
            self.delivered += 1         # behind the ledger, in shard 1
        return send(self, packet)

    monkeypatch.setattr(Link, "send", leaky_send)
    argv = ["E19", "--exp-arg", "n_cells=4", "--exp-arg", "horizon_s=2.0",
            "--exp-arg", "shards=2", "--exp-arg", "mode=fork"]
    assert main(argv) == 0
    with pytest.raises(ShardWorkerError) as failure:
        main(argv + ["--invariants"])
    assert failure.value.shard == 1
    assert failure.value.exc_type == "InvariantError"
    assert "link-conservation on bh:c3" in str(failure.value)
    assert _postmortems(tmp_path)


def test_a_serial_violation_carries_its_postmortem(tmp_path, leaky_e7):
    with pytest.raises(InvariantError, match="leaky") as failure:
        main(["E7", "--invariants", "--exp-arg", "ap_counts=[1]",
              "--exp-arg", "ue_per_ap=2"])
    assert os.path.basename(failure.value.postmortem_path) in _postmortems(
        tmp_path)
    assert len(_postmortems(tmp_path)) == 1     # the CLI did not dump twice
