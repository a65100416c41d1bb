"""Deterministic telemetry overhead gate: counts calls, times nothing.

OBSERVABILITY.md budgets an always-on observation at a few adds and a
bisect. The cost that broke that budget was a streaming P² tracker
update per sample on histograms whose quantiles nobody read, so the
gate is on exactly that: a run that declares no quantile reader (E5,
the TTI loop) must make zero ``P2Quantile.observe`` calls, and a run
that declares one (E17's SLA histogram) must make some. A future
always-on tracker fails here, in tier-1, not in a noisy bench.
"""

import collections
import os
import sys

import pytest

from repro.epc.agents import ControlChannel
from repro.experiments import e5_coordination as E5
from repro.experiments import e6_mobility as E6
from repro.experiments import e17_attach_storm as E17
from repro.experiments import e18_sustained_overload as E18
from repro.net.links import Link
from repro.simcore.simulator import Simulator
from repro.telemetry.registry import Counter, P2Quantile
from tests.callback_agent import CallbackAgent


@pytest.fixture
def p2_calls(monkeypatch):
    calls = [0]
    real = P2Quantile.observe

    def counting_observe(self, x):
        calls[0] += 1
        real(self, x)

    monkeypatch.setattr(P2Quantile, "observe", counting_observe)
    return calls


def test_tti_loop_pays_for_no_quantile_tracker(p2_calls):
    E5.run(n_aps=1, ue_per_ap=16)
    assert p2_calls[0] == 0


def test_declared_sla_reader_is_tracked(p2_calls):
    table = E17.run(intensities=(1,))
    assert p2_calls[0] > 0
    assert all(row["p99_s"] > 0.0 for row in table.rows)


# -- a ledger counter is stored once -----------------------------------
#
# ``net.link.*``, ``epc.channel.*`` and ``epc.agent.processed`` are read
# from the attributes their owners keep anyway (MetricsRegistry.mirror),
# so a run nobody reads makes no ``Counter.inc`` call from those modules
# and builds no instrument object for them.

@pytest.fixture
def inc_callers(monkeypatch):
    """Source file of the caller of every ``Counter.inc`` call."""
    callers = collections.Counter()
    real = Counter.inc

    def counting_inc(self, amount=1.0):
        frame = sys._getframe(1)
        callers[(frame.f_code.co_filename, frame.f_code.co_name)] += 1
        real(self, amount)

    monkeypatch.setattr(Counter, "inc", counting_inc)
    return callers


def _under(callers, part):
    return {site: n for site, n in callers.items()
            if part in site[0].replace(os.sep, "/")}


def test_no_packet_pays_for_a_counter_on_the_mobility_path(inc_callers):
    E6.run(dwells_s=[0.5])
    assert _under(inc_callers, "repro/net/") == {}


def test_no_packet_pays_for_a_counter_on_the_overload_path(inc_callers):
    E18.run(loads=(5.0,), n_aps=1, ue_per_ap=3, settle_s=4.0,
            warmup_s=1.0, measure_s=4.0)
    assert _under(inc_callers, "repro/net/") == {}


def test_control_agents_inc_only_what_they_shed(inc_callers):
    E17.run(intensities=(1,))
    sites = _under(inc_callers, "repro/epc/agents.py")
    # epc.agent.shed{agent,cause} is created by the first shed: already
    # pay-per-use, and it has no attribute of the same shape behind it
    assert {name for _file, name in sites} <= {"_shed"}


def _ledger_owners(sim, n=100):
    agents = [CallbackAgent(sim, f"agent{i}") for i in range(n)]
    links = [Link(sim, rate_bps=1e6, delay_s=0.001, name=f"link{i}")
             for i in range(n)]
    channels = [ControlChannel(sim, agents[i], agents[(i + 1) % n], 0.001,
                               name=f"chan{i}") for i in range(n)]
    return agents, links, channels


def test_a_ledger_counter_is_no_object_until_somebody_reads():
    sim = Simulator(seed=0)
    _ledger_owners(sim)
    registry = sim.metrics
    # link: queue_depth gauge; agent: queue_depth gauge + queue_wait_s
    # histogram; channel: nothing (the parent built 1,200 here)
    assert len(registry._instruments) <= 300
    names = collections.Counter(row["name"] for row in registry.snapshot())
    assert names == {
        "net.link.delivered": 100, "net.link.bytes_sent": 100,
        "net.link.dropped": 300, "net.link.queue_depth": 100,
        "epc.channel.messages": 100, "epc.channel.bytes": 100,
        "epc.channel.dropped": 100, "epc.agent.processed": 100,
        "epc.agent.queue_depth": 100, "epc.agent.queue_wait_s": 100}
    assert len(registry) == len(registry._instruments) == 1200
    # a second read finds the same rows
    assert registry.snapshot() == registry.snapshot()
