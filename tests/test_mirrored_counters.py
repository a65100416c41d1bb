"""A ledger counter is stored once: ``MetricsRegistry.mirror``.

``Link``, ``ControlChannel`` and ``ControlAgent`` keep their ledgers as
plain attributes and declare them to the registry, which reads them when
somebody reads it. The property test drives two links sharing a name, a
channel and its two agents through random operations beside an eager
``inc``-per-field oracle (``tests/reference/eager_ledger.py``, what
``src/`` did before): after every step each mirrored family's
``value()`` is the sum of its owners' attributes and the counter rows of
``snapshot()`` are the oracle's. The scripted tests hold the edges of
the design: a discipline re-installed, a mirrored key that somebody also
``inc``s, ``clear()``, a registry shipped to a process that never
imported the owners' classes, and an owner nothing else refers to.
"""

import gc
import os
import pickle
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.epc.agents import ControlChannel
from repro.epc.nas import AttachRequest
from repro.net.aqm import make_aqm
from repro.net.links import Link
from repro.net.packet import ECN_ECT, ECN_NOT_ECT, Packet
from repro.simcore.simulator import Simulator
from repro.telemetry.registry import MetricsRegistry
from tests.callback_agent import CallbackAgent
from tests.reference import eager_ledger
from tests.reference.eager_ledger import EagerLedger

_AQM_KWARGS = {"codel": {"target_s": 0.005, "interval_s": 0.05},
               "red": {"min_th": 1.0, "max_th": 4.0, "weight": 0.5}}
_which = st.sampled_from([0, 1])
_sizes = st.sampled_from([60, 400, 1500])
_ecn = st.sampled_from([ECN_NOT_ECT, ECN_ECT])
_gaps = st.sampled_from([0.0, 0.001, 0.03, 0.2, 1.0])

_steps = st.lists(st.one_of(
    st.tuples(st.just("send"), _which, st.sampled_from([1, 5, 12]), _sizes,
              _ecn),
    st.tuples(st.just("send_at"), _which, _gaps, _sizes, _ecn),
    st.tuples(st.just("set_up"), _which, st.booleans()),
    st.tuples(st.just("set_loss_rate"), _which,
              st.sampled_from([0.0, 0.3, 1.0])),
    st.tuples(st.just("set_aqm"), _which,
              st.sampled_from(["codel", "red", None]), st.booleans()),
    st.tuples(st.just("chan_send"), _which),
    st.tuples(st.just("chan_up"), st.booleans()),
    st.tuples(st.just("run"), _gaps),
), min_size=8, max_size=40)


def _counter_rows(registry):
    return [row for row in registry.snapshot() if row["kind"] == "counter"]


@given(_steps)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_mirrored_rows_are_the_eager_rows_after_every_step(steps):
    sim = Simulator(seed=0)
    registry = sim.metrics
    eager = EagerLedger()
    links = [Link(sim, rate_bps=80_000.0, delay_s=0.02, queue_packets=8,
                  queue_bytes=4000, name="twin") for _ in range(2)]
    agents = [CallbackAgent(sim, f"agent{i}", service_time_s=0.01)
              for i in range(2)]
    channel = ControlChannel(sim, agents[0], agents[1], 0.005, name="s1")
    for link in links:
        link.connect(lambda packet: None)
        eager.watch(link, eager_ledger.LINK, link="twin")
    for agent in agents:
        eager.watch(agent, eager_ledger.AGENT, agent=agent.name)
    eager.watch(channel, eager_ledger.CHANNEL, channel="s1")
    last_at = [0.0, 0.0]
    for step in steps:
        op, args = step[0], step[1:]
        if op == "send":
            which, count, size, ecn = args
            for _ in range(count):
                links[which].send(Packet(src=None, dst=None, size_bytes=size,
                                         ecn=ecn))
        elif op == "send_at":
            which, gap, size, ecn = args
            last_at[which] = max(last_at[which], sim.now + gap)
            links[which].send_at(last_at[which], Packet(
                src=None, dst=None, size_bytes=size, ecn=ecn))
        elif op == "set_aqm":
            which, kind, ecn = args
            links[which].set_aqm(None if kind is None else make_aqm(
                kind, ecn=ecn, **_AQM_KWARGS[kind]))
            if kind is not None:
                eager.watch(links[which], eager_ledger.LINK_AQM, link="twin")
        elif op == "chan_send":
            channel.send(agents[args[0]], AttachRequest(ue_id="ue0"))
        elif op == "chan_up":
            channel.set_up(args[0])
        elif op == "run":
            sim.run(until=sim.now + args[0])
        else:
            getattr(links[args[0]], op)(*args[1:])
        eager.record()
        for attribute, name, extra in (eager_ledger.LINK
                                       + eager_ledger.LINK_AQM):
            assert registry.value(name, link="twin", **extra) == sum(
                getattr(link, attribute) for link in links)
        for attribute, name, _extra in eager_ledger.CHANNEL:
            assert registry.value(name, channel="s1") == getattr(
                channel, attribute)
        for agent in agents:
            assert registry.value("epc.agent.processed",
                                  agent=agent.name) == agent.processed
        assert _counter_rows(registry) == eager.registry.snapshot()


def _loaded_link(sim, name="l0", packets=3):
    link = Link(sim, rate_bps=1e6, delay_s=0.001, name=name)
    link.connect(lambda packet: None)
    for _ in range(packets):
        link.send(Packet(src=None, dst=None, size_bytes=100))
    return link


def test_a_discipline_installed_twice_exports_once():
    sim = Simulator(seed=0)
    link = Link(sim, rate_bps=8_000.0, delay_s=0.0, queue_packets=50,
                name="l0")
    link.connect(lambda packet: None)
    tight = {"target_s": 0.001, "interval_s": 0.01}
    link.set_aqm(make_aqm("codel", ecn=True, **tight))
    link.set_aqm(None)
    link.set_aqm(make_aqm("codel", ecn=False, **tight))
    for _ in range(40):
        link.send(Packet(src=None, dst=None, size_bytes=500, ecn=ECN_ECT))
    sim.run()
    assert link.dropped_aqm > 0
    assert sim.metrics.value("net.link.dropped", link="l0",
                             cause="aqm") == link.dropped_aqm
    assert sim.metrics.value("net.link.ecn_marked", link="l0") == 0.0


def test_a_link_that_never_had_a_discipline_exports_no_aqm_rows():
    sim = Simulator(seed=0)
    _loaded_link(sim).set_aqm(None)
    names = {(row["name"], row["labels"].get("cause"))
             for row in sim.metrics.snapshot()}
    assert ("net.link.dropped", "aqm") not in names
    assert ("net.link.ecn_marked", None) not in names


def test_a_mirrored_key_cannot_also_be_incremented():
    sim = Simulator(seed=0)
    _loaded_link(sim)
    assert len(sim.metrics)  # a read: the mirrored counters now exist
    with pytest.raises(TypeError, match="mirrors"):
        sim.metrics.counter("net.link.delivered", link="l0")
    # other label sets of the family stay ordinary counters
    sim.metrics.counter("net.link.delivered", link="elsewhere").inc()


def test_mirroring_onto_an_incremented_key_raises_at_the_read():
    sim = Simulator(seed=0)
    sim.metrics.counter("net.link.delivered", link="l0").inc(7)
    _loaded_link(sim)
    for _read in range(2):      # every read, not only the first
        with pytest.raises(TypeError, match="already registered"):
            sim.metrics.snapshot()
    assert sim.metrics._instruments[
        "net.link.delivered", (("link", "l0"),)].value == 7.0


def test_clear_forgets_mirrors_too():
    sim = Simulator(seed=0)
    _loaded_link(sim)
    assert len(sim.metrics)
    _loaded_link(sim, name="l1")    # declared, not yet read
    sim.metrics.clear()
    assert len(sim.metrics) == 0 and sim.metrics.snapshot() == []
    sim.metrics.counter("net.link.delivered", link="l0").inc()


def test_a_read_mid_run_shows_the_ledger_as_of_that_instant():
    sim = Simulator(seed=0)
    link = _loaded_link(sim, packets=5)     # 0.8 ms each, 1 ms flight
    sim.run(until=0.003)
    assert 0 < link.delivered < 5
    assert sim.metrics.value("net.link.delivered", link="l0") \
        == link.delivered
    first, second = sim.metrics.snapshot(), sim.metrics.snapshot()
    assert first == second
    sim.run()
    assert sim.metrics.value("net.link.delivered", link="l0") == 5.0


def test_an_owner_nobody_else_holds_keeps_its_rows():
    """E6 pops a link from its node mid-run; its packets still count."""
    sim = Simulator(seed=0)
    link = _loaded_link(sim)
    sim.run()
    gone = weakref.ref(link)
    del link
    gc.collect()
    assert gone() is not None
    assert sim.metrics.value("net.link.delivered", link="l0") == 3.0
    assert sim.metrics.value("net.link.bytes_sent", link="l0") == 300.0


_LOAD_IN_A_FRESH_INTERPRETER = """
import pickle, sys
registry = pickle.load(sys.stdin.buffer)
loaded = sorted(m for m in sys.modules
                if m.startswith(("repro.net", "repro.epc", "repro.simcore")))
assert loaded == [], loaded
assert registry.value("net.link.delivered", link="l0") == 3.0
assert registry.value("epc.agent.processed", agent="a0") == 0.0
registry.counter("net.link.delivered", link="l0").inc()   # a reading: plain
print(len(registry))
"""


def test_a_shipped_registry_carries_counters_and_no_owner():
    sim = Simulator(seed=0)
    _loaded_link(sim)
    CallbackAgent(sim, "a0")
    sim.run()
    payload = pickle.dumps(sim.metrics)     # never read before shipping
    assert b"repro.net" not in payload and b"repro.epc" not in payload
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _LOAD_IN_A_FRESH_INTERPRETER],
                         input=payload, env=env, capture_output=True,
                         check=True, timeout=60)
    assert int(out.stdout) == len(sim.metrics) == 9
    # the shipped copy is a reading; the live registry goes on mirroring
    clone = pickle.loads(payload)
    _loaded_link(sim, name="l1")
    assert clone.value("net.link.delivered", link="l1") == 0.0
    assert isinstance(clone, MetricsRegistry)
