"""Unit tests for control-plane agents, channels, and the eNB relay."""

import pytest

from repro.enodeb import EnbControlRelay
from repro.epc.agents import (
    ControlAgent,
    ControlChannel,
    ControlMessage,
)
from repro.epc.nas import AttachRequest, AuthenticationRequest
from repro.simcore import Simulator
from tests.callback_agent import CallbackAgent


# -- ControlAgent: serial processing ------------------------------------------------

def test_agent_processes_serially():
    sim = Simulator(0)
    done = []
    agent = CallbackAgent(sim, "a", handler=lambda m: done.append(sim.now),
                          service_time_s=0.010)
    for _ in range(3):
        agent.enqueue(ControlMessage(payload="x", sender=agent))
    sim.run()
    assert done == [pytest.approx(0.010), pytest.approx(0.020),
                    pytest.approx(0.030)]
    assert agent.processed == 3
    assert agent.busy_time_s == pytest.approx(0.030)


def test_agent_queue_depth_and_peak():
    sim = Simulator(0)
    agent = CallbackAgent(sim, "a", service_time_s=0.010)
    for _ in range(5):
        agent.enqueue(ControlMessage(payload="x", sender=agent))
    # one in service, four waiting
    assert agent.queue_depth == 4
    assert agent.peak_queue_depth == 4
    sim.run()
    assert agent.queue_depth == 0
    assert agent.peak_queue_depth == 4  # history preserved


def test_agent_utilization():
    sim = Simulator(0)
    agent = CallbackAgent(sim, "a", service_time_s=0.5)
    agent.enqueue(ControlMessage(payload="x", sender=agent))
    sim.run(until=1.0)
    assert agent.utilization(1.0) == pytest.approx(0.5)
    assert agent.utilization(0.0) == 0.0


def test_agent_validates_service_time():
    with pytest.raises(ValueError):
        CallbackAgent(Simulator(0), "a", service_time_s=-1)


def test_base_agent_requires_handle():
    sim = Simulator(0)
    agent = ControlAgent(sim, "abstract")
    agent.enqueue(ControlMessage(payload="x", sender=agent))
    with pytest.raises(NotImplementedError):
        sim.run()


# -- ControlChannel -----------------------------------------------------------------------

def test_channel_delay_and_accounting():
    sim = Simulator(0)
    got = []
    a = CallbackAgent(sim, "a")
    b = CallbackAgent(sim, "b", handler=lambda m: got.append(sim.now))
    channel = ControlChannel(sim, a, b, one_way_delay_s=0.025)
    channel.send(a, AttachRequest(ue_id="u", imsi="1" * 15))
    sim.run()
    assert got == [pytest.approx(0.025)]
    assert channel.messages == 1
    assert channel.bytes == 120  # AttachRequest.size_bytes


def test_channel_other_end():
    sim = Simulator(0)
    a, b = CallbackAgent(sim, "a"), CallbackAgent(sim, "b")
    channel = ControlChannel(sim, a, b, 0.01)
    assert channel.other_end(a) is b
    assert channel.other_end(b) is a
    stranger = CallbackAgent(sim, "c")
    with pytest.raises(ValueError):
        channel.other_end(stranger)


def test_channel_validates_delay():
    sim = Simulator(0)
    a, b = CallbackAgent(sim, "a"), CallbackAgent(sim, "b")
    with pytest.raises(ValueError):
        ControlChannel(sim, a, b, one_way_delay_s=-0.1)


# -- EnbControlRelay -------------------------------------------------------------------------

def _relay_setup():
    sim = Simulator(0)
    relay = EnbControlRelay(sim, "enb")
    core_msgs, ue_msgs = [], []
    core = CallbackAgent(sim, "core", handler=lambda m: core_msgs.append(
        m.payload))
    ue = CallbackAgent(sim, "ue-x", handler=lambda m: ue_msgs.append(
        m.payload))
    s1 = ControlChannel(sim, relay, core, 0.01, "s1")
    relay.connect_core(s1)
    air = ControlChannel(sim, ue, relay, 0.005, "air")
    relay.attach_ue("ue-x", air)
    return sim, relay, core, ue, air, s1, core_msgs, ue_msgs


def test_relay_uplink_nas():
    sim, relay, core, ue, air, s1, core_msgs, ue_msgs = _relay_setup()
    air.send(ue, AttachRequest(ue_id="ue-x", imsi="1" * 15))
    sim.run()
    assert len(core_msgs) == 1
    assert relay.nas_relayed == 1


def test_relay_downlink_by_ue_id():
    sim, relay, core, ue, air, s1, core_msgs, ue_msgs = _relay_setup()
    s1.send(core, AuthenticationRequest(ue_id="ue-x", rand=b"r" * 16))
    sim.run()
    assert len(ue_msgs) == 1


def test_relay_drops_downlink_for_unknown_ue():
    sim, relay, core, ue, air, s1, core_msgs, ue_msgs = _relay_setup()
    s1.send(core, AuthenticationRequest(ue_id="ghost", rand=b"r" * 16))
    sim.run()
    assert ue_msgs == []


def test_relay_detach_stops_delivery():
    sim, relay, core, ue, air, s1, core_msgs, ue_msgs = _relay_setup()
    relay.detach_ue("ue-x")
    assert relay.connected_ues == 0
    assert not relay.serves("ue-x")
    s1.send(core, AuthenticationRequest(ue_id="ue-x", rand=b"r" * 16))
    sim.run()
    assert ue_msgs == []


def test_relay_path_switch_requires_s1():
    sim = Simulator(0)
    relay = EnbControlRelay(sim, "enb")
    with pytest.raises(RuntimeError):
        relay.request_path_switch("ue-x")
