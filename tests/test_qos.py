"""Per-bearer QoS policing (``repro.epc.qos``) and its datapath wiring.

The policer is the data-plane mirror of ``epc/overload.py``'s class-
aware shedding: GBR bearers draw a guaranteed token bucket, non-GBR
classes share the remainder by weight, and borrowing is strictly
downward in priority — so under overload bulk starves first and the
guaranteed class last. These tests pin the bucket mechanics, the
conservation ledger, and the gateway hook points.
"""

import pytest

from repro.core.datapath import EnbDataPlane, EpcDataPlane
from repro.epc.qos import (CLASS_BULK, CLASS_GBR, CLASS_INTERACTIVE,
                           CLASS_NAMES, BearerPolicer, QosPolicy)
from repro.net.addressing import IPv4Address
from repro.net.nodes import NetworkNode
from repro.net.packet import Packet
from repro.simcore.simulator import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=0)


def _packet(flow_id="", size=1000):
    return Packet(src=None, dst=None, size_bytes=size, flow_id=flow_id)


def _policer(sim, rate_bps=80_000.0, gbr_bps=20_000.0, burst=5000):
    # 10 kB/s aggregate: 2.5 kB/s GBR, the rest 3:1 interactive:bulk
    policy = QosPolicy(rate_bps=rate_bps, gbr_bps=gbr_bps,
                       burst_bytes=burst)
    return BearerPolicer(sim, policy, name="test-policer")


# -- policy validation -----------------------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        QosPolicy(rate_bps=0.0)
    with pytest.raises(ValueError):
        QosPolicy(rate_bps=100.0, gbr_bps=100.0)   # must be < rate
    with pytest.raises(ValueError):
        QosPolicy(rate_bps=100.0, gbr_bps=-1.0)
    with pytest.raises(ValueError):
        QosPolicy(rate_bps=100.0, weights=(1.0,))
    with pytest.raises(ValueError):
        QosPolicy(rate_bps=100.0, weights=(1.0, 0.0))
    with pytest.raises(ValueError):
        QosPolicy(rate_bps=100.0, burst_bytes=0)


def test_class_names_align_with_constants():
    assert CLASS_NAMES[CLASS_GBR] == "gbr"
    assert CLASS_NAMES[CLASS_INTERACTIVE] == "interactive"
    assert CLASS_NAMES[CLASS_BULK] == "bulk"


def test_register_bearer_rejects_unknown_class(sim):
    policer = _policer(sim)
    with pytest.raises(ValueError):
        policer.register_bearer("flow", 7)


# -- bucket mechanics ------------------------------------------------------

def test_unregistered_flows_are_policed_as_bulk(sim):
    policer = _policer(sim)

    def offered_as(flow_id):
        before = list(policer.offered_by_class)
        policer.admit(_packet(flow_id))
        return [cls for cls in range(3)
                if policer.offered_by_class[cls] > before[cls]]

    assert offered_as("mystery") == [CLASS_BULK]
    policer.register_bearer("voice", CLASS_GBR)
    assert offered_as("voice") == [CLASS_GBR]
    policer.deregister_bearer("voice")
    assert offered_as("voice") == [CLASS_BULK]


def test_tokens_refill_at_the_configured_rate(sim):
    policer = _policer(sim, burst=1000)
    policer.register_bearer("video", CLASS_BULK)
    # bulk never borrows, so its bucket isolates the refill arithmetic:
    # (80 - 20) kbps non-GBR, 1/4 weight -> 15 kbps = 1875 B/s
    assert policer.admit(_packet("video", size=1000))   # the banked burst
    assert not policer.admit(_packet("video", size=1000))
    sim.run(until=0.4)        # 750 B refilled: still one byte short
    assert not policer.admit(_packet("video", size=1000))
    sim.run(until=0.8)        # another 750 B: now it fits, exactly once
    assert policer.admit(_packet("video", size=1000))
    assert not policer.admit(_packet("video", size=1000))


def test_borrowing_is_strictly_downward(sim):
    policer = _policer(sim, burst=1000)
    policer.register_bearer("voice", CLASS_GBR)
    policer.register_bearer("web", CLASS_INTERACTIVE)
    policer.register_bearer("video", CLASS_BULK)
    # bulk can only spend its own bucket: one 1000 B burst, then shed
    assert policer.admit(_packet("video", size=1000))
    assert not policer.admit(_packet("video", size=1000))
    # interactive still has its own bucket (bulk's is empty)
    assert policer.admit(_packet("web", size=1000))
    # ... but can NOT borrow upward from the GBR reserve
    assert not policer.admit(_packet("web", size=1000))
    # GBR spends its own bucket, and bulk/interactive being empty does
    # not affect it
    assert policer.admit(_packet("voice", size=1000))
    # GBR may then borrow downward — but everything is drained now
    assert not policer.admit(_packet("voice", size=1000))


def test_gbr_survives_overload_while_bulk_sheds_first(sim):
    policer = _policer(sim, rate_bps=80_000.0, gbr_bps=40_000.0, burst=2000)
    policer.register_bearer("voice", CLASS_GBR)
    policer.register_bearer("video", CLASS_BULK)

    def offer():
        while True:
            # 2x the policed aggregate, split evenly: voice fits in its
            # guarantee, video alone exceeds the whole non-GBR share
            yield sim.timeout(0.05)
            policer.admit(_packet("voice", size=250))
            policer.admit(_packet("video", size=750))

    sim.process(offer())
    sim.run(until=20.0)
    assert policer.shed_by_class[CLASS_GBR] == 0
    assert policer.shed_by_class[CLASS_BULK] > 0


def test_conservation_ledger(sim):
    policer = _policer(sim, burst=2000)
    policer.register_bearer("voice", CLASS_GBR)
    for i in range(50):
        flow = ("voice", "web", "")[i % 3]
        policer.admit(_packet(flow, size=700))
    assert policer.offered == 50
    assert policer.offered == policer.admitted + policer.shed
    assert sum(policer.offered_by_class) == policer.offered
    assert sum(policer.shed_by_class) == policer.shed
    assert policer.shed > 0
    # shed metrics mirror the ledger, per class
    for cls in (CLASS_GBR, CLASS_INTERACTIVE, CLASS_BULK):
        counter = sim.metrics.counter("epc.qos.shed", policer="test-policer",
                                      qos_class=CLASS_NAMES[cls])
        assert counter.value == policer.shed_by_class[cls]


# -- datapath wiring -------------------------------------------------------

def _collector(sim, name):
    node = NetworkNode(sim, name)
    got = []
    node.handle = got.append
    return node, got


def test_enb_uplink_sheds_at_the_cell_site(sim):
    epc, got = _collector(sim, "epc")
    enb = EnbDataPlane(sim, "enb", IPv4Address("10.0.0.1"),
                       IPv4Address("10.0.0.2"), uplink_via="epc")
    enb.attach_link(epc)
    enb.open_bearer()
    enb.policer = BearerPolicer(
        sim, QosPolicy(rate_bps=80_000.0, burst_bytes=1000), name="enb-pol")
    ok = Packet(src=IPv4Address("10.9.0.1"), dst=IPv4Address("8.8.8.8"),
                size_bytes=900, flow_id="up")
    enb.handle(ok)
    big = Packet(src=IPv4Address("10.9.0.1"), dst=IPv4Address("8.8.8.8"),
                 size_bytes=900, flow_id="up")
    enb.handle(big)                      # bucket empty: shed pre-GTP
    sim.run(until=1.0)
    assert len(got) == 1
    assert got[0].tunnel_depth == 1      # admitted packet was encapsulated
    assert enb.policer.shed == 1
    assert enb.policer.shed_bytes == 900  # policed at IP size, not GTP


def test_epc_downlink_polices_before_encapsulation(sim):
    internet, got = _collector(sim, "internet")
    epc = EpcDataPlane(sim, "epc-gw", IPv4Address("10.0.0.2"),
                       internet_via="internet")
    epc.attach_link(internet)
    ue_addr = IPv4Address("10.9.0.1")
    epc.register_ue(ue_addr, IPv4Address("10.0.0.1"))
    epc.policer = BearerPolicer(
        sim, QosPolicy(rate_bps=80_000.0, burst_bytes=1500), name="pgw-pol")
    epc.policer.register_bearer("down", CLASS_INTERACTIVE)
    for _ in range(5):
        epc.handle(Packet(src=IPv4Address("8.8.8.8"), dst=ue_addr,
                          size_bytes=700, flow_id="down"))
    sim.run(until=1.0)
    # interactive drains its own 1500 B bucket (two packets), borrows
    # bulk's for two more, then the fifth is shed: never counted, never
    # GTP-wrapped
    assert len(got) == 4
    assert epc.downlink_packets == 4
    assert epc.policer.shed == 1


def test_no_policer_means_no_policing(sim):
    internet, got = _collector(sim, "internet")
    epc = EpcDataPlane(sim, "epc-gw", IPv4Address("10.0.0.2"),
                       internet_via="internet")
    epc.attach_link(internet)
    ue_addr = IPv4Address("10.9.0.1")
    epc.register_ue(ue_addr, IPv4Address("10.0.0.1"))
    assert epc.policer is None           # seed default: unpoliced
    for _ in range(10):
        epc.handle(Packet(src=IPv4Address("8.8.8.8"), dst=ue_addr,
                          size_bytes=1400, flow_id="down"))
    sim.run(until=1.0)
    assert len(got) == 10
