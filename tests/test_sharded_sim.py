"""Conservative time-window sharding: windows, lookahead, determinism.

The bar: a sharded run is the *same* simulation, not an approximation.
Every test here compares a federation against a monolithic reference
(plain simulator, plain channels) or against itself at another shard
count, expecting exact float equality.
"""

import math
import multiprocessing
import os
import signal
import time

import pytest

from repro.epc.agents import ControlAgent, ControlChannel
from repro.net.shardlink import CrossShardChannel
from repro.runner import TaskFailedError, parallel_map
from repro.simcore.sharded import (
    ShardBoundary,
    ShardHost,
    ShardedSimulator,
    ZeroLookaheadError,
)
from repro.simcore.simulator import Simulator

L = 0.01  # the cross-shard latency (and therefore the window) used below


class Recorder(ControlAgent):
    """Logs (time, payload) arrivals; optionally echoes payload + 1."""

    def __init__(self, sim, name):
        super().__init__(sim, name, service_time_s=0.0)
        self.log = []
        self.reply_via = None
        self.limit = 0

    def handle(self, message):
        value = message.payload
        self.log.append((self.sim.now, value))
        if self.reply_via is not None and value < self.limit:
            self.reply_via.send(self, value + 1)


def _build_pingpong(spec):
    """Two recorders ping-ponging across the boundary; `a` also fires a
    burst of sends scheduled exactly at window edges (t = k*L)."""
    shard, n = spec["shard"], spec["n_shards"]
    sim = Simulator(11)
    boundary = ShardBoundary(sim, shard, n)
    delay = spec.get("delay", L)
    agents = {}
    if shard == 0:
        a = Recorder(sim, "a")
        half = CrossShardChannel(sim, boundary, a, "b", n - 1, delay, "pp")
        a.reply_via, a.limit = half, spec["limit"]
        for k in range(spec.get("burst", 3)):
            sim.at(k * delay, half.send, a, k * 100)
        agents["a"] = a
    if shard == n - 1:
        b = Recorder(sim, "b")
        half = CrossShardChannel(sim, boundary, b, "a", 0, delay, "pp")
        b.reply_via, b.limit = half, spec["limit"]
        agents["b"] = b

    def harvest(host):
        return {name: agent.log for name, agent in agents.items()}

    return ShardHost(sim, boundary, harvest=harvest)


def _merge(results):
    merged = {}
    for result in results:
        merged.update(result)
    return merged


def _monolithic_pingpong(limit, burst=3, until=1.0):
    """The reference: same scenario on one simulator, one ControlChannel."""
    sim = Simulator(11)
    a, b = Recorder(sim, "a"), Recorder(sim, "b")
    channel = ControlChannel(sim, a, b, L, "pp")
    a.reply_via = b.reply_via = channel
    a.limit = b.limit = limit
    for k in range(burst):
        sim.at(k * L, channel.send, a, k * 100)
    sim.run(until=until)
    return {"a": a.log, "b": b.log}


def test_sharded_matches_monolithic_exactly():
    reference = _monolithic_pingpong(limit=450)
    for n_shards in (1, 2):
        specs = [{"shard": s, "n_shards": n_shards, "limit": 450}
                 for s in range(n_shards)]
        sharded = ShardedSimulator(_build_pingpong, specs)
        merged = _merge(sharded.run(until=1.0))
        assert merged == reference  # exact float times, exact payloads


def test_window_edge_arrivals():
    # sends at t = k*L arrive at exactly (k+1)*L — every delivery lands
    # precisely on a window edge and must execute once, in the right
    # window, at the exact float time
    specs = [{"shard": s, "n_shards": 2, "limit": 0} for s in range(2)]
    sharded = ShardedSimulator(_build_pingpong, specs)
    merged = _merge(sharded.run(until=1.0))
    # expected times written exactly as the channel computes them
    # (k*L + L, not (k+1)*L — float product vs sum can differ by an ulp)
    assert merged["b"] == [(k * L + L, k * 100) for k in range(3)]
    assert sharded.lookahead_s == L


def test_empty_windows_and_idle_shard():
    # shard 1 of 3 hosts nothing; the run still advances every shard to
    # the horizon through hundreds of (mostly empty) windows
    def build(spec):
        if spec["shard"] == 1:
            sim = Simulator(11)
            return ShardHost(sim, ShardBoundary(sim, 1, spec["n_shards"]),
                             harvest=lambda host: {})
        return _build_pingpong(spec)

    specs = [{"shard": s, "n_shards": 3, "limit": 450} for s in range(3)]
    sharded = ShardedSimulator(build, specs)
    merged = _merge(sharded.run(until=1.0))
    assert merged == _monolithic_pingpong(limit=450)
    idle = sharded.stats[1]
    assert idle["events"] == 0
    assert idle["windows"] >= math.floor(1.0 / L)


def test_horizon_draining_and_withheld_records():
    # a sends at 2.5*L, b receives at 3.5*L — beyond the last full
    # window but at or before the horizon, so the façade must keep
    # exchanging at the horizon; b's echo (due 4.5*L) is withheld, just
    # as the monolithic run leaves it queued unexecuted
    horizon = 3.5 * L

    def build(spec):
        host = _build_pingpong({**spec, "burst": 0})
        if spec["shard"] == 0:
            a = host.sim  # schedule through the host's simulator
            # reach into the boundary to find a's half
            half = host.boundary.endpoints["pp@a"]
            a.at(2.5 * L, half.send, half.local_agent, 7)
        return host

    specs = [{"shard": s, "n_shards": 2, "limit": 1_000} for s in range(2)]
    sharded = ShardedSimulator(build, specs)
    merged = _merge(sharded.run(until=horizon))
    assert merged["b"] == [(3.5 * L, 7)]
    assert merged["a"] == []
    assert len(sharded.undelivered) == 1
    assert sharded.undelivered[0][0] == pytest.approx(4.5 * L)


def _build_doomed(spec):
    """Ping-pong shards; a doomed pass's shard 1 signals its own process
    mid-window at t=0.505."""
    host = _build_pingpong(spec)
    if spec["shard"] == 1 and spec["signal"] is not None:
        host.sim.at(50.5 * L, os.kill, os.getpid(), spec["signal"])
    return host


def _run_doomed_pass(specs):
    """One sharded pass as a worker task, as E19 runs each of its three."""
    return _merge(ShardedSimulator(_build_doomed, specs).run(until=1.0))


@pytest.mark.parametrize("signum,kind,exc_type", [
    (signal.SIGKILL, "crash", "WorkerCrashed"),
    (signal.SIGSTOP, "hang", "WorkerHung"),  # SIGTERM would stay pending
])
def test_lost_shard_worker_surfaces_and_is_reaped(
        tmp_path, monkeypatch, signum, kind, exc_type):
    # regression: a shard pool that read its pipe with a bare blocking
    # recv (no beat, no EOF watch) hung forever on a wedged shard and
    # could leave a stopped worker behind. A pass's worker is a
    # parallel_map worker, watched for pipe EOF and for its beat; fork
    # inherits the shortened beat constants.
    from repro.runner import worker

    monkeypatch.setattr(worker, "BEAT_S", 0.05)
    monkeypatch.setattr(worker, "BEAT_LIMIT_S", 0.4)
    passes = [[{"shard": s, "n_shards": 2, "limit": 450, "signal": doom}
               for s in range(2)] for doom in (None, signum)]
    started = time.monotonic()
    with pytest.raises(TaskFailedError) as excinfo:
        parallel_map(_run_doomed_pass, passes, jobs=2)
    assert time.monotonic() - started < 3.0
    assert excinfo.value.slot == 1
    assert excinfo.value.exc_type == exc_type
    assert not multiprocessing.active_children()  # every shard pid gone
    assert any(name.startswith(f"postmortem-supervisor-{kind}-")
               for name in os.listdir(tmp_path))


def test_zero_lookahead_refused():
    specs = [{"shard": s, "n_shards": 2, "limit": 0, "delay": 0.0}
             for s in range(2)]
    sharded = ShardedSimulator(_build_pingpong, specs)
    with pytest.raises(ZeroLookaheadError, match="pp"):
        sharded.run(until=1.0)


def test_zero_delay_colocated_is_fine():
    # the same zero-delay channel is legal when both halves share a
    # shard: co-located couplings never constrain the window
    specs = [{"shard": 0, "n_shards": 1, "limit": 200, "delay": 0.0}]
    merged = _merge(ShardedSimulator(_build_pingpong, specs).run(until=1.0))
    assert merged["b"][0] == (0.0, 0)


def test_window_override_validated():
    specs = [{"shard": s, "n_shards": 2, "limit": 0} for s in range(2)]
    with pytest.raises(ValueError, match="exceeds lookahead"):
        ShardedSimulator(_build_pingpong, specs, window_s=2 * L).run(until=1.0)
    # a smaller window is allowed and changes nothing
    small = _merge(ShardedSimulator(_build_pingpong, specs,
                                    window_s=L / 4).run(until=1.0))
    assert small == _merge(ShardedSimulator(_build_pingpong, specs)
                           .run(until=1.0))


def test_overstated_lookahead_caught_at_injection():
    sim = Simulator(1)
    boundary = ShardBoundary(sim, 0, 2)
    sink = Recorder(sim, "sink")
    CrossShardChannel(sim, boundary, sink, "peer", 1, L, "x")
    host = ShardHost(sim, boundary)
    sim.run(until=0.5)
    stale = (0.25, 0.24, 1, 1, 0, "x@sink", 99)
    with pytest.raises(RuntimeError, match="overstated its lookahead"):
        host.inject([stale])


def test_boundary_rejects_duplicates_and_bad_shards():
    sim = Simulator(1)
    boundary = ShardBoundary(sim, 0, 2)
    boundary.register("k", object())
    with pytest.raises(ValueError, match="duplicate"):
        boundary.register("k", object())
    with pytest.raises(ValueError, match="outside"):
        boundary.couple("c", 5, 0.01)


def test_per_shard_stats_populated():
    specs = [{"shard": s, "n_shards": 2, "limit": 450} for s in range(2)]
    sharded = ShardedSimulator(_build_pingpong, specs, label="pingpong")
    sharded.run(until=1.0)
    assert len(sharded.stats) == 2
    for entry in sharded.stats:
        assert entry["label"] == "pingpong"
        assert entry["events"] > 0
        assert entry["heap_hwm"] >= 1
        assert entry["windows"] == sharded.windows
        assert entry["exec_s"] >= 0.0
        assert entry["barrier_wait_s"] >= 0.0
    # conservation at the boundary: everything a shard sent was either
    # injected into its peer or withheld past the horizon
    withheld = [0, 0]
    for record in sharded.undelivered:
        withheld[record[4]] += 1
    assert sharded.stats[0]["sent"] == sharded.stats[1]["received"] + withheld[1]
    assert sharded.stats[1]["sent"] == sharded.stats[0]["received"] + withheld[0]


# -- mid-window handover across a shard boundary ---------------------------

AIR = 0.005
WAN = 0.03
T_LEAVE = 0.412   # 82.4 air-lookahead windows
T_HO = 0.512      # 102.4: both strictly mid-window


def _build_handover(spec):
    """UE attaches via enb-a (shard 0), loses enb-a's radio at T_LEAVE,
    and at T_HO is re-homed to enb-b (last shard) and re-attaches there
    — the dLTE re-attach E6 models. The new air leg crosses the
    boundary: every attach request goes up it, and the MME, which
    serves the eNB the AttachRequest arrived from, answers back down
    it."""
    from repro.enodeb.relay import EnbControlRelay
    from repro.epc.centralized import CentralizedEpc
    from repro.epc.subscriber import make_profile
    from repro.epc.ue import UserEquipment
    from repro.net.addressing import AddressPool

    shard, n = spec["shard"], spec["n_shards"]
    last = n - 1
    sim = Simulator(5)
    boundary = ShardBoundary(sim, shard, n)
    out = {}
    profile = make_profile("999310000000001")
    if shard == 0:
        epc = CentralizedEpc(sim, AddressPool("10.0.0.0/12"))
        epc.provision(profile)
        for enb_name, enb_shard in (("enb-a", 0), ("enb-b", last)):
            half = CrossShardChannel(sim, boundary, epc.mme, enb_name,
                                     enb_shard, WAN, f"s1:{enb_name}")
            epc.mme.connect_enb(enb_name, half)
        enb_a = EnbControlRelay(sim, "enb-a")
        enb_a.connect_core(CrossShardChannel(sim, boundary, enb_a,
                                             "epc-mme", 0, WAN, "s1:enb-a"))
        ue = UserEquipment(sim, profile, name="ue0")
        air_a = ControlChannel(sim, ue, enb_a, AIR, "air:a")
        ue.connect_air(air_a)
        enb_a.attach_ue("ue0", air_a)
        air_b_ue = CrossShardChannel(sim, boundary, ue, "enb-b", last,
                                     AIR, "air:b")

        def reattach_via_b():
            ue.connect_air(air_b_ue)
            ue.start_attach()

        sim.schedule(0.0, ue.start_attach)
        sim.at(T_LEAVE, ue.radio_lost)
        sim.at(T_HO, reattach_via_b)
        out["ue"], out["air_b_ue"] = ue, air_b_ue
    if shard == last:
        enb_b = EnbControlRelay(sim, "enb-b")
        s1b = CrossShardChannel(sim, boundary, enb_b, "epc-mme", 0,
                                WAN, "s1:enb-b")
        enb_b.connect_core(s1b)
        air_b_enb = CrossShardChannel(sim, boundary, enb_b, "ue0", 0,
                                      AIR, "air:b")
        enb_b.attach_ue("ue0", air_b_enb)
        out["s1b"], out["air_b_enb"] = s1b, air_b_enb

    def harvest(host):
        result = {}
        if "ue" in out:
            result["state"] = out["ue"].state.name
            result["latency"] = out["ue"].attach_latency_s
            result["ue_heard_via_b"] = out["air_b_ue"].received
        if "s1b" in out:
            result["attach_up_via_b"] = out["s1b"].messages
            result["downlink_via_b"] = out["air_b_enb"].messages
        return result

    return ShardHost(sim, boundary, harvest=harvest)


def test_mid_window_handover_across_shards():
    reference = None
    for n_shards in (1, 2, 3):
        specs = [{"shard": s, "n_shards": n_shards}
                 for s in range(n_shards)]
        merged = _merge(ShardedSimulator(_build_handover, specs)
                        .run(until=1.0))
        assert merged["state"] == "ATTACHED"
        # AttachRequest, AuthenticationResponse, SecurityModeComplete and
        # AttachComplete went up the new leg; AuthenticationRequest,
        # SecurityModeCommand and AttachAccept came back down it
        assert merged["attach_up_via_b"] == 4
        assert merged["ue_heard_via_b"] == merged["downlink_via_b"] == 3
        if reference is None:
            reference = merged
        else:
            assert merged == reference
