"""E19 — "the city": 10^5 UEs across hundreds of cells, sharded.

The paper's §4.1 scaling argument at the scale it actually claims:
"the one stub per site model naturally scales as the total number of
APs increases" — so take an urban grid of cell sites
(:class:`~repro.workloads.topology.CityGrid`), give every site a
packet-fidelity **foreground** population that attach-storms the core
and then pushes data over backhaul, plus a **fluid** background
population (:class:`~repro.workloads.fluid.FluidCellLoad`) occupying
the radio arena, and run both architectures:

* **centralized EPC** — one MME/HSS in shard 0; every eNB's S1 crosses
  the city (and usually a shard boundary) over 30 ms backhaul, and all
  user data trombones to the core's packet gateway sink;
* **dLTE stubs** — a local core at every site: attach traffic and data
  break out locally, so shards exchange *nothing* and the simulation —
  like the architecture — is embarrassingly parallel.

The run decomposes over a :class:`~repro.simcore.sharded.ShardedSimulator`:
cells are striped into shards (:class:`~repro.deploy.partition.ShardPlan`),
S1 and backhaul become cross-shard proxies (:mod:`repro.net.shardlink`),
and the conservative window is the 30 ms backhaul latency. The result
table is **identical at any shard count and in either drive mode** —
shards are an execution detail, so the table carries no shard column;
``tests/test_e19_city.py`` holds that line byte-for-byte.

Under ``--invariants`` each shard's simulator is audited where it runs
(a fork shard verifies in its worker, at harvest) and the parent audits
the boundaries: every packet serialized onto a boundary link must be
received by its exit or still in flight past the horizon, and S1
message counts must balance per direction the same way.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.deploy.partition import ShardPlan
from repro.enodeb.cell import Cell
from repro.enodeb.relay import EnbControlRelay
from repro.epc.agents import ControlChannel
from repro.epc.centralized import CentralizedEpc
from repro.epc.stub import LocalCoreStub
from repro.epc.subscriber import make_profile
from repro.epc.ue import UeState, UserEquipment
from repro.metrics.stats import percentile
from repro.metrics.tables import ResultTable
from repro.net.addressing import AddressPool
from repro.net.packet import Packet
from repro.net.shardlink import (
    CrossShardChannel,
    CrossShardLink,
    CrossShardLinkExit,
)
from repro.phy.bands import get_band
from repro.phy.linkbudget import LinkBudget
from repro.phy.propagation import model_for_frequency
from repro.simcore.sharded import ShardBoundary, ShardHost, ShardedSimulator
from repro.simcore.simulator import Simulator
from repro.workloads.fluid import FluidCellLoad
from repro.workloads.topology import CityGrid

AIR_DELAY_S = 0.005
#: WAN backhaul to the centralized core — also the conservative lookahead.
BACKHAUL_DELAY_S = 0.030
#: local breakout at a dLTE site (metro switch, not a WAN)
LOCAL_BREAKOUT_DELAY_S = 0.002
LOCAL_S1_DELAY_S = 0.1e-3
STORM_WINDOW_S = 1.0
BACKHAUL_RATE_BPS = 100e6
DATA_PACKET_BYTES = 400
DATA_PACKET_SPACING_S = 0.02


class _PacketSink:
    """Terminal data-plane endpoint (the PGW's far side / local ISP)."""

    __slots__ = ("packets", "bytes")

    def __init__(self) -> None:
        self.packets = 0
        self.bytes = 0

    def take(self, packet: Packet) -> None:
        self.packets += 1
        self.bytes += packet.size_bytes


def _send_ping(sim: Simulator, link: CrossShardLink, ue: UserEquipment,
               seq: int) -> None:
    link.send(Packet(src=ue.ue_address, dst=None,
                     size_bytes=DATA_PACKET_BYTES,
                     flow_id=f"fg:{ue.name}", seq=seq,
                     created_at=sim.now))


def _start_train(sim: Simulator, link: CrossShardLink, ue: UserEquipment,
                 n_packets: int) -> None:
    for seq in range(n_packets):
        sim.schedule(seq * DATA_PACKET_SPACING_S, _send_ping, sim, link, ue, seq)


def _build_shard(spec: Dict[str, Any]) -> ShardHost:
    """Build one shard of the city (either architecture). Module-level
    and driven by a plain dict so the fork pool can ship it."""
    arch: str = spec["arch"]
    shard: int = spec["shard"]
    n_shards: int = spec["n_shards"]
    assignment = spec["assignment"]
    p: Dict[str, Any] = spec["params"]
    n_cells: int = p["n_cells"]
    ue_per_cell: int = p["ue_per_cell"]
    total_fg = n_cells * ue_per_cell
    centralized = arch == "centralized EPC"

    sim = Simulator(p["seed"])
    boundary = ShardBoundary(sim, shard, n_shards)
    positions = CityGrid(n_cells=n_cells,
                         spacing_m=p["cell_spacing_m"]).cell_positions()
    band = get_band("lte5")
    budget = LinkBudget(model_for_frequency(band.dl_mhz), band.dl_mhz,
                        band.bandwidth_hz)

    epc: Optional[CentralizedEpc] = None
    core_exits: Dict[str, CrossShardLinkExit] = {}
    core_sink = _PacketSink()
    mme_halves: Dict[int, CrossShardChannel] = {}
    if centralized and shard == 0:
        # The core city site: one EPC, S1 halves and data exits for
        # *every* cell in the city (local ones co-locate transparently).
        epc = CentralizedEpc(sim, AddressPool("10.0.0.0/12"))
        for g in range(total_fg):
            epc.provision(make_profile(f"9993{g:011d}"))
        for i in range(n_cells):
            half = CrossShardChannel(sim, boundary, epc.mme, f"enb{i}",
                                     remote_shard=assignment[i],
                                     one_way_delay_s=BACKHAUL_DELAY_S,
                                     name=f"s1:enb{i}")
            epc.mme.connect_enb(f"enb{i}", half)
            mme_halves[i] = half
            core_exits[f"bh:c{i}"] = CrossShardLinkExit(
                sim, boundary, f"bh:c{i}", core_sink.take)

    local_cells = [i for i in range(n_cells) if assignment[i] == shard]
    cells: Dict[int, Dict[str, Any]] = {}
    for i in local_cells:
        enb = EnbControlRelay(sim, f"enb{i}")
        stub: Optional[LocalCoreStub] = None
        if centralized:
            s1 = CrossShardChannel(sim, boundary, enb, "epc-mme",
                                   remote_shard=0,
                                   one_way_delay_s=BACKHAUL_DELAY_S,
                                   name=f"s1:enb{i}")
            enb.connect_core(s1)
            bh = CrossShardLink(sim, boundary, BACKHAUL_RATE_BPS,
                                BACKHAUL_DELAY_S, dst_shard=0,
                                name=f"bh:c{i}")
            exit_ = core_exits.get(f"bh:c{i}")  # only set when shard == 0
            sink = core_sink
        else:
            stub = LocalCoreStub(sim, f"stub{i}",
                                 AddressPool(f"10.{(i % 250) + 1}.0.0/16"))
            s1 = ControlChannel(sim, enb, stub, LOCAL_S1_DELAY_S, f"s1:{i}")
            enb.connect_core(s1)
            stub.connect_enb(s1)
            # local breakout: same proxy class, co-located, so the
            # conservation audit covers both architectures uniformly
            sink = _PacketSink()
            bh = CrossShardLink(sim, boundary, BACKHAUL_RATE_BPS,
                                LOCAL_BREAKOUT_DELAY_S, dst_shard=shard,
                                name=f"bh:c{i}")
            exit_ = CrossShardLinkExit(sim, boundary, f"bh:c{i}", sink.take)

        cell = Cell(f"cell{i}", band, positions[i], budget)
        fluid = FluidCellLoad(sim, cell, p["background_per_cell"],
                              p["demand_bps_per_ue"], epoch_s=p["epoch_s"],
                              jitter=p["jitter"])
        fluid.start(p["horizon_s"])

        ues: List[UserEquipment] = []
        for k in range(ue_per_cell):
            g = i * ue_per_cell + k
            profile = make_profile(f"9993{g:011d}")
            if stub is not None:
                stub.preload_key(profile.imsi, profile.key)
            ue = UserEquipment(sim, profile, name=f"ue{g}")
            air = ControlChannel(sim, ue, enb, AIR_DELAY_S, f"air:{g}")
            ue.connect_air(air)
            enb.attach_ue(ue.ue_id, air)
            if p["data_packets"]:
                ue.on_attached = (
                    lambda u, link=bh, n=p["data_packets"]:
                    _start_train(sim, link, u, n))
            sim.schedule(STORM_WINDOW_S * g / max(total_fg, 1),
                         ue.start_attach)
            ues.append(ue)
        cells[i] = {"enb": enb, "s1": s1, "bh": bh, "exit": exit_,
                    "stub": stub, "cell": cell, "fluid": fluid,
                    "ues": ues, "sink": sink}

    def harvest(host: ShardHost) -> Dict[str, Any]:
        out_cells = []
        for i in local_cells:
            c = cells[i]
            latencies = [ue.attach_latency_s for ue in c["ues"]
                         if ue.state is UeState.ATTACHED]
            fluid = c["fluid"]
            bh = c["bh"]
            entry = {
                "cell": i,
                "latencies": latencies,
                "failures": sum(1 for ue in c["ues"]
                                if ue.state is not UeState.ATTACHED),
                "bg_offered_bits": fluid.offered_bits,
                "bg_served_bits": fluid.served_bits,
                "bg_epochs": fluid.epochs,
                "s1_up_messages": c["s1"].messages,
                "s1_up_bytes": c["s1"].bytes,
                "s1_received": c["s1"].received
                if isinstance(c["s1"], CrossShardChannel) else None,
                "bh_offered": bh.offered,
                "bh_crossed": bh.crossed,
                "bh_dropped": bh.dropped,
                "bh_in_flight": bh.in_flight,
                "stub_peak_queue": (c["stub"].peak_queue_depth
                                    if c["stub"] is not None else None),
            }
            if c["exit"] is not None:
                entry["exit_received"] = c["exit"].received
            out_cells.append(entry)
        out: Dict[str, Any] = {"shard": shard, "cells": out_cells}
        if epc is not None:
            out["core"] = {
                "peak_queue": float(epc.mme.peak_queue_depth),
                "utilization": epc.mme.utilization(sim.now),
                "attached": epc.attached_ues,
            }
            out["exit_received"] = {name: ex.received
                                    for name, ex in core_exits.items()}
            out["s1_down"] = {i: {"messages": h.messages, "bytes": h.bytes,
                                  "received": h.received}
                              for i, h in mme_halves.items()}
        return out

    return ShardHost(sim, boundary, harvest=harvest)


def _merge_arm(arch: str, shard_results: List[Dict[str, Any]],
               sharded: ShardedSimulator, params: Dict[str, Any],
               ) -> Dict[str, Any]:
    """Combine per-shard harvests; all reductions run in global cell
    order so float sums match the monolithic (shards=1) run exactly."""
    by_cell = sorted((entry for result in shard_results
                      for entry in result["cells"]),
                     key=lambda entry: entry["cell"])
    latencies: List[float] = []
    for entry in by_cell:
        latencies.extend(entry["latencies"])
    failures = sum(entry["failures"] for entry in by_cell)
    bg_offered = sum(entry["bg_offered_bits"] for entry in by_cell)
    bg_served = sum(entry["bg_served_bits"] for entry in by_cell)
    s1_up_bytes = sum(entry["s1_up_bytes"] for entry in by_cell)
    crossed = sum(entry["bh_crossed"] for entry in by_cell)
    dropped = sum(entry["bh_dropped"] for entry in by_cell)

    if arch == "centralized EPC":
        core = next(r["core"] for r in shard_results if "core" in r)
        core_peak = core["peak_queue"]
        delivered = sum(next(r for r in shard_results if "exit_received" in r)
                        ["exit_received"].values())
        s1_down = next(r for r in shard_results if "s1_down" in r)["s1_down"]
        wan_ctl_bytes = s1_up_bytes + sum(h["bytes"] for h in s1_down.values())
    else:
        core_peak = float(max(entry["stub_peak_queue"] for entry in by_cell))
        delivered = sum(entry["exit_received"] for entry in by_cell)
        wan_ctl_bytes = 0
    return {
        "latencies": latencies,
        "failures": failures,
        "bg_offered_bits": bg_offered,
        "bg_served_bits": bg_served,
        "core_peak_queue": core_peak,
        "data_delivered": delivered,
        "data_crossed": crossed,
        "data_dropped": dropped,
        "wan_ctl_bytes": wan_ctl_bytes,
        "by_cell": by_cell,
        "shard_results": shard_results,
    }


def _audit_arm(arch: str, merged: Dict[str, Any],
               sharded: ShardedSimulator,
               assignment: Tuple[int, ...]) -> None:
    """Cross-boundary conservation: every packet/message that left its
    shard is received by its exit or withheld past the horizon —
    nothing is lost or duplicated at a window barrier.

    Only *cross-shard* flows are audited: a co-located proxy pair
    delivers through a single kernel event exactly as the monolithic
    run does, so its in-transit tail at the horizon lives in the local
    heap and is invisible to the end-point counters — and there is no
    window machinery on that path to audit in the first place. The
    ``undelivered`` records are cross-shard by construction, so the
    withheld sums need no extra filtering."""
    withheld: Dict[str, int] = {}
    for record in sharded.undelivered:
        withheld[record[5]] = withheld.get(record[5], 0) + 1
    exit_withheld = sum(count for key, count in withheld.items()
                        if key.endswith("@exit"))

    if arch != "centralized EPC":
        # dLTE's breakout links are all co-located; the only auditable
        # claim is that the window machinery never touched them
        if exit_withheld or withheld:
            raise RuntimeError(
                f"E19 {arch}: records crossed a shard boundary on an "
                f"architecture with none: {withheld}")
        return

    # data plane: cells homed outside the core's shard reach it over a
    # genuinely cross-shard backhaul link
    cross = [entry for entry in merged["by_cell"]
             if assignment[entry["cell"]] != 0]
    crossed = sum(entry["bh_crossed"] for entry in cross)
    exits = next(r for r in merged["shard_results"]
                 if "exit_received" in r)["exit_received"]
    received = sum(count for name, count in exits.items()
                   if assignment[int(name[len("bh:c"):])] != 0)
    if crossed != received + exit_withheld:
        raise RuntimeError(
            f"E19 {arch}: packet conservation violated at shard "
            f"boundaries: crossed={crossed}, exit-received={received}, "
            f"withheld-past-horizon={exit_withheld}")

    # control plane: the S1 halves of the same cross-homed cells
    s1_down = next(r for r in merged["shard_results"]
                   if "s1_down" in r)["s1_down"]
    up_sent = sum(entry["s1_up_messages"] for entry in cross)
    up_received = sum(h["received"] for i, h in s1_down.items()
                      if assignment[i] != 0)
    up_withheld = sum(count for key, count in withheld.items()
                      if key.endswith("@epc-mme"))
    if up_sent != up_received + up_withheld:
        raise RuntimeError(
            f"E19 {arch}: S1 uplink conservation violated: "
            f"sent={up_sent}, received={up_received}, "
            f"withheld={up_withheld}")
    down_sent = sum(h["messages"] for i, h in s1_down.items()
                    if assignment[i] != 0)
    down_received = sum(entry["s1_received"] for entry in cross)
    down_withheld = sum(
        count for key, count in withheld.items()
        if "@enb" in key and not key.endswith("@epc-mme"))
    if down_sent != down_received + down_withheld:
        raise RuntimeError(
            f"E19 {arch}: S1 downlink conservation violated: "
            f"sent={down_sent}, received={down_received}, "
            f"withheld={down_withheld}")


def run(n_cells: int = 12, ue_per_cell: int = 4,
        background_per_cell: int = 96, shards: int = 2,
        mode: str = "serial", seed: int = 7, horizon_s: float = 6.0,
        demand_bps_per_ue: float = 20e3, data_packets: int = 3,
        epoch_s: float = 0.1, jitter: float = 0.25,
        cell_spacing_m: float = 500.0) -> ResultTable:
    """City-scale attach storm + data + fluid background, both shapes.

    Defaults are a small city so the smoke path stays fast; the
    acceptance configuration is ``n_cells=200, ue_per_cell=8,
    background_per_cell=492`` — 10^5 UEs. ``shards``/``mode`` change
    only the execution schedule, never the table: per-cell results are
    merged in global cell order, so output is byte-identical at any
    shard count, serial or fork.
    """
    positions = CityGrid(n_cells=n_cells,
                         spacing_m=cell_spacing_m).cell_positions()
    plan = ShardPlan.stripes(positions, shards)
    params = {
        "n_cells": n_cells, "ue_per_cell": ue_per_cell,
        "background_per_cell": background_per_cell, "seed": seed,
        "horizon_s": horizon_s, "demand_bps_per_ue": demand_bps_per_ue,
        "data_packets": data_packets, "epoch_s": epoch_s,
        "jitter": jitter, "cell_spacing_m": cell_spacing_m,
    }
    table = ResultTable(
        f"E19: the city — {n_cells} cells, "
        f"{n_cells * (ue_per_cell + background_per_cell)} UEs "
        f"({ue_per_cell} foreground + {background_per_cell} fluid "
        f"background per cell)",
        ["architecture", "n_cells", "n_ues", "attached", "failures",
         "mean_attach_ms", "p95_attach_ms", "core_peak_queue",
         "data_delivered", "bg_served_mbit", "bg_utilization",
         "wan_ctl_mb"])
    for arch in ("centralized EPC", "dLTE stubs"):
        specs = [{"arch": arch, "shard": shard, "n_shards": plan.n_shards,
                  "assignment": plan.assignment, "params": params}
                 for shard in range(plan.n_shards)]
        sharded = ShardedSimulator(_build_shard, specs, mode=mode,
                                   label=f"E19:{arch}")
        shard_results = sharded.run(until=horizon_s)
        merged = _merge_arm(arch, shard_results, sharded, params)
        if Simulator.arming is not None:  # --invariants
            _audit_arm(arch, merged, sharded, plan.assignment)
        latencies = merged["latencies"]
        table.add_row(
            architecture=arch, n_cells=n_cells,
            n_ues=n_cells * (ue_per_cell + background_per_cell),
            attached=len(latencies), failures=merged["failures"],
            mean_attach_ms=(sum(latencies) / len(latencies) * 1e3
                            if latencies else float("nan")),
            p95_attach_ms=(percentile(latencies, 95) * 1e3
                           if latencies else float("nan")),
            core_peak_queue=merged["core_peak_queue"],
            data_delivered=merged["data_delivered"],
            bg_served_mbit=merged["bg_served_bits"] / 1e6,
            bg_utilization=(merged["bg_served_bits"]
                            / merged["bg_offered_bits"]
                            if merged["bg_offered_bits"] else 0.0),
            wan_ctl_mb=merged["wan_ctl_bytes"] / 1e6)
    return table
