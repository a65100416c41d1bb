"""F1 — Figure 1: the user-plane path, dLTE vs carrier LTE.

The figure's claim in numbers: dLTE hands traffic to the Internet at the
AP; carrier LTE tunnels every packet through a distant EPC first. We
build both networks over the same town and OTT server and measure ping
RTT, forwarding hops, tunnel overhead, and attach latency, sweeping the
EPC's distance (Internet access delay) to show the penalty growing while
dLTE stays flat.
"""

from __future__ import annotations

from typing import List

from repro.core.network import (CentralizedLTENetwork, DLTENetwork,
                                PrivateLTENetwork)
from repro.metrics.tables import ResultTable
from repro.workloads.topology import RuralTown


def run(n_ues: int = 8, epc_delays_s: List[float] = (0.010, 0.030, 0.060),
        seed: int = 1) -> ResultTable:
    """One row per (architecture, EPC distance)."""
    table = ResultTable(
        "F1: user-plane path comparison (dLTE vs carrier LTE)",
        ["architecture", "epc_delay_ms", "rtt_ms", "hops",
         "tunnel_overhead_B", "attach_ms"])
    town = RuralTown(radius_m=1500, n_ues=n_ues, n_aps=1, seed=seed)

    dlte = DLTENetwork.build(town, seed=seed).run()
    table.add_row(architecture="dLTE", epc_delay_ms="n/a",
                  rtt_ms=dlte.mean_rtt_s * 1e3,
                  hops=max(dlte.hop_counts.values()),
                  tunnel_overhead_B=0,
                  attach_ms=dlte.mean_attach_s * 1e3)

    for epc_delay in epc_delays_s:
        carrier = CentralizedLTENetwork.build(
            town, seed=seed, epc_access_delay_s=epc_delay).run()
        table.add_row(architecture="Telecom LTE",
                      epc_delay_ms=epc_delay * 1e3,
                      rtt_ms=carrier.mean_rtt_s * 1e3,
                      hops=max(carrier.hop_counts.values()),
                      tunnel_overhead_B=carrier.tunnel_overhead_bytes,
                      attach_ms=carrier.mean_attach_s * 1e3)
    return table


def local_breakout_ablation(seed: int = 1) -> ResultTable:
    """Ablation: dLTE's advantage is *local breakout*, not the stub alone.

    A private-LTE-style on-premises EPC (1 ms away) nearly closes the
    latency gap — showing the penalty is the tunnel's geometry, which is
    the architectural point of Fig. 1.
    """
    table = ResultTable(
        "F1 ablation: where the core sits",
        ["architecture", "core_location", "rtt_ms", "hops"])
    town = RuralTown(radius_m=1500, n_ues=6, n_aps=1, seed=seed)
    rows = [
        ("dLTE", "on the AP", DLTENetwork.build(town, seed=seed)),
        ("Private LTE", "on premises (1 ms)",
         PrivateLTENetwork.build(town, seed=seed)),
        ("Telecom LTE", "carrier DC (30 ms)",
         CentralizedLTENetwork.build(town, seed=seed)),
    ]
    for name, location, net in rows:
        report = net.run()
        table.add_row(architecture=name, core_location=location,
                      rtt_ms=report.mean_rtt_s * 1e3,
                      hops=max(report.hop_counts.values()))
    return table
