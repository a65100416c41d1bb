"""E9 — §4.3 / ref [28]: sizing X2 bandwidth, and minimizing it.

"The X2 interface is relatively low bandwidth, but when backhaul
constrained the level of coordination can be minimized."

We run the dLTE X2 vocabulary at different coordination levels (load-
report periods) over a full peer mesh and measure bytes/second per AP,
then express each level as a fraction of progressively thinner backhaul
links. The claim reproduced: even aggressive (100 ms) reporting is a few
kbit/s per peer — negligible beside user traffic — and the minimal mode
fits comfortably in a 64 kbps trickle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.coordination.x2 import (HandoverRequest, HandoverRequestAck,
                                   LoadInformation, X2Endpoint)
from repro.metrics.tables import ResultTable
from repro.simcore.simulator import Simulator

#: coordination levels: label -> load-report period (s)
LEVELS: List[Tuple[str, float]] = [
    ("aggressive (100 ms)", 0.100),
    ("standard (1 s)", 1.0),
    ("minimal (10 s)", 10.0),
]

BACKHAUL_BUDGETS_BPS = [64e3, 256e3, 1e6]


def _reporting_run(n_peers: int, period_s: float, duration_s: float,
                   seed: int) -> float:
    """Bytes/s of X2 traffic *sent by one AP* at a reporting period."""
    sim = Simulator(seed)
    endpoints = [X2Endpoint(sim, f"ap{i}") for i in range(n_peers)]
    for i in range(n_peers):
        for j in range(i + 1, n_peers):
            endpoints[i].connect_peer(endpoints[j], one_way_delay_s=0.02)

    def reporter(ep: X2Endpoint):
        while True:
            ep.broadcast(LoadInformation(sender_ap=ep.ap_id,
                                         prb_utilization=0.5,
                                         attached_ues=10))
            yield sim.timeout(period_s)

    for ep in endpoints:
        sim.process(reporter(ep), name=f"report:{ep.ap_id}")
    sim.run(until=duration_s)
    return endpoints[0].bytes_sent / duration_s


def run(peer_counts: Optional[List[int]] = None,
        duration_s: float = 60.0, seed: int = 4) -> ResultTable:
    """X2 bytes/s per AP by peer count and coordination level."""
    counts = peer_counts or [2, 4, 8, 16]
    table = ResultTable(
        "E9: X2 coordination bandwidth per AP (bytes/s)",
        ["n_peers"] + [label for label, _p in LEVELS])
    for n_peers in counts:
        row: Dict[str, object] = {"n_peers": n_peers}
        for label, period in LEVELS:
            row[label] = _reporting_run(n_peers, period, duration_s, seed)
        table.add_row(**row)
    return table


def backhaul_fit(n_peers: int = 8, duration_s: float = 60.0,
                 seed: int = 4) -> ResultTable:
    """Fraction of thin backhaul each coordination level consumes."""
    table = ResultTable(
        f"E9: coordination share of constrained backhaul ({n_peers} peers)",
        ["level", "x2_bps"] +
        [f"of_{int(b/1e3)}kbps_pct" for b in BACKHAUL_BUDGETS_BPS])
    for label, period in LEVELS:
        rate_Bps = _reporting_run(n_peers, period, duration_s, seed)
        rate_bps = rate_Bps * 8.0
        row: Dict[str, object] = {"level": label, "x2_bps": rate_bps}
        for budget in BACKHAUL_BUDGETS_BPS:
            row[f"of_{int(budget/1e3)}kbps_pct"] = 100.0 * rate_bps / budget
        table.add_row(**row)
    return table


def handover_burst_bytes() -> float:
    """One X2 handover's worth of signaling (request + ack), bytes."""
    return (HandoverRequest(sender_ap="a").size_bytes
            + HandoverRequestAck(sender_ap="b").size_bytes)
