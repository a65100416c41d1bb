"""E9 — §4.3 / ref [28]: sizing X2 bandwidth, and minimizing it.

"The X2 interface is relatively low bandwidth, but when backhaul
constrained the level of coordination can be minimized."

Every AP of a full peer mesh broadcasts one ``LoadInformation`` to each
of its n − 1 peers per load-report period; the period is the
coordination level. The bytes/second one AP sends are computed from the
X2 message catalogue (:mod:`repro.coordination.x2`), not simulated::

    rate = ticks · (n − 1) · LoadInformation.size_bytes / duration_s

``ticks`` is the number of reports sent in ``[0, duration_s]`` by a
reporter whose clock accumulates ``period_s`` in floats, as a simulated
one does: 600 at 100 ms over 60 s (not ``floor(60 / 0.1) + 1`` = 601),
61 at 1 s and 7 at 10 s. Each level is then expressed as a fraction of
progressively thinner backhaul links. The claim reproduced: even
aggressive (100 ms) reporting is a few kbit/s per peer — negligible
beside user traffic — and the minimal mode fits comfortably in a
64 kbps trickle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.coordination.x2 import (HandoverRequest, HandoverRequestAck,
                                   LoadInformation)
from repro.metrics.tables import ResultTable

#: coordination levels: label -> load-report period (s)
LEVELS: List[Tuple[str, float]] = [
    ("aggressive (100 ms)", 0.100),
    ("standard (1 s)", 1.0),
    ("minimal (10 s)", 10.0),
]

BACKHAUL_BUDGETS_BPS = [64e3, 256e3, 1e6]


def _report_rate(n_peers: int, period_s: float, duration_s: float) -> float:
    """Bytes/s of X2 traffic *sent by one AP* at a reporting period."""
    if n_peers < 1:
        raise ValueError(f"n_peers must be >= 1, got {n_peers}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    ticks, t = 0, 0.0
    while t <= duration_s:
        ticks += 1
        t = t + period_s
    return ticks * ((n_peers - 1) * LoadInformation.size_bytes) / duration_s


def run(peer_counts: Optional[List[int]] = None,
        duration_s: float = 60.0) -> ResultTable:
    """X2 bytes/s per AP by peer count and coordination level."""
    counts = peer_counts or [2, 4, 8, 16]
    table = ResultTable(
        "E9: X2 coordination bandwidth per AP (bytes/s)",
        ["n_peers"] + [label for label, _p in LEVELS])
    for n_peers in counts:
        row: Dict[str, object] = {"n_peers": n_peers}
        for label, period in LEVELS:
            row[label] = _report_rate(n_peers, period, duration_s)
        table.add_row(**row)
    return table


def backhaul_fit(n_peers: int = 8, duration_s: float = 60.0) -> ResultTable:
    """Fraction of thin backhaul each coordination level consumes."""
    table = ResultTable(
        f"E9: coordination share of constrained backhaul ({n_peers} peers)",
        ["level", "x2_bps"] +
        [f"of_{int(b/1e3)}kbps_pct" for b in BACKHAUL_BUDGETS_BPS])
    for label, period in LEVELS:
        rate_Bps = _report_rate(n_peers, period, duration_s)
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
