"""E6 — §4.2 "Service Mobility": handover cost vs client speed.

A client drives a road past a string of APs while downloading from an
OTT server. Three arms, same road, same transport workload:

* **carrier LTE** — the MME masks mobility: the client's IP never
  changes; each handover costs a short radio blackout plus the S-GW
  path-switch update (tunnel re-pointing at an anchor).
* **dLTE + TCP** — each AP change renumbers the client; TCP's 4-tuple
  dies, and the flow pays RTO detection + re-handshake + slow start.
* **dLTE + QUIC** — renumbering too, but the connection ID survives;
  cost is the radio blackout plus one migration probe.

The paper's predicted breakdown — dLTE degrades "as the client's time on
a single AP approaches the same order of magnitude as a round trip to an
in use OTT service" — appears as the dwell/RTT ratio column: QUIC-dLTE
tracks carrier LTE until dwell/RTT nears ~1, and TCP-dLTE collapses far
earlier.
"""

from __future__ import annotations

import ipaddress
from typing import Dict, List, Optional, Type

from repro.metrics.tables import ResultTable
from repro.net.addressing import AddressPool
from repro.runner import parallel_map
from repro.net.internet import InternetCore
from repro.net.nodes import Host, Router
from repro.simcore.simulator import Simulator
from repro.transport.base import TransportConnection, TransportDemux
from repro.transport.apps import BulkTransferApp
from repro.transport.quic import QuicConnection, QuicListener
from repro.transport.tcp import TcpConnection, TcpListener

SERVER_ADDR = ipaddress.IPv4Address("203.0.113.10")

#: radio-level interruption of any handover (RRC reconfig + sync)
RADIO_BLACKOUT_S = 0.040
#: extra dLTE cost: re-attach against the local stub (cached keys)
DLTE_REATTACH_S = 0.035
#: re-attach when the source AP pre-shipped the UE context over X2
X2_ASSISTED_REATTACH_S = 0.010
#: extra carrier cost: S-GW path switch round trip at the anchor
CARRIER_PATH_SWITCH_S = 0.050


class CorridorHarness:
    """The road: N AP gateways, an anchor (for the carrier arm), a server."""

    #: client radio rate; rural-realistic and keeps event counts sane
    CLIENT_RATE_BPS = 8e6

    def __init__(self, n_aps: int = 4, seed: int = 1,
                 ap_backhaul_delay_s: float = 0.020,
                 server_access_delay_s: float = 0.010,
                 anchor_access_delay_s: float = 0.030) -> None:
        self.sim = Simulator(seed)
        sim = self.sim
        self.internet = InternetCore(sim)
        self.n_aps = n_aps
        self.ap_routers: List[Router] = []
        self.ap_pools: List[AddressPool] = []
        for i in range(n_aps):
            router = Router(sim, f"ap{i}")
            self.internet.attach(router, f"10.{i + 1}.0.0/16",
                                 access_delay_s=ap_backhaul_delay_s)
            self.ap_routers.append(router)
            self.ap_pools.append(AddressPool(f"10.{i + 1}.0.0/16"))
        # carrier anchor: the S-GW/P-GW the carrier arm's address homes to.
        # Downlink detours internet -> anchor -> (tunnel leg) -> serving AP;
        # the tunnel leg is a direct link whose delay is the anchor-to-AP
        # Internet path it stands for.
        self.anchor = Router(sim, "anchor")
        self.internet.attach(self.anchor, "10.200.0.0/16",
                             access_delay_s=anchor_access_delay_s)
        tunnel_leg_delay = anchor_access_delay_s + ap_backhaul_delay_s
        for router in self.ap_routers:
            self.anchor.connect_bidirectional(router, rate_bps=1e9,
                                              delay_s=tunnel_leg_delay)
        server_edge = Router(sim, "server-edge")
        self.internet.attach(server_edge, "203.0.113.0/24",
                             access_delay_s=server_access_delay_s)
        self.server = Host(sim, "server", SERVER_ADDR)
        self.server.connect_bidirectional(server_edge, rate_bps=1e9,
                                          delay_s=0.5e-3)
        server_edge.add_route(f"{SERVER_ADDR}/32", "server")
        self.client = Host(sim, "client")
        self.client_demux = TransportDemux(self.client)
        self.server_demux = TransportDemux(self.server)
        self.anchor_pool = AddressPool("10.200.0.0/16")
        self._current_ap: Optional[int] = None
        self._overlap_ap: Optional[int] = None

    # -- attachment plumbing ---------------------------------------------------------

    def attach_dlte(self, ap_index: int) -> ipaddress.IPv4Address:
        """Local-breakout attach: new address from the AP's own pool."""
        self._detach()
        router = self.ap_routers[ap_index]
        self.client.connect_bidirectional(router, rate_bps=self.CLIENT_RATE_BPS,
                                          delay_s=5e-3)
        self.client.default_gateway = router.name
        address = self.ap_pools[ap_index].allocate()
        self.client.addresses = [address]
        router.add_route(f"{address}/32", "client")
        self._current_ap = ap_index
        return address

    def attach_carrier(self, ap_index: int,
                       address: Optional[ipaddress.IPv4Address] = None
                       ) -> ipaddress.IPv4Address:
        """Anchored attach: address stays in the anchor's prefix.

        Downlink: internet -> anchor -> internet -> serving AP -> client
        (the tunnel triangle). Uplink goes straight out from the AP, like
        real S1-U uplink through the same anchor — we keep uplink direct
        because the E6 measurement is the downlink flow.
        """
        old_index = self._current_ap
        self._detach()
        router = self.ap_routers[ap_index]
        self.client.connect_bidirectional(router, rate_bps=self.CLIENT_RATE_BPS,
                                          delay_s=5e-3)
        self.client.default_gateway = router.name
        if address is None:
            address = self.anchor_pool.allocate()
        self.client.addresses = [address]
        # path switch: the anchor re-points the tunnel at the serving AP
        for ap in self.ap_routers:
            self.anchor.remove_routes_to(ap.name)
        self.anchor.add_route(f"{address}/32", router.name)
        # clear any stale forwarding route from a previous visit (it
        # would shadow the client route and loop via the anchor)
        router.remove_routes_to("anchor")
        router.add_route(f"{address}/32", "client")
        if old_index is not None and old_index != ap_index:
            # X2-style data forwarding: stragglers that still arrive at
            # the source AP chase the UE via the anchor (which now points
            # at the target), instead of being dropped
            self.ap_routers[old_index].add_route(f"{address}/32", "anchor")
        self._current_ap = ap_index
        return address

    def attach_dlte_overlap(self, ap_index: int) -> ipaddress.IPv4Address:
        """Client-managed soft handoff: hold both APs during the switch.

        §4.2 cites transports with "multiple IP address support for
        client managed handoff": the client associates with the target
        AP *before* leaving the source, so there is no radio blackout at
        all — the transport migrates to the new address while the old
        path still works, then the old attachment is dropped with
        :meth:`drop_overlap`.
        """
        router = self.ap_routers[ap_index]
        self.client.connect_bidirectional(router,
                                          rate_bps=self.CLIENT_RATE_BPS,
                                          delay_s=5e-3)
        address = self.ap_pools[ap_index].allocate()
        router.add_route(f"{address}/32", "client")
        # new address becomes primary; the old one stays reachable
        self.client.addresses = [address] + self.client.addresses
        self.client.default_gateway = router.name
        self._overlap_ap, self._current_ap = self._current_ap, ap_index
        return address

    def drop_overlap(self) -> None:
        """Release the source AP of a soft handoff."""
        old_index = getattr(self, "_overlap_ap", None)
        if old_index is None:
            return
        old = self.ap_routers[old_index]
        # routes first: that re-decides packets inside the forwarding delay
        old.remove_routes_to("client")
        self.client.links.pop(old.name, None)
        old.links.pop("client", None)
        if len(self.client.addresses) > 1:
            self.client.addresses = self.client.addresses[:1]
        self._overlap_ap = None

    def _detach(self) -> None:
        if self._current_ap is None:
            return
        old = self.ap_routers[self._current_ap]
        # routes first: that re-decides packets inside the forwarding delay
        old.remove_routes_to("client")
        self.client.links.pop(old.name, None)
        old.links.pop("client", None)
        self._current_ap = None


def _drive(harness: CorridorHarness, arm: str, app: BulkTransferApp,
           dwell_s: float, n_handovers: int):
    """The road trip: handover every ``dwell_s`` seconds."""
    sim = harness.sim
    ap = 0
    for _ in range(n_handovers):
        yield sim.timeout(dwell_s)
        target = (ap + 1) % harness.n_aps
        if arm == "carrier":
            # make-before-break with X2 data forwarding: the old path
            # keeps delivering while the path switch completes, so the
            # transport sees at most a delay bump, never a loss burst
            yield sim.timeout(RADIO_BLACKOUT_S + CARRIER_PATH_SWITCH_S)
            harness.attach_carrier(target, harness.client.addresses[0]
                                   if harness.client.addresses else None)
            # IP unchanged: the transport never notices
        elif arm == "dlte-quic-x2":
            # X2-assisted: the source AP pre-transfers the security
            # context (an X2 HandoverRequest carrying the cached key),
            # so the target stub admits the client in one local exchange
            harness._detach()
            yield sim.timeout(RADIO_BLACKOUT_S + X2_ASSISTED_REATTACH_S)
            new_addr = harness.attach_dlte(target)
            app.on_address_change(new_addr)
        elif arm == "dlte-quic-mbb":
            # client-managed soft handoff: attach to the target first
            # (the stub re-attach runs while the old AP still serves),
            # migrate, then drop the source — zero blackout
            yield sim.timeout(DLTE_REATTACH_S)
            new_addr = harness.attach_dlte_overlap(target)
            app.on_address_change(new_addr)
            yield sim.timeout(0.200)  # overlap window
            harness.drop_overlap()
        else:
            # dLTE is break-before-make: radio gap + stub re-attach,
            # then a brand-new address
            harness._detach()
            yield sim.timeout(RADIO_BLACKOUT_S + DLTE_REATTACH_S)
            new_addr = harness.attach_dlte(target)
            app.on_address_change(new_addr)
        ap = target


def _run_arm(arm: str, dwell: float, seed: int = 1,
             n_handovers: int = 4) -> Dict[str, float]:
    """One (arm, dwell) cell: returns throughput and stall stats."""
    harness = CorridorHarness(n_aps=4, seed=seed)
    sim = harness.sim
    if arm == "carrier":
        harness.attach_carrier(0)
        conn_cls: Type[TransportConnection] = QuicConnection  # modern stack
        QuicListener(sim, harness.server_demux)
    elif arm == "dlte-tcp":
        harness.attach_dlte(0)
        conn_cls = TcpConnection
        TcpListener(sim, harness.server_demux)
    elif arm in ("dlte-quic", "dlte-quic-x2", "dlte-quic-mbb"):
        harness.attach_dlte(0)
        conn_cls = QuicConnection
        QuicListener(sim, harness.server_demux)
    else:
        raise ValueError(f"unknown arm {arm!r}")

    app = BulkTransferApp(sim, harness.client_demux, SERVER_ADDR, conn_cls,
                          total_bytes=10**9)  # never finishes: measure rate
    app.start()
    warmup = 1.0
    sim.run(until=warmup)
    start_bytes = app._acked_total()
    sim.process(_drive(harness, arm, app, dwell, n_handovers))
    duration = dwell * n_handovers + 1.0
    sim.run(until=warmup + duration)
    delivered = app._acked_total() - start_bytes
    stalls = [t1 - t0 for t0, t1 in app.stall_intervals(min_gap_s=0.15)]
    return {
        "throughput_bps": delivered * 8.0 / duration,
        "worst_stall_s": max(stalls, default=0.0),
        "total_stall_s": sum(stalls),
        "reconnects": float(app.reconnects),
        "dwell_s": dwell,
        "window_s": duration,
    }


def _run_cell(task) -> Dict[str, float]:
    """Picklable cell body for :func:`repro.runner.supervisor.parallel_map`."""
    arm, dwell, seed, n_handovers = task
    return _run_arm(arm, dwell, seed=seed, n_handovers=n_handovers)


def run(dwells_s: Optional[List[float]] = None,
        ap_spacing_m: float = 1000.0, seed: int = 1) -> ResultTable:
    """Throughput + stalls vs per-AP dwell time for the three arms.

    ``speed_m_s`` in the output is the road speed implying each dwell at
    the given AP spacing (speed = spacing / dwell); sweeping dwell
    directly keeps the packet-level simulation tractable at walking
    speeds while still covering the paper's breakdown regime.

    The (arm, dwell) cells are independent simulations with fixed
    per-cell seeds, so under ``--jobs N`` they fan out over workers
    (dwell as the cost hint: the 30 s cells dominate) and the table is
    byte-identical to a serial run.
    """
    dwells = dwells_s or [30.0, 10.0, 3.0, 1.0]
    table = ResultTable(
        "E6: mobility — flow disruption vs client speed "
        f"(AP spacing {ap_spacing_m:g} m)",
        ["arm", "speed_m_s", "dwell_s", "dwell_over_rtt",
         "throughput_mbps", "worst_stall_s", "stall_fraction",
         "reconnects"])
    ott_rtt = 0.07  # measured: client <-> server over this harness
    cells = [(arm, dwell, seed, 4)
             for arm in ("carrier", "dlte-tcp", "dlte-quic")
             for dwell in dwells]
    results = parallel_map(_run_cell, cells,
                           costs=[dwell for _, dwell, _, _ in cells])
    for (arm, dwell, _, _), stats in zip(cells, results):
        table.add_row(
            arm=arm, speed_m_s=ap_spacing_m / dwell,
            dwell_s=stats["dwell_s"],
            dwell_over_rtt=stats["dwell_s"] / ott_rtt,
            throughput_mbps=stats["throughput_bps"] / 1e6,
            worst_stall_s=stats["worst_stall_s"],
            stall_fraction=stats["total_stall_s"] / stats["window_s"],
            reconnects=stats["reconnects"])
    return table


def make_before_break(dwells_s: Optional[List[float]] = None) -> ResultTable:
    """§4.2 extension: hard vs soft handoff over QUIC.

    The soft (make-before-break) variant holds both APs through the
    switch, eliminating the radio blackout entirely — multiple-address
    support doing exactly what the paper hopes.
    """
    dwells = dwells_s or [3.0, 1.0]
    table = ResultTable(
        "E6 extension: the dLTE handoff ladder "
        "(hard / X2-assisted / make-before-break)",
        ["arm", "dwell_s", "throughput_mbps", "worst_stall_s",
         "stall_fraction"])
    cells = [(arm, dwell, 1, 4)
             for arm in ("dlte-quic", "dlte-quic-x2", "dlte-quic-mbb")
             for dwell in dwells]
    results = parallel_map(_run_cell, cells,
                           costs=[dwell for _, dwell, _, _ in cells])
    for (arm, dwell, _, _), stats in zip(cells, results):
        table.add_row(arm=arm, dwell_s=dwell,
                      throughput_mbps=stats["throughput_bps"] / 1e6,
                      worst_stall_s=stats["worst_stall_s"],
                      stall_fraction=(stats["total_stall_s"]
                                      / stats["window_s"]))
    return table


def quic_0rtt_ablation(dwell_s: float = 5.0) -> ResultTable:
    """Ablation: reconnect-handshake cost — TCP+TLS (2 RTT + RTO
    detection) vs QUIC 0-RTT migration; each saved round trip shows up
    directly in the stall numbers.
    """
    table = ResultTable(
        "E6 ablation: reconnect handshake cost",
        ["arm", "worst_stall_s", "throughput_mbps"])
    cells = [(arm, dwell_s, 1, 4) for arm in ("dlte-tcp", "dlte-quic")]
    results = parallel_map(_run_cell, cells)
    for (arm, _, _, _), stats in zip(cells, results):
        table.add_row(arm=arm, worst_stall_s=stats["worst_stall_s"],
                      throughput_mbps=stats["throughput_bps"] / 1e6)
    return table
