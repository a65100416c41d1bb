"""Buildable, runnable networks for all four architectures.

Every network follows the same lifecycle::

    net = DLTENetwork.build(RuralTown(...), seed=1)
    report = net.run(duration_s=10.0)
    print(report.summary())

``build`` assembles topology + substrate; ``run`` executes three phases
and returns a :class:`NetworkReport`:

1. **control phase** — spectrum registration/peering (where applicable)
   and every UE's attach procedure, timed individually;
2. **radio phase** — per-TTI downlink scheduling (LTE) or CSMA contention
   (WiFi) to measure per-UE goodput;
3. **path phase** — pings from client hosts to an OTT server across the
   simulated Internet, measuring RTT, hop count, and tunnel overhead.
"""

from __future__ import annotations

import ipaddress
from typing import Dict, List, Optional

from repro.coordination.icic import reuse_partition
from repro.coordination.mesh import mesh_link_rate_bps
from repro.core.access_point import AIR_DELAY_S, DLTEAccessPoint
from repro.core.capabilities import ArchitectureCapabilities
from repro.core.datapath import EnbDataPlane, EpcDataPlane
from repro.core.report import NetworkReport
from repro.enodeb.cell import Cell, UeRadioContext
from repro.enodeb.relay import EnbControlRelay
from repro.epc.agents import ControlAgent, ControlChannel
from repro.epc.centralized import CentralizedEpc
from repro.epc.keys import PublishedKeyRegistry
from repro.epc.subscriber import make_profile
from repro.epc.ue import UeState, UserEquipment
from repro.geo.points import Point
from repro.mac.csma import CsmaNode, CsmaSimulation
from repro.net.addressing import AddressPool
from repro.net.internet import InternetCore
from repro.net.nodes import Host, Router
from repro.net.packet import Packet
from repro.net.tunnel import GTP_HEADER_BYTES
from repro.phy.bands import get_band
from repro.phy.linkbudget import LinkBudget, Radio
from repro.phy.mcs import wifi_rate_for_snr
from repro.phy.propagation import model_for_frequency
from repro.simcore.simulator import Simulator
from repro.spectrum.sas import SasRegistry
from repro.workloads.topology import RuralTown

SERVER_PREFIX = "203.0.113.0/24"
SERVER_ADDR = ipaddress.IPv4Address("203.0.113.10")
#: TTIs simulated in the radio phase (200 ms of scheduling).
RADIO_PHASE_TTIS = 200


def iter_control_agents(net) -> List[ControlAgent]:
    """The attach-path agents of an LTE build, in a fixed order: UEs,
    then per-AP stubs and eNB relays (dLTE) or MME/HSS/S-GW/P-GW and the
    eNB relays (centralized) — what E17's shed accounting sums over."""
    agents: List[ControlAgent] = [net.ues[name] for name in sorted(net.ues)]
    if isinstance(net, DLTENetwork):
        for ap_id in sorted(net.aps):
            agents += [net.aps[ap_id].stub, net.aps[ap_id].enb]
    else:
        epc = net.epc
        agents += [epc.mme, epc.hss, epc.sgw, epc.pgw]
        agents += [net.enb_relays[name] for name in sorted(net.enb_relays)]
    return agents


class _BaseNetwork:
    """Shared assembly: Internet core, OTT server, UE bookkeeping."""

    CAPABILITIES: ArchitectureCapabilities  # set by subclasses

    def __init__(self, sim: Simulator, town: RuralTown) -> None:
        self.sim = sim
        self.town = town
        self.internet = InternetCore(sim)
        # the OTT service the town's users actually talk to
        self.server_edge = Router(sim, "server-edge")
        self.internet.attach(self.server_edge, SERVER_PREFIX,
                             access_delay_s=0.005)
        self.server = Host(sim, "ott-server", SERVER_ADDR)
        self.server.connect_bidirectional(self.server_edge, rate_bps=1e9,
                                          delay_s=0.5e-3)
        self.server_edge.add_route(f"{SERVER_ADDR}/32", "ott-server")
        self._echo_hops: Dict[int, int] = {}
        self.server.on_packet = self._server_echo
        self.ue_hosts: Dict[str, Host] = {}
        self.ue_radios: Dict[str, Radio] = {}

    # -- OTT server ping service ---------------------------------------------------

    def _server_echo(self, packet: Packet) -> None:
        payload = packet.payload
        if not (isinstance(payload, dict) and payload.get("kind") == "ping"):
            return
        reply = Packet(src=self.server.address, dst=packet.src,
                       size_bytes=packet.size_bytes,
                       payload={"kind": "pong", "t0": payload["t0"],
                                "request_hops": packet.hop_count},
                       created_at=self.sim.now)
        self.server.send(reply)

    def _ping_phase(self, report: NetworkReport,
                    sample: Optional[int] = 10) -> None:
        """Ping the server from up to ``sample`` client hosts."""
        targets = sorted(self.ue_hosts)[:sample]
        pending = {}

        def make_handler(ue_id: str, host: Host):
            def on_packet(packet: Packet) -> None:
                payload = packet.payload
                if isinstance(payload, dict) and payload.get("kind") == "pong":
                    report.rtt_s[ue_id] = self.sim.now - payload["t0"]
                    report.hop_counts[ue_id] = payload["request_hops"]
            return on_packet

        for ue_id in targets:
            host = self.ue_hosts[ue_id]
            if host.address is None:
                continue
            host.on_packet = make_handler(ue_id, host)
            ping = Packet(src=host.address, dst=SERVER_ADDR, size_bytes=100,
                          payload={"kind": "ping", "t0": self.sim.now},
                          created_at=self.sim.now)
            host.send(ping)
            pending[ue_id] = True
        self.sim.run(until=self.sim.now + 5.0)

    # -- interface -----------------------------------------------------------------------

    def run(self, duration_s: float = 10.0) -> NetworkReport:
        """Execute all phases; subclasses implement the specifics."""
        raise NotImplementedError


class DLTENetwork(_BaseNetwork):
    """The paper's architecture: federated APs with local cores."""

    CAPABILITIES = ArchitectureCapabilities(
        name="dLTE", open_core=True, licensed_radio=True,
        coordinated_spectrum=True, in_network_mobility=False,
        link_layer_security=False, central_billing=False,
        pstn_interconnect=False, organic_growth=True)

    def __init__(self, sim: Simulator, town: RuralTown) -> None:
        super().__init__(sim, town)
        self.aps: Dict[str, DLTEAccessPoint] = {}
        self.ues: Dict[str, UserEquipment] = {}
        self.key_registry: Optional[PublishedKeyRegistry] = None
        self.spectrum_registry = None
        self._serving_ap: Dict[str, str] = {}

    @classmethod
    def build(cls, town: RuralTown, band_name: str = "lte5",
              seed: int = 0) -> "DLTENetwork":
        """Assemble a dLTE federation over a town: its APs split the
        grid by fair sharing once they are licensed and peered."""
        sim = Simulator(seed)
        net = cls(sim, town)
        band = get_band(band_name)
        net.key_registry = PublishedKeyRegistry(sim, lookup_rtt_s=0.05)
        net.spectrum_registry = SasRegistry(sim)

        for i, position in enumerate(town.ap_positions()):
            ap = DLTEAccessPoint(
                sim, f"ap{i}", position, band, net.internet,
                net.spectrum_registry, net.key_registry,
                pool_prefix=f"10.{i + 1}.0.0/16",
                backhaul_delay_s=town.backhaul_delay_s,
                backhaul_rate_bps=town.backhaul_rate_bps)
            net.aps[ap.ap_id] = ap

        ue_positions = town.ue_positions()
        for j, position in enumerate(ue_positions):
            profile = make_profile(f"9990100000{j:05d}", published=True)
            net.key_registry.publish(profile)
            ue = UserEquipment(sim, profile, name=f"ue{j}")
            host = Host(sim, f"ue{j}-host")
            radio = Radio(position, tx_power_dbm=23, height_m=1.5,
                          ul_papr_advantage_db=3.0)
            net.ues[ue.ue_id] = ue
            net.ue_hosts[ue.ue_id] = host
            net.ue_radios[ue.ue_id] = radio
            ap = net._nearest_ap(position)
            net._serving_ap[ue.ue_id] = ap.ap_id
            ap.connect_ue(ue, host, radio)
        if sim.checker is not None:  # the one law over a *set* of APs
            sim.checker.watch_federation(net.aps, net.spectrum_registry)
        return net

    def _nearest_ap(self, position: Point) -> DLTEAccessPoint:
        return min(self.aps.values(),
                   key=lambda ap: ap.position.distance_to(position))

    # -- §7 future work: multi-hop backhaul sharing --------------------------------

    def enable_mesh(self) -> None:
        """Build inter-AP radio links so APs can relay for each other.

        Every AP pair gets a point-to-point link whose rate comes from
        the elevated-antenna link budget at their separation (see
        ``repro.coordination.mesh.mesh_link_rate_bps``);
        pairs whose link budget yields no rate stay unconnected.
        """
        ap_list = list(self.aps.values())
        for i, a in enumerate(ap_list):
            for b in ap_list[i + 1:]:
                rate = mesh_link_rate_bps(
                    a.position.distance_to(b.position))
                if rate <= 0:
                    continue
                a.router.connect_bidirectional(b.router, rate_bps=rate,
                                               delay_s=2e-3)

    def fail_backhaul(self, ap_id: str) -> None:
        """Cut one AP's Internet uplink; mesh (if enabled) takes over.

        The failed AP re-points its default route at a mesh neighbour;
        the neighbour routes the failed AP's client prefix back over the
        radio link; the Internet re-learns the prefix via the surviving
        gateway. Raises if the AP is isolated (no mesh links).
        """
        ap = self.aps[ap_id]
        # sever the uplink both ways (routes first: that re-decides the
        # packets still inside the core's forwarding delay)
        self.internet.remove_routes_to(ap.router.name)
        ap.router.links.pop(self.internet.name, None)
        self.internet.links.pop(ap.router.name, None)
        # pick the surviving mesh neighbour (a peer AP router we still link)
        neighbors = [other for other in self.aps.values()
                     if other.ap_id != ap_id
                     and other.router.name in ap.router.links
                     and self.internet.links.get(other.router.name)
                     is not None]
        if not neighbors:
            raise RuntimeError(
                f"{ap_id} has no mesh path to a surviving gateway; call "
                f"enable_mesh() before failing backhaul")
        gateway = min(neighbors,
                      key=lambda o: ap.position.distance_to(o.position))
        ap.router.default_route = gateway.router.name
        gateway.router.add_route(str(ap.pool.network), ap.router.name)
        self.internet.add_route(str(ap.pool.network), gateway.router.name)

    # -- fault injection (E16 resilience) ---------------------------------------------

    def crash_ap(self, ap_id: str) -> None:
        """Power-fail one site: its stub, sessions, and clients go dark.

        Only this AP's UEs lose service — the federation's survivors keep
        running and, via their peer monitors, reclaim the spectrum.
        """
        self.aps[ap_id].crash()

    def restart_ap(self, ap_id: str,
                   retry_kwargs: Optional[dict] = None) -> None:
        """Power-restore a crashed site and bring its clients back.

        The AP replays its §4.3 lifecycle (license, peering, monitor);
        each UE it was serving reconnects at the radio and re-attaches
        under retry supervision (so clients that race the control-plane
        recovery back off and try again).
        """
        ap = self.aps[ap_id]
        ap.restart(directory=self.aps)
        kwargs = retry_kwargs or {}
        for ue_id, serving in self._serving_ap.items():
            if serving != ap_id:
                continue
            ue = self.ues[ue_id]
            ap.connect_ue(ue, self.ue_hosts[ue_id], self.ue_radios[ue_id])
            ue.start_attach_with_retry(**kwargs)

    # -- phases -----------------------------------------------------------------------

    def license_and_peer(self) -> None:
        """§4.3 bring-up: every AP licenses its spectrum, then all peer.

        Peering starts once the last grant is in; runs the clock 2 s.
        """
        granted = {"n": 0}

        def on_granted(_ok: bool) -> None:
            granted["n"] += 1
            if granted["n"] == len(self.aps):
                for ap in self.aps.values():
                    ap.discover_and_peer(self.aps)

        for ap in self.aps.values():
            ap.register_spectrum(on_granted)
        self.sim.run(until=self.sim.now + 2.0)

    def _control_phase(self, report: NetworkReport) -> None:
        self.license_and_peer()

        # stagger attaches slightly to avoid a synthetic thundering herd
        for k, ue in enumerate(self.ues.values()):
            self.sim.schedule(0.010 * k, ue.start_attach)
        self.sim.run(until=self.sim.now + 5.0 + 0.010 * len(self.ues))

        for ue in self.ues.values():
            if ue.state is UeState.ATTACHED:
                report.attach_latencies_s.append(ue.attach_latency_s)
            else:
                report.attach_failures += 1

        report.control_bytes = sum(ap.x2.bytes_sent for ap in self.aps.values())

    def _radio_phase(self, report: NetworkReport) -> None:
        results = {ap_id: [] for ap_id in self.aps}
        for _ in range(RADIO_PHASE_TTIS):
            for ap_id, ap in self.aps.items():
                results[ap_id].append(ap.cell.schedule_tti())
        for ap_id, ap in self.aps.items():
            report.throughput_bps.update(ap.cell.throughput_bps(results[ap_id]))

    def run(self, duration_s: float = 10.0) -> NetworkReport:
        report = NetworkReport(architecture="dLTE", n_aps=len(self.aps),
                               n_ues=len(self.ues))
        self._control_phase(report)
        self._radio_phase(report)
        self._ping_phase(report)
        report.extras["registry_fetches"] = sum(
            ap.stub.registry_fetches for ap in self.aps.values())
        report.extras["x2_peers_total"] = sum(
            len(ap.x2.peer_ids) for ap in self.aps.values())
        self.sim.run(until=max(self.sim.now, duration_s))
        return report


class CentralizedLTENetwork(_BaseNetwork):
    """Carrier LTE: one distant EPC, everything tunnels through it."""

    CAPABILITIES = ArchitectureCapabilities(
        name="Telecom LTE", open_core=False, licensed_radio=True,
        coordinated_spectrum=True, in_network_mobility=True,
        link_layer_security=True, central_billing=True,
        pstn_interconnect=True, organic_growth=False)

    #: where the UE pool lives (routed to the EPC site)
    UE_PREFIX = "10.200.0.0/16"
    EPC_TRANSPORT = "172.16.0.0/24"

    def __init__(self, sim: Simulator, town: RuralTown) -> None:
        super().__init__(sim, town)
        self.epc: Optional[CentralizedEpc] = None
        self.epc_data: Optional[EpcDataPlane] = None
        self.epc_router: Optional[Router] = None
        self.enb_relays: Dict[str, EnbControlRelay] = {}
        self.enb_data: Dict[str, EnbDataPlane] = {}
        self.cells: Dict[str, Cell] = {}
        self.ues: Dict[str, UserEquipment] = {}
        self._serving_ap: Dict[str, str] = {}

    @classmethod
    def build(cls, town: RuralTown, band_name: str = "lte5", seed: int = 0,
              epc_access_delay_s: float = 0.030) -> "CentralizedLTENetwork":
        """Assemble the carrier baseline: eNodeBs + one remote EPC."""
        sim = Simulator(seed)
        net = cls(sim, town)
        band = get_band(band_name)

        # EPC site: control plane + user plane behind one edge router
        epc_router = Router(sim, "epc-gw")
        net.epc_router = epc_router
        net.internet.attach(epc_router, cls.UE_PREFIX,
                            access_delay_s=epc_access_delay_s)
        net.internet.add_route(cls.EPC_TRANSPORT, "epc-gw")
        net.epc = CentralizedEpc(sim, AddressPool(cls.UE_PREFIX))
        epc_data_addr = ipaddress.IPv4Address("172.16.0.1")
        net.epc_data = EpcDataPlane(sim, "epc-data", epc_data_addr,
                                    internet_via="epc-gw")
        net.epc_data.connect_bidirectional(epc_router, rate_bps=10e9,
                                           delay_s=0.05e-3)
        epc_router.add_route(f"{epc_data_addr}/32", "epc-data")
        epc_router.add_route(cls.UE_PREFIX, "epc-data")  # downlink hand-in
        epc_router.default_route = "internet"

        for i, position in enumerate(town.ap_positions()):
            net._build_site(i, position, band, epc_access_delay_s)

        for j, position in enumerate(town.ue_positions()):
            profile = make_profile(f"0010100000{j:05d}")
            net.epc.provision(profile)
            ue = UserEquipment(sim, profile, name=f"ue{j}")
            host = Host(sim, f"ue{j}-host")
            radio = Radio(position, tx_power_dbm=23, height_m=1.5,
                          ul_papr_advantage_db=3.0)
            net.ues[ue.ue_id] = ue
            net.ue_hosts[ue.ue_id] = host
            net.ue_radios[ue.ue_id] = radio
            net._connect_ue(ue, host, radio)
        return net

    def _build_site(self, index: int, position: Point, band,
                    epc_access_delay_s: float) -> None:
        sim = self.sim
        name = f"site{index}"
        router = Router(sim, f"{name}-gw")
        transport_prefix = f"172.17.{index}.0/24"
        self.internet.attach(router, transport_prefix,
                             access_delay_s=self.town.backhaul_delay_s,
                             access_rate_bps=self.town.backhaul_rate_bps)
        relay = EnbControlRelay(sim, f"{name}-enb")
        # S1-MME rides the same backhaul + EPC access path
        channel = self.epc.connect_enb(
            relay, backhaul_delay_s=self.town.backhaul_delay_s
            + epc_access_delay_s)
        relay.connect_core(channel)
        self.enb_relays[name] = relay

        enb_addr = ipaddress.IPv4Address(f"172.17.{index}.1")
        data = EnbDataPlane(sim, f"{name}-data", enb_addr,
                            epc_address=self.epc_data.address,
                            uplink_via=f"{name}-gw")
        data.connect_bidirectional(router, rate_bps=1e9, delay_s=0.05e-3)
        router.add_route(f"{enb_addr}/32", f"{name}-data")
        router.default_route = "internet"
        data.open_bearer()
        self.enb_data[name] = data

        budget = LinkBudget(model_for_frequency(band.dl_mhz),
                            freq_mhz=band.dl_mhz,
                            bandwidth_hz=band.bandwidth_hz)
        self.cells[name] = Cell(f"{name}-cell", band, position, budget)

    def _nearest_site(self, position: Point) -> str:
        return min(self.cells, key=lambda n: self.cells[n].position
                   .distance_to(position))

    def _connect_ue(self, ue: UserEquipment, host: Host, radio: Radio) -> None:
        site = self._nearest_site(radio.position)
        self._serving_ap[ue.ue_id] = site
        relay = self.enb_relays[site]
        air = ControlChannel(self.sim, ue, relay, AIR_DELAY_S,
                             name=f"air:{ue.ue_id}")
        ue.connect_air(air)
        relay.attach_ue(ue.ue_id, air)
        self.cells[site].add_ue(UeRadioContext(ue_id=ue.ue_id, radio=radio))
        data = self.enb_data[site]
        host.connect_bidirectional(data, rate_bps=50e6, delay_s=AIR_DELAY_S)
        host.default_gateway = data.name
        ue.on_attached = self._on_ue_attached

    def _on_ue_attached(self, ue: UserEquipment) -> None:
        """Wire the user plane once the bearer exists."""
        site = self._serving_ap[ue.ue_id]
        host = self.ue_hosts[ue.ue_id]
        host.add_address(ue.ue_address)
        self.enb_data[site].register_ue(ue.ue_address, host)
        self.epc_data.register_ue(ue.ue_address,
                                  self.enb_data[site].address)

    # -- fault injection (E16 resilience) -----------------------------------------------

    def fail_epc(self) -> None:
        """Take the EPC site off the network (power/fiber cut).

        Every S1 channel and the EPC gateway's Internet uplink go down —
        the single-point-of-failure scenario dLTE's federation avoids:
        *all* sites lose both control and user plane at once, because
        every tunnel hairpins through this one building.
        """
        for channel in self.epc._s1_channels.values():
            channel.set_up(False)
        self.internet.links[self.epc_router.name].set_up(False)
        self.epc_router.links[self.internet.name].set_up(False)
        self.sim.trace("fault", "EPC site unreachable")

    def restore_epc(self) -> None:
        """Reconnect the EPC site (MME contexts survived — it is the
        *path* that failed, so re-attach is not required)."""
        for channel in self.epc._s1_channels.values():
            channel.set_up(True)
        self.internet.links[self.epc_router.name].set_up(True)
        self.epc_router.links[self.internet.name].set_up(True)
        self.sim.trace("fault", "EPC site restored")

    # -- phases ------------------------------------------------------------------------

    def _control_phase(self, report: NetworkReport) -> None:
        for k, ue in enumerate(self.ues.values()):
            self.sim.schedule(0.010 * k, ue.start_attach)
        self.sim.run(until=self.sim.now + 10.0 + 0.010 * len(self.ues))
        for ue in self.ues.values():
            if ue.state is UeState.ATTACHED:
                report.attach_latencies_s.append(ue.attach_latency_s)
            else:
                report.attach_failures += 1
        report.control_bytes = self.epc.control_bytes_on_backhaul

    def _radio_phase(self, report: NetworkReport) -> None:
        # the carrier coordinates its own cells: disjoint slices (ICIC)
        if len(self.cells) > 1:
            partition = reuse_partition(
                [c.name for c in self.cells.values()],
                next(iter(self.cells.values())).grid.n_prbs,
                reuse_factor=min(3, len(self.cells)))
            for cell in self.cells.values():
                cell.allowed_prbs = partition[cell.name]
        results = {name: [] for name in self.cells}
        for _ in range(RADIO_PHASE_TTIS):
            for name, cell in self.cells.items():
                results[name].append(cell.schedule_tti())
        for name, cell in self.cells.items():
            report.throughput_bps.update(cell.throughput_bps(results[name]))

    def run(self, duration_s: float = 10.0) -> NetworkReport:
        report = NetworkReport(architecture=self.CAPABILITIES.name,
                               n_aps=len(self.cells), n_ues=len(self.ues))
        self._control_phase(report)
        self._radio_phase(report)
        self._ping_phase(report)
        report.tunnel_overhead_bytes = GTP_HEADER_BYTES
        report.extras["epc_uplink_packets"] = self.epc_data.uplink_packets
        self.sim.run(until=max(self.sim.now, duration_s))
        return report


class PrivateLTENetwork(CentralizedLTENetwork):
    """LTE-in-a-box: the EPC moves on-premises but stays closed (§6).

    Identical machinery to carrier LTE with a ~1 ms EPC access path; its
    capability flags are what differ — the core is still closed, so no
    outside AP can join.
    """

    CAPABILITIES = ArchitectureCapabilities(
        name="Private LTE", open_core=False, licensed_radio=True,
        coordinated_spectrum=True, in_network_mobility=True,
        link_layer_security=True, central_billing=False,
        pstn_interconnect=False, organic_growth=False)

    @classmethod
    def build(cls, town: RuralTown, band_name: str = "lte48cbrs",
              seed: int = 0,
              epc_access_delay_s: float = 0.001) -> "PrivateLTENetwork":
        """On-premises EPC: same build, short EPC access path."""
        return super().build(town, band_name=band_name, seed=seed,
                             epc_access_delay_s=epc_access_delay_s)


class WiFiNetwork(_BaseNetwork):
    """Legacy WiFi: independent APs, CSMA, open joining, local breakout."""

    CAPABILITIES = ArchitectureCapabilities(
        name="Legacy WiFi", open_core=True, licensed_radio=False,
        coordinated_spectrum=False, in_network_mobility=False,
        link_layer_security=False, central_billing=False,
        pstn_interconnect=False, organic_growth=True)

    #: association + open auth + DHCP: three air round trips
    ASSOCIATION_EXCHANGES = 3
    #: carrier-sense threshold for the AP hearing graph
    CS_THRESHOLD_DBM = -82.0

    def __init__(self, sim: Simulator, town: RuralTown) -> None:
        super().__init__(sim, town)
        self.ap_routers: Dict[str, Router] = {}
        self.ap_radios: Dict[str, Radio] = {}
        self.ap_pools: Dict[str, AddressPool] = {}
        self.ap_clients: Dict[str, List[str]] = {}
        self._serving_ap: Dict[str, str] = {}
        self.association_latencies: Dict[str, float] = {}
        self.band = get_band("wifi2g4")
        self.budget: Optional[LinkBudget] = None

    @classmethod
    def build(cls, town: RuralTown, seed: int = 0) -> "WiFiNetwork":
        """Assemble independent WiFi APs over the same town."""
        sim = Simulator(seed)
        net = cls(sim, town)
        net.budget = LinkBudget(
            model_for_frequency(net.band.dl_mhz),
            freq_mhz=net.band.dl_mhz, bandwidth_hz=net.band.bandwidth_hz)
        for i, position in enumerate(town.ap_positions()):
            ap_id = f"wifi{i}"
            router = Router(sim, f"{ap_id}-gw")
            net.internet.attach(router, f"10.{i + 1}.0.0/16",
                                access_delay_s=town.backhaul_delay_s,
                                access_rate_bps=town.backhaul_rate_bps)
            net.ap_routers[ap_id] = router
            net.ap_pools[ap_id] = AddressPool(f"10.{i + 1}.0.0/16")
            net.ap_radios[ap_id] = Radio(
                position, tx_power_dbm=23, antenna_gain_dbi=13,
                height_m=30.0, noise_figure_db=5.0)
            net.ap_clients[ap_id] = []
        for j, position in enumerate(town.ue_positions()):
            ue_id = f"ue{j}"
            host = Host(sim, f"{ue_id}-host")
            radio = Radio(position, tx_power_dbm=20, height_m=1.5)
            net.ue_hosts[ue_id] = host
            net.ue_radios[ue_id] = radio
            ap_id = net._strongest_ap(radio)
            net._serving_ap[ue_id] = ap_id
            net.ap_clients[ap_id].append(ue_id)
            host.connect_bidirectional(net.ap_routers[ap_id], rate_bps=50e6,
                                       delay_s=2e-3)
            host.default_gateway = net.ap_routers[ap_id].name
        return net

    def _strongest_ap(self, ue_radio: Radio) -> str:
        return max(self.ap_radios,
                   key=lambda ap: self.budget.rx_power_dbm(
                       self.ap_radios[ap], ue_radio))

    # -- phases ---------------------------------------------------------------------------

    def _associate(self, ue_id: str):
        """Association + DHCP as a process; allocates the address."""
        started = self.sim.now
        for _ in range(self.ASSOCIATION_EXCHANGES):
            yield self.sim.timeout(2 * AIR_DELAY_S + 1e-3)
        ap_id = self._serving_ap[ue_id]
        address = self.ap_pools[ap_id].allocate()
        host = self.ue_hosts[ue_id]
        host.add_address(address)
        self.ap_routers[ap_id].add_route(f"{address}/32", host.name)
        self.association_latencies[ue_id] = self.sim.now - started

    def _control_phase(self, report: NetworkReport) -> None:
        for k, ue_id in enumerate(sorted(self.ue_hosts)):
            self.sim.schedule(0.010 * k, lambda u=ue_id: self.sim.process(
                self._associate(u)))
        self.sim.run(until=self.sim.now + 2.0 + 0.010 * len(self.ue_hosts))
        report.attach_latencies_s = list(self.association_latencies.values())
        report.attach_failures = (len(self.ue_hosts)
                                  - len(self.association_latencies))

    def _hearing_graph(self) -> Dict[str, set]:
        hears: Dict[str, set] = {ap: set() for ap in self.ap_radios}
        for a in self.ap_radios:
            for b in self.ap_radios:
                if a == b:
                    continue
                rx = self.budget.rx_power_dbm(self.ap_radios[b],
                                              self.ap_radios[a])
                if rx > self.CS_THRESHOLD_DBM:
                    hears[a].add(b)
        return hears

    def _radio_phase(self, report: NetworkReport) -> None:
        """CSMA airtime shares x per-UE PHY rate."""
        hears = self._hearing_graph()
        nodes = [CsmaNode(ap, hears=frozenset(hears[ap]))
                 for ap in self.ap_radios if self.ap_clients[ap]]
        if not nodes:
            return
        csma = CsmaSimulation(nodes, self.sim.rng("wifi-csma"),
                              frame_slots=50)
        result = csma.run(100_000)
        for ap_id in self.ap_radios:
            clients = self.ap_clients[ap_id]
            if not clients:
                continue
            share = (result.delivered.get(ap_id, 0) * result.frame_slots
                     / result.slots)
            for ue_id in clients:
                snr = self.budget.snr_db(self.ap_radios[ap_id],
                                         self.ue_radios[ue_id])
                phy = wifi_rate_for_snr(snr, self.band.bandwidth_hz)
                report.throughput_bps[ue_id] = (
                    phy * share * 0.7 / len(clients))  # 0.7: MAC efficiency
        report.extras["csma_collision_rate"] = result.collision_rate

    def run(self, duration_s: float = 10.0) -> NetworkReport:
        report = NetworkReport(architecture=self.CAPABILITIES.name,
                               n_aps=len(self.ap_radios),
                               n_ues=len(self.ue_hosts))
        self._control_phase(report)
        self._radio_phase(report)
        self._ping_phase(report)
        self.sim.run(until=max(self.sim.now, duration_s))
        return report
