"""The dLTE access point: everything one site needs, in one box (§4).

A :class:`DLTEAccessPoint` composes:

* an eNodeB (control relay + radio cell),
* a :class:`LocalCoreStub` (the collapsed EPC, §4.1),
* a gateway router with its *own* public address pool, attached straight
  to the Internet — local breakout, no tunnel leaves the site (§4.2),
* an :class:`X2Endpoint` + :class:`FairSharingCoordinator` for peer
  coordination over the Internet (§4.3),
* a spectrum-registry client for licensing and peer discovery.

The lifecycle mirrors the paper's §4.3 narrative: ``register_spectrum``
(get a license), ``discover_and_peer`` (learn the contention domain,
connect X2, converge on a grid split), then serve clients.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional

from repro.coordination.fair_sharing import FairSharingCoordinator
from repro.coordination.peer_monitor import PeerMonitor
from repro.coordination.x2 import X2Endpoint
from repro.enodeb.cell import Cell, UeRadioContext
from repro.enodeb.relay import EnbControlRelay
from repro.epc.agents import ControlChannel
from repro.epc.keys import PublishedKeyRegistry
from repro.epc.stub import LocalCoreStub
from repro.epc.ue import UserEquipment
from repro.geo.points import Point
from repro.net.addressing import AddressPool, IPv4Address
from repro.net.internet import InternetCore
from repro.net.nodes import Host, Router
from repro.phy.bands import Band
from repro.phy.linkbudget import LinkBudget, Radio
from repro.phy.propagation import model_for_frequency
from repro.simcore.simulator import Simulator
from repro.spectrum.grants import ApRecord, SpectrumGrant
from repro.spectrum.registry import SpectrumRegistry

#: One-way RRC/air-interface latency.
AIR_DELAY_S = 0.005
#: On-box S1 between the eNodeB and its stub.
LOCAL_S1_DELAY_S = 0.1e-3


class DLTEAccessPoint:
    """One federated dLTE site."""

    #: every field is a slot: past 30 attributes an instance dict stops
    #: sharing its keys with the class and costs ~1.6 kB per site
    __slots__ = (
        "sim", "ap_id", "position", "band", "internet", "spectrum_registry",
        "backhaul_delay_s", "router", "pool", "stub", "enb", "cell", "x2",
        "coordinator", "grant", "neighbors", "peer_monitor",
        "lease_renewals", "lease_renewal_failures", "_renewing_lease",
        "alive", "crashes", "_saved_x2_handlers", "_m_renewals",
        "_m_renewal_failures", "_m_crashes", "_ue_hosts", "_ue_objects",
        "_ue_addresses")

    def __init__(self, sim: Simulator, ap_id: str, position: Point,
                 band: Band, internet: InternetCore,
                 spectrum_registry: Optional[SpectrumRegistry],
                 key_registry: Optional[PublishedKeyRegistry],
                 pool_prefix: str,
                 backhaul_delay_s: float = 0.025,
                 backhaul_rate_bps: float = 50e6,
                 tx_power_dbm: float = 43.0,
                 antenna_gain_dbi: float = 15.0,
                 height_m: float = 30.0) -> None:
        self.sim = sim
        self.ap_id = ap_id
        self.position = position
        self.band = band
        self.internet = internet
        self.spectrum_registry = spectrum_registry
        self.backhaul_delay_s = backhaul_delay_s

        # gateway + local breakout
        self.router = Router(sim, f"{ap_id}-gw")
        internet.attach(self.router, pool_prefix,
                        access_delay_s=backhaul_delay_s,
                        access_rate_bps=backhaul_rate_bps)
        self.pool = AddressPool(pool_prefix)

        # local core stub
        self.stub = LocalCoreStub(sim, f"{ap_id}-core", self.pool,
                                  registry=key_registry)
        self.stub.on_session_created = self._on_session_created

        # eNodeB: control relay + radio cell
        self.enb = EnbControlRelay(sim, f"{ap_id}-enb")
        s1 = ControlChannel(sim, self.enb, self.stub, LOCAL_S1_DELAY_S,
                            name=f"s1:{ap_id}")
        self.enb.connect_core(s1)
        self.stub.connect_enb(s1)

        budget = LinkBudget(
            model_for_frequency(band.dl_mhz, bs_height_m=height_m),
            freq_mhz=band.dl_mhz, bandwidth_hz=band.bandwidth_hz)
        self.cell = Cell(f"{ap_id}-cell", band, position, budget,
                         tx_power_dbm=tx_power_dbm,
                         antenna_gain_dbi=antenna_gain_dbi,
                         height_m=height_m)

        # peer coordination
        self.x2 = X2Endpoint(sim, ap_id)
        self.coordinator = FairSharingCoordinator(
            self.x2, self.cell.grid, on_converged=self._install_slice)

        # spectrum state
        self.grant: Optional[SpectrumGrant] = None
        self.neighbors: List[ApRecord] = []
        self.peer_monitor = None  # created by start_peer_monitor()
        self.lease_renewals = 0
        self.lease_renewal_failures = 0
        self._renewing_lease = False

        # crash/restart lifecycle
        self.alive = True
        self.crashes = 0
        self._saved_x2_handlers: List[Callable] = []

        metrics = sim.metrics
        self._m_renewals = metrics.counter("spectrum.lease.renewals",
                                           ap=ap_id)
        self._m_renewal_failures = metrics.counter(
            "spectrum.lease.renewal_failures", ap=ap_id)
        self._m_crashes = metrics.counter("core.ap.crashes", ap=ap_id)

        # attached clients
        self._ue_hosts: Dict[str, Host] = {}
        self._ue_objects: Dict[str, UserEquipment] = {}
        self._ue_addresses: Dict[str, IPv4Address] = {}

    # -- spectrum lifecycle --------------------------------------------------------

    @property
    def record(self) -> ApRecord:
        """This AP's registry record."""
        return ApRecord(ap_id=self.ap_id, position=self.position,
                        band=self.band,
                        eirp_dbm=self.cell.radio.eirp_dbm,
                        contact=self.router.name)

    @property
    def grant_active(self) -> bool:
        """True while the held grant is in force (``active_at`` now)."""
        return self.grant is not None and self.grant.active_at(self.sim.now)

    def register_spectrum(self,
                          callback: Optional[Callable[[bool], None]] = None
                          ) -> None:
        """Request a license; ``callback(granted)`` when decided.

        Leased grants (``expires_at`` set) start the renewal loop
        automatically: the lease is heartbeat-renewed ahead of expiry
        and lapses if the registry stays unreachable.
        """
        if self.spectrum_registry is None:
            raise RuntimeError(f"{self.ap_id}: no spectrum registry configured")

        def on_grant(grant: Optional[SpectrumGrant]) -> None:
            self.grant = grant
            if grant is not None and grant.expires_at is not None:
                self.start_lease_renewal()
            if callback is not None:
                callback(grant is not None)

        self.spectrum_registry.request_grant(self.record, on_grant)

    # -- lease renewal ---------------------------------------------------------------

    def start_lease_renewal(self, margin_frac: float = 0.5,
                            retry_backoff_s: float = 5.0) -> None:
        """Keep a leased grant alive: heartbeat the registry ahead of
        ``expires_at``; retry on failure; re-register once a lapsed
        lease can be re-acquired (idempotent)."""
        if self._renewing_lease:
            return
        if not 0.0 < margin_frac < 1.0:
            raise ValueError("margin fraction must be in (0, 1)")
        if retry_backoff_s <= 0:
            raise ValueError("retry backoff must be positive")
        self._renewing_lease = True
        self.sim.process(self._lease_loop(margin_frac, retry_backoff_s))

    def stop_lease_renewal(self) -> None:
        """Stop renewing (the grant then lapses at its ``expires_at``)."""
        self._renewing_lease = False

    def _lease_loop(self, margin_frac: float, retry_backoff_s: float):
        heartbeat = getattr(self.spectrum_registry, "heartbeat", None)
        while self._renewing_lease and self.alive:
            grant = self.grant
            if grant is None or grant.expires_at is None or heartbeat is None:
                break  # nothing to renew (perpetual or lease-free design)
            wait = max((grant.expires_at - self.sim.now) * margin_frac, 1e-3)
            yield self.sim.timeout(wait)
            if not (self._renewing_lease and self.alive):
                break
            done = self.sim.event()
            renew_span = self.sim.span("spectrum.lease.renew", ap=self.ap_id)
            heartbeat(self.ap_id, done.succeed)
            renewed = yield done
            if renewed is not None:
                self.grant = renewed
                self.lease_renewals += 1
                self._m_renewals.inc()
                renew_span.end(status="ok")
                continue
            self.lease_renewal_failures += 1
            self._m_renewal_failures.inc()
            renew_span.end(status="failed")
            self.sim.trace("spectrum", f"{self.ap_id}: lease renewal failed",
                           active=self.grant_active)
            if not self.grant_active and self.spectrum_registry.is_available():
                # the lease lapsed (registry outage outlived it): the
                # registry wants a fresh registration, not a heartbeat —
                # and on success the renewal schedule resumes at once
                # (sleeping the retry backoff could outlive the new lease)
                redone = self.sim.event()
                self.register_spectrum(redone.succeed)
                ok = yield redone
                if ok:
                    continue
            yield self.sim.timeout(retry_backoff_s)
        self._renewing_lease = False

    # -- crash/restart lifecycle --------------------------------------------------

    def crash(self) -> None:
        """The box loses power: coordination goes silent (peers must
        *detect* the death), every client's RRC/session/address is gone,
        and the stub forgets its RAM state."""
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        self._m_crashes.inc()
        self.sim.trace("fault", f"{self.ap_id}: crashed")
        if self.peer_monitor is not None:
            self.peer_monitor.stop()
        self._saved_x2_handlers = list(self.x2.handlers)
        self.x2.handlers.clear()
        self.stop_lease_renewal()
        # a rebooted box must not transmit on its pre-crash slice: the
        # survivors re-split the spectrum the moment they declare us
        # dead, so the stale slice may overlap theirs. Forfeit it now;
        # the full grid is the "not (re)converged" sentinel the slice
        # invariant recognizes, and re-peering assigns the real slice.
        self.cell.allowed_prbs = self.cell.grid.all_prbs
        for ue in list(self._ue_objects.values()):
            self.disconnect_ue(ue)
            ue.radio_lost()
        self.stub.crash()

    def restart(self, directory: Optional[Dict[str, "DLTEAccessPoint"]] = None,
                on_ready: Optional[Callable[[bool], None]] = None) -> None:
        """Power restored: replay the §4.3 lifecycle — re-register
        spectrum, re-discover and re-peer (when ``directory`` is given),
        resume the peer monitor. Clients reconnect separately (see
        :meth:`DLTENetwork.restart_ap`); ``on_ready(ok)`` fires once the
        control plane is back."""
        if self.alive:
            return
        self.alive = True
        self.sim.trace("fault", f"{self.ap_id}: restarting")
        # a rebooted box holds no connections: drop any peering that
        # survived the crash on our side (peers that already declared
        # us dead severed theirs), then re-peer from discovery — else
        # a half-open channel to a still-dead peer leaves us waiting
        # for a claim that can never come while we serve a stale slice
        for peer_ap_id in list(self.x2.peer_ids):
            self.x2.disconnect_peer(peer_ap_id)
        self.stub.restart()
        for handler in self._saved_x2_handlers:
            if handler not in self.x2.handlers:
                self.x2.handlers.append(handler)
        self._saved_x2_handlers = []

        def peered(_n_peers: int) -> None:
            if self.peer_monitor is not None:
                self.peer_monitor.start()
            if on_ready is not None:
                on_ready(True)

        def after_grant(ok: bool) -> None:
            if not ok:
                if on_ready is not None:
                    on_ready(False)
                return
            if directory is not None:
                self.discover_and_peer(directory, done=peered)
            else:
                peered(0)

        self.register_spectrum(after_grant)

    def discover_and_peer(self, directory: Dict[str, "DLTEAccessPoint"],
                          done: Optional[Callable[[int], None]] = None) -> None:
        """Find contention-domain peers, connect X2, start fair sharing.

        ``directory`` maps ap_id -> AP for rendezvous (the registry gives
        us *who*; the directory stands in for their Internet contacts).
        X2 latency is the real Internet RTT between the two gateways.
        """
        if self.grant is None:
            raise RuntimeError(f"{self.ap_id}: register spectrum first")

        def on_neighbors(records: List[ApRecord]) -> None:
            self.neighbors = records
            for record in records:
                peer = directory.get(record.ap_id)
                # a crashed AP's stale registry record still names a
                # contact, but connecting to a dead box just fails —
                # it will (re)peer with us itself when it comes back
                if peer is None or not getattr(peer, "alive", True):
                    continue
                one_way = self.internet.rtt_between_s(
                    self.router.name, peer.router.name) / 2.0
                self.x2.connect_peer(peer.x2, one_way_delay_s=one_way)
            self.coordinator.announce()
            if done is not None:
                done(len(records))

        self.spectrum_registry.discover_neighbors(self.ap_id, on_neighbors)

    def _install_slice(self, prbs: FrozenSet[int]) -> None:
        self.cell.allowed_prbs = prbs

    def start_peer_monitor(self, heartbeat_s: float = 2.0) -> None:
        """Run the dLTE peer-status extension: detect dead peers and
        reclaim their spectrum (call after peering is established)."""
        if self.peer_monitor is None:
            self.peer_monitor = PeerMonitor(self.sim, self.x2,
                                            self.coordinator,
                                            heartbeat_s=heartbeat_s)
        self.peer_monitor.start()

    # -- client lifecycle ------------------------------------------------------------

    def connect_ue(self, ue: UserEquipment, ue_host: Host,
                   ue_radio: Radio) -> None:
        """Establish the RRC connection and data link; then UE may attach."""
        if ue.ue_id in self._ue_hosts:
            raise ValueError(f"UE {ue.ue_id} already connected to {self.ap_id}")
        air = ControlChannel(self.sim, ue, self.enb, AIR_DELAY_S,
                             name=f"air:{ue.ue_id}@{self.ap_id}")
        ue.connect_air(air)
        self.enb.attach_ue(ue.ue_id, air)
        self.cell.add_ue(UeRadioContext(ue_id=ue.ue_id, radio=ue_radio))
        # data-plane link: air latency; rate refined per-TTI by the cell
        ue_host.connect_bidirectional(self.router, rate_bps=50e6,
                                      delay_s=AIR_DELAY_S)
        ue_host.default_gateway = self.router.name
        self._ue_hosts[ue.ue_id] = ue_host
        self._ue_objects[ue.ue_id] = ue

    def disconnect_ue(self, ue: UserEquipment) -> None:
        """Tear down radio + data link (the AP's crash drops each UE)."""
        host = self._ue_hosts.pop(ue.ue_id, None)
        self._ue_objects.pop(ue.ue_id, None)
        self.enb.detach_ue(ue.ue_id)
        self.cell.remove_ue(ue.ue_id)
        if host is not None:
            # routes first: re-decides packets inside the forwarding delay
            self.router.remove_routes_to(host.name)
            host.links.pop(self.router.name, None)
            self.router.links.pop(host.name, None)
            stale = self._ue_addresses.pop(ue.ue_id, None)
            if stale is not None and stale in host.addresses:
                host.remove_address(stale)

    def _on_session_created(self, ue_id: str, address: IPv4Address) -> None:
        host = self._ue_hosts.get(ue_id)
        if host is None:
            return
        host.add_address(address)
        self._ue_addresses[ue_id] = address
        self.router.add_route(f"{address}/32", host.name)

    @property
    def attached_count(self) -> int:
        """Active sessions at the stub."""
        return len(self.stub.sessions)

    def __repr__(self) -> str:
        return (f"<DLTEAccessPoint {self.ap_id} band={self.band.name} "
                f"sessions={self.attached_count}>")
