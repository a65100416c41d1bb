"""UE control plane: the SIM side of attach.

A stock UE runs the same procedure against a carrier MME or a dLTE stub
— the paper's backwards-compatibility requirement ("maintain
compatibility between the dLTE access point and standard clients",
§4.1). The UE verifies AUTN (mutual authentication), answers the
challenge, and records attach timing for E7.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.epc.agents import ControlAgent, ControlChannel, ControlMessage
from repro.epc.crypto import ue_compute_response, ue_verify_network
from repro.epc.nas import (
    AttachAccept,
    AttachComplete,
    AttachReject,
    AttachRequest,
    AuthenticationReject,
    AuthenticationRequest,
    AuthenticationResponse,
    DetachRequest,
    Paging,
    PathSwitchAck,
    SecurityModeCommand,
    SecurityModeComplete,
    ServiceAccept,
    ServiceRequest,
    UeContextRelease,
)
from repro.epc.subscriber import SubscriberProfile
from repro.net.addressing import IPv4Address
from repro.simcore.simulator import Simulator


class UeState(enum.Enum):
    """UE NAS state."""

    IDLE = "idle"
    ATTACHING = "attaching"
    ATTACHED = "attached"
    REJECTED = "rejected"


class UserEquipment(ControlAgent):
    """The control-plane side of a handset."""

    #: class defaults so the ``state`` property works during __init__;
    #: the observer hook is how the invariant checker audits NAS
    #: transition legality without touching the uninstrumented path
    #: (one attribute test per state change, zero per-event cost).
    _state = UeState.IDLE
    _state_observer: Optional[Callable[["UserEquipment", "UeState",
                                        "UeState"], None]] = None

    @property
    def state(self) -> UeState:
        """Current NAS state; assignments notify any installed observer."""
        return self._state

    @state.setter
    def state(self, value: UeState) -> None:
        observer = self._state_observer
        if observer is not None:
            observer(self, self._state, value)
        self._state = value

    def __init__(self, sim: Simulator, profile: SubscriberProfile,
                 name: Optional[str] = None,
                 service_time_s: float = 0.1e-3) -> None:
        super().__init__(sim, name or f"ue-{profile.imsi[-6:]}",
                         service_time_s)
        self.profile = profile
        self.state = UeState.IDLE
        if sim.checker is not None:
            sim.checker.watch_ue(self)
        self.air: Optional[ControlChannel] = None
        self.ue_address: Optional[IPv4Address] = None
        self.guti = ""
        #: challenges already answered. dLTE clients roam between
        #: *independent* cores whose SQN counters do not relate, so the
        #: replay guard is nonce-based: a (RAND) pair may only ever be
        #: accepted once. (Carrier AKA uses monotone SQN instead; both
        #: prevent replaying a recorded challenge.)
        self._seen_rands: set = set()
        # timing
        self.attach_started_at: Optional[float] = None
        self.attach_completed_at: Optional[float] = None
        # retry machinery (supervised attach; see start_attach_with_retry)
        self.attach_attempts = 0
        self.attach_retries_exhausted = 0
        self._attach_outcome = None  # Event the retry loop waits on
        #: T3346 analogue: the backoff the network assigned with its
        #: last congestion reject; the retry loop honors it as a floor.
        self.server_backoff_s = 0.0
        self.congestion_rejects = 0
        self.on_attached: Optional[Callable[["UserEquipment"], None]] = None
        self.on_rejected: Optional[Callable[["UserEquipment", str], None]] = None
        self.on_service_resumed: Optional[
            Callable[["UserEquipment"], None]] = None
        self.network_auth_failures = 0
        # ECM state (idle-mode modelling)
        self.ecm_connected = True
        self.went_idle_at: Optional[float] = None
        self.service_resumed_at: Optional[float] = None
        self.pages_received = 0
        metrics = sim.metrics
        self._m_attach_s = metrics.histogram("nas.attach.latency_s")
        self._m_attempts = metrics.counter("nas.attach.attempts")
        self._m_rejects = metrics.counter("nas.attach.rejected")
        self._m_pages = metrics.counter("nas.pages_received")
        #: the end-to-end nas.attach span for the attempt in flight
        self._attach_span = None

    @property
    def ue_id(self) -> str:
        """Stable procedure correlation id."""
        return self.name

    @property
    def attach_latency_s(self) -> Optional[float]:
        """Attach duration, or None if not (yet) attached."""
        if self.attach_started_at is None or self.attach_completed_at is None:
            return None
        return self.attach_completed_at - self.attach_started_at

    def connect_air(self, channel: ControlChannel) -> None:
        """Bind the RRC/air channel toward the serving eNodeB."""
        self.air = channel

    # -- procedures ---------------------------------------------------------------

    def start_attach(self) -> None:
        """Kick off the EPS attach."""
        if self.air is None:
            raise RuntimeError(f"{self.name}: no air channel (out of coverage)")
        self.state = UeState.ATTACHING
        self.attach_started_at = self.sim.now
        self.attach_completed_at = None
        self._m_attempts.inc()
        self._end_attach_span(status="superseded")
        self._attach_span = self.sim.span("nas.attach", ue=self.ue_id)
        self.air.send(self, AttachRequest(ue_id=self.ue_id,
                                          imsi=self.profile.imsi))

    def _end_attach_span(self, status: str, **attrs) -> None:
        span = self._attach_span
        if span is not None:
            self._attach_span = None
            span.end(status=status, **attrs)

    def start_attach_with_retry(self, max_attempts: int = 8,
                                timeout_s: float = 2.0,
                                base_backoff_s: float = 0.5,
                                max_backoff_s: float = 16.0,
                                jitter_frac: float = 0.25) -> "Process":  # noqa: F821
        """Attach under supervision: retry on rejection or silence.

        Each attempt is given ``timeout_s`` to complete (the T3410
        analogue); a failed or unanswered attempt backs off
        exponentially — ``base_backoff_s * 2^k`` capped at
        ``max_backoff_s`` — plus deterministic per-UE jitter drawn from
        the simulator's named RNG, so a whole town retrying after an AP
        restart does not thundering-herd the stub. Out-of-coverage UEs
        (no air channel yet) keep waiting through the same backoff until
        coverage returns. Returns the supervising process.
        """
        if max_attempts < 1:
            raise ValueError("need at least one attach attempt")
        return self.sim.process(
            self._attach_retry_loop(max_attempts, timeout_s, base_backoff_s,
                                    max_backoff_s, jitter_frac),
            name=f"attach-retry:{self.name}")

    def _attach_retry_loop(self, max_attempts: int, timeout_s: float,
                           base_backoff_s: float, max_backoff_s: float,
                           jitter_frac: float):
        rng = self.sim.rng(f"nas-backoff:{self.name}")
        backoff = base_backoff_s
        for attempt in range(max_attempts):
            self.server_backoff_s = 0.0
            if self.air is not None:
                self.attach_attempts += 1
                outcome = self.sim.event(f"attach-outcome:{self.name}")
                self._attach_outcome = outcome
                self.start_attach()
                yield self.sim.any_of([outcome,
                                       self.sim.timeout(timeout_s)])
                self._attach_outcome = None
                if self.state is UeState.ATTACHED:
                    return
            if attempt == max_attempts - 1:
                break
            # the server-assigned T3346 timer (congestion reject) floors
            # the local exponential backoff; jitter scales with the wait
            # actually taken, so a refused crowd spreads over the whole
            # assigned window instead of returning in one wave.
            wait = backoff
            if self.server_backoff_s > wait:
                wait = self.server_backoff_s
            jitter = float(rng.uniform(0.0, jitter_frac * wait))
            self.sim.trace("nas", f"{self.name}: attach retry backoff",
                           attempt=attempt + 1, backoff_s=wait + jitter)
            yield self.sim.timeout(wait + jitter)
            backoff = min(backoff * 2.0, max_backoff_s)
        self.attach_retries_exhausted += 1
        self.sim.trace("nas", f"{self.name}: attach retries exhausted",
                       attempts=self.attach_attempts)

    def _settle_attach(self) -> None:
        """Wake the retry supervisor (if any) on a terminal NAS outcome."""
        outcome = self._attach_outcome
        if outcome is not None and not outcome.triggered:
            outcome.succeed(self.state)

    def radio_lost(self) -> None:
        """The serving cell vanished (AP crash, out of coverage).

        NAS state collapses to IDLE: the bearer, address, and RRC
        connection are gone with the cell. A retry supervisor keeps
        waiting for coverage; a fresh attach needs a new air channel.
        """
        self.air = None
        self.state = UeState.IDLE
        self.ue_address = None
        self.ecm_connected = True
        self._end_attach_span(status="radio-lost")
        self._settle_attach()

    def detach(self) -> None:
        """Leave the network, releasing the bearer."""
        if self.state is UeState.ATTACHED and self.air is not None:
            self.air.send(self, DetachRequest(ue_id=self.ue_id))
        self.state = UeState.IDLE
        self.ue_address = None

    def go_idle(self) -> None:
        """Release the RRC connection (battery save); stays attached."""
        if self.state is not UeState.ATTACHED:
            raise RuntimeError("only an attached UE can go idle")
        if not self.ecm_connected:
            return
        self.ecm_connected = False
        self.went_idle_at = self.sim.now
        self.service_resumed_at = None
        self.air.send(self, UeContextRelease(ue_id=self.ue_id))

    # -- NAS handling ------------------------------------------------------------------

    def handle(self, message: ControlMessage) -> None:
        payload = message.payload
        if isinstance(payload, AuthenticationRequest):
            self._on_auth_request(payload)
        elif isinstance(payload, SecurityModeCommand):
            self.air.send(self, SecurityModeComplete(ue_id=self.ue_id))
        elif isinstance(payload, AttachAccept):
            self._on_attach_accept(payload)
        elif isinstance(payload, (AttachReject, AuthenticationReject)):
            backoff_s = getattr(payload, "backoff_s", 0.0)
            if backoff_s > 0.0:
                self.server_backoff_s = backoff_s
                self.congestion_rejects += 1
            self.state = UeState.REJECTED
            self._m_rejects.inc()
            self._end_attach_span(
                status="rejected", cause=getattr(payload, "cause", "rejected"))
            self._settle_attach()
            if self.on_rejected is not None:
                self.on_rejected(self, getattr(payload, "cause", "rejected"))
        elif isinstance(payload, Paging):
            self._on_paging()
        elif isinstance(payload, ServiceAccept):
            self._on_service_accept()
        elif isinstance(payload, PathSwitchAck):
            pass  # handover confirmed; nothing to do at NAS level

    def _on_auth_request(self, request: AuthenticationRequest) -> None:
        # Mutual auth: refuse networks that cannot prove knowledge of K,
        # and refuse replayed challenges.
        fresh = request.rand not in self._seen_rands
        if not fresh or not ue_verify_network(
                self.profile.key, request.rand, request.autn,
                sqn=request.sqn):
            self.network_auth_failures += 1
            self.state = UeState.REJECTED
            self._m_rejects.inc()
            self._end_attach_span(status="rejected", cause="network-auth")
            self._settle_attach()
            if self.on_rejected is not None:
                cause = ("replayed-challenge" if not fresh
                         else "network-auth-failure")
                self.on_rejected(self, cause)
            return
        self._seen_rands.add(request.rand)
        res = ue_compute_response(self.profile.key, request.rand)
        self.air.send(self, AuthenticationResponse(ue_id=self.ue_id, res=res))

    def _on_paging(self) -> None:
        self.pages_received += 1
        self._m_pages.inc()
        if not self.ecm_connected and self.state is UeState.ATTACHED:
            self.air.send(self, ServiceRequest(ue_id=self.ue_id))

    def _on_service_accept(self) -> None:
        if not self.ecm_connected:
            self.ecm_connected = True
            self.service_resumed_at = self.sim.now
            if self.on_service_resumed is not None:
                self.on_service_resumed(self)

    def _on_attach_accept(self, accept: AttachAccept) -> None:
        self.ue_address = accept.ue_address
        self.guti = accept.guti
        self.state = UeState.ATTACHED
        self.attach_completed_at = self.sim.now
        self._m_attach_s.observe(self.attach_completed_at
                                 - self.attach_started_at)
        self._end_attach_span(status="ok")
        self.air.send(self, AttachComplete(ue_id=self.ue_id))
        self._settle_attach()
        if self.on_attached is not None:
            self.on_attached(self)
