"""MME: the mobility management entity — the EPC's control brain.

Runs the EPS attach state machine per UE (identity -> AKA challenge ->
security mode -> session setup -> accept) and drives the S-GW over S11.
One MME serves *all* eNodeBs in the centralized architecture; its serial
processing and its distance from the eNodeBs are exactly the costs E7
measures.
"""

from __future__ import annotations

import enum
import hmac
import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from repro.epc.agents import ControlAgent, ControlChannel, ControlMessage
from repro.epc.crypto import AuthVector
from repro.epc.nas import (
    AttachAccept,
    AttachComplete,
    AttachReject,
    AttachRequest,
    AuthenticationReject,
    AuthenticationRequest,
    AuthenticationResponse,
    AuthInfoAnswer,
    AuthInfoRequest,
    CreateSessionRequest,
    CreateSessionResponse,
    Paging,
    SecurityModeCommand,
    SecurityModeComplete,
    ServiceAccept,
    ServiceRequest,
    UeContextRelease,
)
from repro.net.addressing import IPv4Address
from repro.simcore.simulator import Simulator


class UeContextState(enum.Enum):
    """MME-side per-UE attach state machine."""

    AWAITING_VECTOR = "awaiting-vector"
    AUTHENTICATING = "authenticating"
    SECURING = "securing"
    CREATING_SESSION = "creating-session"
    AWAITING_COMPLETE = "awaiting-complete"
    ATTACHED = "attached"


@dataclass
class UeContext:
    """Everything the MME remembers about one UE."""

    ue_id: str
    imsi: str
    serving_enb: str
    state: UeContextState = UeContextState.AWAITING_VECTOR
    vector: Optional[AuthVector] = None
    guti: str = ""
    ue_address: Optional[IPv4Address] = None
    attach_started_at: float = 0.0
    #: ECM connection state: False once the RRC connection is released.
    #: While idle the MME only knows the UE to tracking-area granularity,
    #: so downlink data triggers a paging fan-out.
    ecm_connected: bool = True


class Mme(ControlAgent):
    """Serial MME agent: attach, idle mode and paging."""

    __slots__ = (
        "s1", "s6a", "s11", "contexts", "_guti_counter",
        "attaches_completed", "attaches_rejected", "pages_sent",
        "service_requests", "_m_completed", "_m_rejected", "_m_pages",
        "_m_service", "_m_attach_s", "_attach_spans")

    def __init__(self, sim: Simulator, name: str = "mme",
                 service_time_s: float = 1e-3) -> None:
        super().__init__(sim, name, service_time_s)
        self.s1: Dict[str, ControlChannel] = {}     # eNB name -> channel
        self.s6a: Optional[ControlChannel] = None
        self.s11: Optional[ControlChannel] = None
        self.contexts: Dict[str, UeContext] = {}
        self._guti_counter = itertools.count(1)
        # metrics
        self.attaches_completed = 0
        self.attaches_rejected = 0
        self.pages_sent = 0
        self.service_requests = 0
        metrics = sim.metrics
        self._m_completed = metrics.counter("epc.attach.completed", core=name)
        self._m_rejected = metrics.counter("epc.attach.rejected", core=name)
        self._m_pages = metrics.counter("epc.mme.pages_sent", core=name)
        self._m_service = metrics.counter("epc.mme.service_requests",
                                          core=name)
        self._m_attach_s = metrics.histogram("epc.attach.mme_latency_s",
                                             core=name)
        #: open epc.attach spans keyed by ue_id
        self._attach_spans: Dict[str, object] = {}

    # -- wiring ----------------------------------------------------------------

    def connect_enb(self, enb_name: str, channel: ControlChannel) -> None:
        """Register the S1-MME channel from an eNodeB."""
        self.s1[enb_name] = channel

    def connect_hss(self, channel: ControlChannel) -> None:
        """Register the S6a channel toward the HSS."""
        self.s6a = channel

    def connect_sgw(self, channel: ControlChannel) -> None:
        """Register the S11 channel toward the S-GW."""
        self.s11 = channel

    def _to_ue(self, ctx: UeContext, nas) -> None:
        channel = self.s1.get(ctx.serving_enb)
        if channel is not None:
            channel.send(self, nas)

    # -- dispatch -----------------------------------------------------------------

    def handle(self, message: ControlMessage) -> None:
        payload = message.payload
        if isinstance(payload, AttachRequest):
            self._on_attach_request(message.sender.name, payload)
        elif isinstance(payload, AuthInfoAnswer):
            self._on_auth_info(payload)
        elif isinstance(payload, AuthenticationResponse):
            self._on_auth_response(payload)
        elif isinstance(payload, SecurityModeComplete):
            self._on_security_complete(payload)
        elif isinstance(payload, CreateSessionResponse):
            self._on_session_response(payload)
        elif isinstance(payload, AttachComplete):
            self._on_attach_complete(payload)
        elif isinstance(payload, UeContextRelease):
            self._on_context_release(payload)
        elif isinstance(payload, ServiceRequest):
            self._on_service_request(payload)

    def _reject_attach(self, ctx: UeContext, cause: str) -> None:
        self.attaches_rejected += 1
        self._m_rejected.inc()
        span = self._attach_spans.pop(ctx.ue_id, None)
        if span is not None:
            span.end(status="rejected", cause=cause)

    def _send_congestion_reject(self, message: ControlMessage,
                                backoff_s: float) -> None:
        """Admission control refused an AttachRequest at enqueue time:
        answer with the T3346-style congestion reject (costs no MME
        service time — that is the point of refusing early)."""
        request = message.payload
        channel = self.s1.get(message.sender.name)
        if channel is None:
            return
        self.attaches_rejected += 1
        self._m_rejected.inc()
        channel.send(self, AttachReject(ue_id=request.ue_id,
                                        cause="congestion",
                                        backoff_s=backoff_s))

    # -- attach procedure ------------------------------------------------------------

    def _on_attach_request(self, enb_name: str, request: AttachRequest) -> None:
        ctx = UeContext(ue_id=request.ue_id, imsi=request.imsi,
                        serving_enb=enb_name,
                        attach_started_at=self.sim.now)
        self.contexts[request.ue_id] = ctx
        stale = self._attach_spans.pop(request.ue_id, None)
        if stale is not None:
            stale.end(status="superseded")
        self._attach_spans[request.ue_id] = self.sim.span(
            "epc.attach", core=self.name, ue=request.ue_id, enb=enb_name)
        self.s6a.send(self, AuthInfoRequest(ue_id=request.ue_id,
                                            imsi=request.imsi))

    def _on_auth_info(self, answer: AuthInfoAnswer) -> None:
        ctx = self.contexts.get(answer.ue_id)
        if ctx is None or ctx.state is not UeContextState.AWAITING_VECTOR:
            return
        if answer.vector is None:
            self._reject_attach(ctx, answer.cause)
            self._to_ue(ctx, AttachReject(ue_id=ctx.ue_id, cause=answer.cause))
            del self.contexts[ctx.ue_id]
            return
        ctx.vector = answer.vector
        ctx.state = UeContextState.AUTHENTICATING
        self._to_ue(ctx, AuthenticationRequest(
            ue_id=ctx.ue_id, rand=answer.vector.rand,
            autn=answer.vector.autn, sqn=answer.vector.sqn))

    def _on_auth_response(self, response: AuthenticationResponse) -> None:
        ctx = self.contexts.get(response.ue_id)
        if ctx is None or ctx.state is not UeContextState.AUTHENTICATING:
            return
        if not hmac.compare_digest(response.res, ctx.vector.xres):
            self._reject_attach(ctx, "auth-failure")
            self._to_ue(ctx, AuthenticationReject(ue_id=ctx.ue_id))
            del self.contexts[ctx.ue_id]
            return
        ctx.state = UeContextState.SECURING
        self._to_ue(ctx, SecurityModeCommand(ue_id=ctx.ue_id))

    def _on_security_complete(self, msg: SecurityModeComplete) -> None:
        ctx = self.contexts.get(msg.ue_id)
        if ctx is None or ctx.state is not UeContextState.SECURING:
            return
        ctx.state = UeContextState.CREATING_SESSION
        self.s11.send(self, CreateSessionRequest(ue_id=ctx.ue_id,
                                                 imsi=ctx.imsi))

    def _on_session_response(self, response: CreateSessionResponse) -> None:
        ctx = self.contexts.get(response.ue_id)
        if ctx is None or ctx.state is not UeContextState.CREATING_SESSION:
            return
        if response.ue_address is None:
            self._reject_attach(ctx, response.cause)
            self._to_ue(ctx, AttachReject(ue_id=ctx.ue_id, cause=response.cause))
            del self.contexts[ctx.ue_id]
            return
        ctx.ue_address = response.ue_address
        ctx.guti = f"guti-{next(self._guti_counter)}"
        ctx.state = UeContextState.AWAITING_COMPLETE
        self._to_ue(ctx, AttachAccept(ue_id=ctx.ue_id,
                                      ue_address=response.ue_address,
                                      guti=ctx.guti))

    def _on_attach_complete(self, msg: AttachComplete) -> None:
        ctx = self.contexts.get(msg.ue_id)
        if ctx is None or ctx.state is not UeContextState.AWAITING_COMPLETE:
            return
        ctx.state = UeContextState.ATTACHED
        self.attaches_completed += 1
        self._m_completed.inc()
        self._m_attach_s.observe(self.sim.now - ctx.attach_started_at)
        span = self._attach_spans.pop(ctx.ue_id, None)
        if span is not None:
            span.end(status="ok")
        self.sim.trace("attach", f"{self.name}: attach complete",
                       ue=ctx.ue_id, enb=ctx.serving_enb)

    # -- idle mode / paging ----------------------------------------------------------

    def _on_context_release(self, msg: UeContextRelease) -> None:
        ctx = self.contexts.get(msg.ue_id)
        if ctx is not None and ctx.state is UeContextState.ATTACHED:
            ctx.ecm_connected = False

    def page(self, ue_id: str) -> int:
        """Downlink data arrived for an idle UE: page the tracking area.

        Every connected eNB gets the page (the MME does not know which
        cell the UE camps on). Returns the number of pages sent; 0 when
        the UE is unknown or already connected.
        """
        ctx = self.contexts.get(ue_id)
        if ctx is None or ctx.ecm_connected:
            return 0
        for channel in self.s1.values():
            channel.send(self, Paging(ue_id=ue_id))
            self.pages_sent += 1
            self._m_pages.inc()
        return len(self.s1)

    def _on_service_request(self, msg: ServiceRequest) -> None:
        ctx = self.contexts.get(msg.ue_id)
        if ctx is None or ctx.state is not UeContextState.ATTACHED:
            return
        self.service_requests += 1
        self._m_service.inc()
        ctx.ecm_connected = True
        self._to_ue(ctx, ServiceAccept(ue_id=ctx.ue_id))
