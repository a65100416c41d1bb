"""The dLTE local core stub (§4.1).

"We deploy an EPC stub at each AP, virtualizing the required EPC
components (S-GW, P-GW, MME, and HSS) in software on a local processor
… paring its functions down to only those directly required by the
client."

One serial agent plays all four roles: it answers the UE's NAS messages
exactly like an MME (so stock clients interoperate), mints vectors
locally like an HSS — from *published* keys fetched once from the open
registry and cached — and allocates a publicly-routable address from the
AP's own pool like a P-GW. There is no S6a, S11, or S5: those interfaces
collapse into function calls, which is where the E7 latency advantage
comes from. There is deliberately no mobility management and no billing.
"""

from __future__ import annotations

import hmac as hmac_mod
from typing import Callable, Dict, Optional

from repro.epc.agents import ControlAgent, ControlChannel, ControlMessage
from repro.epc.crypto import AuthVector, generate_auth_vector
from repro.epc.keys import PublishedKeyRegistry
from repro.epc.nas import (
    AttachAccept,
    AttachComplete,
    AttachReject,
    AttachRequest,
    AuthenticationReject,
    AuthenticationRequest,
    AuthenticationResponse,
    SecurityModeCommand,
    SecurityModeComplete,
)
from repro.net.addressing import AddressPool, IPv4Address, PoolExhausted
from repro.simcore.simulator import Simulator


class LocalCoreStub(ControlAgent):
    """MME+HSS+S-GW+P-GW collapsed into one per-AP agent."""

    __slots__ = (
        "pool", "registry", "s1", "alive", "_key_cache", "_sqn",
        "_pending_vector", "sessions", "attaches_completed",
        "attaches_rejected", "registry_fetches", "cache_hits", "crashes",
        "dropped_while_down", "_m_completed", "_m_rejected",
        "_m_cache_hits", "_m_fetches", "_m_crashes", "_m_sessions",
        "_attach_spans", "on_session_created")

    def __init__(self, sim: Simulator, name: str, pool: AddressPool,
                 registry: Optional[PublishedKeyRegistry] = None,
                 service_time_s: float = 0.5e-3) -> None:
        super().__init__(sim, name, service_time_s)
        self.pool = pool
        self.registry = registry
        self.s1: Optional[ControlChannel] = None
        self.alive = True
        self._key_cache: Dict[str, bytes] = {}
        self._sqn: Dict[str, int] = {}
        self._pending_vector: Dict[str, AuthVector] = {}
        self.sessions: Dict[str, IPv4Address] = {}
        # metrics
        self.attaches_completed = 0
        self.attaches_rejected = 0
        self.registry_fetches = 0
        self.cache_hits = 0
        self.crashes = 0
        self.dropped_while_down = 0
        metrics = sim.metrics
        self._m_completed = metrics.counter("epc.attach.completed", core=name)
        self._m_rejected = metrics.counter("epc.attach.rejected", core=name)
        self._m_cache_hits = metrics.counter("epc.stub.key_cache_hits",
                                             core=name)
        self._m_fetches = metrics.counter("epc.stub.registry_fetches",
                                          core=name)
        self._m_crashes = metrics.counter("epc.stub.crashes", core=name)
        self._m_sessions = metrics.gauge("epc.stub.sessions", core=name)
        #: open epc.attach spans keyed by ue_id (request -> accept/reject)
        self._attach_spans: Dict[str, object] = {}
        self.on_session_created: Optional[
            Callable[[str, IPv4Address], None]] = None

    def connect_enb(self, channel: ControlChannel) -> None:
        """Register the (on-box) S1 channel to the co-located eNodeB."""
        self.s1 = channel

    def preload_key(self, imsi: str, key: bytes) -> None:
        """Seed the key cache (e.g. the AP owner's own devices)."""
        self._key_cache[imsi] = key

    # -- crash/restart lifecycle -------------------------------------------------------

    def crash(self) -> None:
        """Lose power: every session, pending procedure, and queued
        message vanishes; addresses return to the pool; inbound messages
        are dropped until :meth:`restart`."""
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        self._m_crashes.inc()
        for span in self._attach_spans.values():
            span.end(status="crashed")
        self._attach_spans.clear()
        for address in self.sessions.values():
            self.pool.release(address)
        self.sessions.clear()
        self._pending_vector.clear()
        self._shed_queue("crash")  # accounted, not silently cleared
        self._m_sessions.set(0)
        self.sim.trace("fault", f"{self.name}: crashed")

    def restart(self) -> None:
        """Power restored: come back empty — RAM state (key cache, SQN
        counters, sessions) did not survive; clients must re-attach."""
        if self.alive:
            return
        self.alive = True
        self._key_cache.clear()
        self._sqn.clear()
        self.sim.trace("fault", f"{self.name}: restarted")

    def enqueue(self, message: ControlMessage) -> None:
        if not self.alive:
            self.dropped_while_down += 1
            return
        super().enqueue(message)

    def _send_congestion_reject(self, message: ControlMessage,
                                backoff_s: float) -> None:
        """Admission control refused an AttachRequest at enqueue time:
        send the T3346-style congestion reject without spending any
        stub service time on the refused attach."""
        if self.s1 is None:
            return
        request = message.payload
        self.attaches_rejected += 1
        self._m_rejected.inc()
        self.s1.send(self, AttachReject(ue_id=request.ue_id,
                                        cause="congestion",
                                        backoff_s=backoff_s))

    # -- dispatch --------------------------------------------------------------------

    def handle(self, message: ControlMessage) -> None:
        if not self.alive:
            self.dropped_while_down += 1
            return
        payload = message.payload
        if isinstance(payload, AttachRequest):
            self._on_attach_request(payload)
        elif isinstance(payload, AuthenticationResponse):
            self._on_auth_response(payload)
        elif isinstance(payload, SecurityModeComplete):
            self._on_security_complete(payload)
        elif isinstance(payload, AttachComplete):
            self.attaches_completed += 1
            self._m_completed.inc()
            span = self._attach_spans.pop(payload.ue_id, None)
            if span is not None:
                span.end(status="ok")

    # -- attach -----------------------------------------------------------------------

    def _on_attach_request(self, request: AttachRequest) -> None:
        stale = self._attach_spans.pop(request.ue_id, None)
        if stale is not None:
            stale.end(status="superseded")
        self._attach_spans[request.ue_id] = self.sim.span(
            "epc.attach", core=self.name, ue=request.ue_id)
        key = self._key_cache.get(request.imsi)
        if key is not None:
            self.cache_hits += 1
            self._m_cache_hits.inc()
            self._challenge(request.ue_id, request.imsi, key)
            return
        if self.registry is None:
            self._reject(request.ue_id, "unknown-subscriber")
            return
        self.registry_fetches += 1
        self._m_fetches.inc()
        self.registry.lookup(
            request.imsi,
            lambda fetched: self._on_key_fetched(request, fetched))

    def _on_key_fetched(self, request: AttachRequest,
                        key: Optional[bytes]) -> None:
        if key is None:
            self._reject(request.ue_id, "not-published")
            return
        self._key_cache[request.imsi] = key
        self._challenge(request.ue_id, request.imsi, key)

    def _challenge(self, ue_id: str, imsi: str, key: bytes) -> None:
        sqn = self._sqn.get(imsi, 0)
        self._sqn[imsi] = sqn + 1
        rand = bytes(self.sim.rng(f"stub:{self.name}").bytes(16))
        vector = generate_auth_vector(key, rand, sqn=sqn)
        self._pending_vector[ue_id] = vector
        self.s1.send(self, AuthenticationRequest(ue_id=ue_id, rand=rand,
                                                 autn=vector.autn, sqn=sqn))

    def _on_auth_response(self, response: AuthenticationResponse) -> None:
        vector = self._pending_vector.get(response.ue_id)
        if vector is None:
            return
        if not hmac_mod.compare_digest(response.res, vector.xres):
            del self._pending_vector[response.ue_id]
            self.attaches_rejected += 1
            self.s1.send(self, AuthenticationReject(ue_id=response.ue_id))
            return
        self.s1.send(self, SecurityModeCommand(ue_id=response.ue_id))

    def _on_security_complete(self, msg: SecurityModeComplete) -> None:
        if msg.ue_id not in self._pending_vector:
            return
        del self._pending_vector[msg.ue_id]
        try:
            address = self.pool.allocate()
        except PoolExhausted:
            self._reject(msg.ue_id, "no-addresses")
            return
        self.sessions[msg.ue_id] = address
        self._m_sessions.set(len(self.sessions))
        self.sim.trace("attach", f"{self.name}: session created",
                       ue=msg.ue_id, address=str(address))
        if self.on_session_created is not None:
            self.on_session_created(msg.ue_id, address)
        self.s1.send(self, AttachAccept(ue_id=msg.ue_id, ue_address=address,
                                        guti=f"{self.name}-{msg.ue_id}"))

    def _reject(self, ue_id: str, cause: str) -> None:
        self.attaches_rejected += 1
        self._m_rejected.inc()
        span = self._attach_spans.pop(ue_id, None)
        if span is not None:
            span.end(status="rejected", cause=cause)
        self.s1.send(self, AttachReject(ue_id=ue_id, cause=cause))
