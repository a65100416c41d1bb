"""NAS and control-plane message definitions.

Plain dataclasses, one per procedure step. Each carries the fields the
receiving state machine actually checks, so tests can assert on exact
protocol content. Byte sizes are representative over-the-wire weights
used for control-load accounting (E7, E17, E19).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.addressing import IPv4Address


@dataclass
class NasMessage:
    """Base for all control messages; ``ue_id`` threads the procedure."""

    ue_id: str
    size_bytes: int = 100


@dataclass
class AttachRequest(NasMessage):
    """UE -> MME: initial attach with identity."""

    imsi: str = ""
    size_bytes: int = 120


@dataclass
class AuthenticationRequest(NasMessage):
    """MME -> UE: the AKA challenge.

    ``sqn`` models the sequence number the real AUTN carries (as
    SQN xor AK): the UE recovers it, verifies AUTN against it, and
    enforces freshness (sqn >= its highest seen) — which is what lets a
    client attach to a *different* dLTE stub whose counter is behind.
    """

    rand: bytes = b""
    autn: bytes = b""
    sqn: int = 0
    size_bytes: int = 140


@dataclass
class AuthenticationResponse(NasMessage):
    """UE -> MME: RES proving possession of K."""

    res: bytes = b""
    size_bytes: int = 120


@dataclass
class AuthenticationReject(NasMessage):
    """MME -> UE: RES mismatch or unknown subscriber."""

    cause: str = "auth-failure"
    size_bytes: int = 90


@dataclass
class SecurityModeCommand(NasMessage):
    """MME -> UE: activate the NAS security context."""

    size_bytes: int = 110


@dataclass
class SecurityModeComplete(NasMessage):
    """UE -> MME: security context active."""

    size_bytes: int = 90


@dataclass
class AttachAccept(NasMessage):
    """MME -> UE: attach granted, bearer established, address assigned."""

    ue_address: Optional[IPv4Address] = None
    guti: str = ""
    size_bytes: int = 180


@dataclass
class AttachComplete(NasMessage):
    """UE -> MME: procedure done."""

    size_bytes: int = 90


@dataclass
class AttachReject(NasMessage):
    """MME -> UE: attach refused.

    ``backoff_s`` models the T3346 congestion timer: when the cause is
    ``congestion`` the network assigns a minimum wait before the UE may
    retry, so a rejected flash crowd spreads out instead of hammering.
    Zero means no server-assigned backoff (ordinary reject).
    """

    cause: str = ""
    backoff_s: float = 0.0
    size_bytes: int = 90


# -- S6a (MME <-> HSS) -----------------------------------------------------------

@dataclass
class AuthInfoRequest(NasMessage):
    """MME -> HSS: vectors for an IMSI."""

    imsi: str = ""
    size_bytes: int = 150


@dataclass
class AuthInfoAnswer(NasMessage):
    """HSS -> MME: the vector, or a failure cause."""

    vector: object = None
    cause: str = ""
    size_bytes: int = 220


# -- S11 / S5 (MME <-> S-GW <-> P-GW) ------------------------------------------------

@dataclass
class CreateSessionRequest(NasMessage):
    """MME -> S-GW (forwarded to P-GW): set up the default bearer."""

    imsi: str = ""
    size_bytes: int = 200


@dataclass
class CreateSessionResponse(NasMessage):
    """S-GW -> MME: bearer TEIDs and the UE's allocated address."""

    ue_address: Optional[IPv4Address] = None
    sgw_teid: int = 0
    enb_teid: int = 0
    cause: str = ""
    size_bytes: int = 220


# -- idle mode / paging -----------------------------------------------------------

@dataclass
class UeContextRelease(NasMessage):
    """eNB/MME: RRC connection released; UE enters ECM-IDLE."""

    size_bytes: int = 100


@dataclass
class Paging(NasMessage):
    """MME -> every eNB in the tracking area: find this UE.

    The fan-out is the cost of in-network mobility: the core only knows
    the UE to tracking-area granularity, so *every* site transmits the
    page.
    """

    size_bytes: int = 110


@dataclass
class ServiceRequest(NasMessage):
    """UE -> MME: waking from idle; re-establish the data path."""

    size_bytes: int = 110


@dataclass
class ServiceAccept(NasMessage):
    """MME -> UE: context re-activated; bearers live again."""

    size_bytes: int = 110
