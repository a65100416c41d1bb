"""The Evolved Packet Core — full and stubbed.

The paper's architectural move (§4.1) is to take the four EPC functions a
client requires — HSS, MME, S-GW, P-GW — and collapse them into a "local
core stub" at every access point, paring away mobility management,
inter-component networking, and billing. To measure what that buys, we
need both shapes:

* :class:`CentralizedEpc` — the carrier baseline: one HSS, one MME, one
  S-GW and P-GW, shared by every eNodeB over backhaul control channels,
  with finite per-message processing capacity (so attach storms queue).
* :class:`LocalCoreStub` — the dLTE shape: the same attach/AKA/bearer
  machinery as one in-process agent per AP, authenticating against
  *published* keys (§4.2) instead of a private HSS database.

Both run the standard EPS attach procedure message-for-message, so E7's
latency/load comparison is apples-to-apples.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "agents": ("ControlAgent", "ControlChannel", "ControlMessage"),
    "crypto": ("AuthVector", "generate_auth_vector", "ue_compute_response"),
    "centralized": ("CentralizedEpc",),
    "hss": ("Hss",),
    "keys": ("PublishedKeyRegistry",),
    "mme": ("Mme",),
    "nas": (
        "AttachAccept", "AttachComplete", "AttachRequest",
        "AuthenticationRequest", "AuthenticationResponse",
        "SecurityModeCommand", "SecurityModeComplete"),
    "pgw": ("Pgw",),
    "sgw": ("Sgw",),
    "stub": ("LocalCoreStub",),
    "subscriber": ("SubscriberDb", "SubscriberProfile"),
    "ue": ("UserEquipment",),
})
