"""Spectrum access: licenses, contention domains, and open registries.

§4.3: "dLTE proposes a novel division of responsibilities for spectrum
management, using a lightweight open public license database for peer
discovery, and peer-to-peer organization for decentralized coordination."

The registry's one job is to answer, accurately, *which access points
operate in each region* — the paper explicitly does not require a
particular design. We implement the three designs it discusses:

* :class:`SasRegistry` — a centralized, API-driven Spectrum Access System
  (the CBRS model of ref [38]).
* :class:`FederatedRegistry` — DNS-like regional delegation.
* :class:`BlockchainRegistry` — a proof-of-work-paced public chain (the
  ref [27] model): slow to join, instant to read, impossible to take down.

E10 measures all three on join latency, discovery latency, and
availability under failure.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "grants": (
        "ApRecord", "SpectrumGrant", "contention_radius_m", "in_contention"),
    "registry": ("SpectrumRegistry",),
    "sas": ("SasRegistry",),
    "federated": ("FederatedRegistry",),
    "blockchain": ("Block", "BlockchainRegistry"),
})
