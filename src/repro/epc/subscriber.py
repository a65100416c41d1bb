"""Subscriber identity: SIM profiles and the HSS database."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator, Optional


@dataclass(frozen=True)
class SubscriberProfile:
    """What a SIM (and its HSS record) holds.

    Attributes:
        imsi: the 15-digit subscriber identity.
        key: the 16-byte shared secret K.
        msisdn: phone number, informational.
        published: True for dLTE e-SIM profiles whose K is in the public
            registry (§4.2); carrier profiles keep this False.
    """

    imsi: str
    key: bytes
    msisdn: str = ""
    published: bool = False

    def __post_init__(self) -> None:
        if not (self.imsi.isdigit() and 14 <= len(self.imsi) <= 15):
            raise ValueError(f"IMSI must be 14-15 digits, got {self.imsi!r}")
        if len(self.key) != 16:
            raise ValueError("K must be 16 bytes")


def make_profile(imsi: str, published: bool = False) -> SubscriberProfile:
    """Deterministically derive a profile's key from its IMSI (test data)."""
    key = hashlib.sha256(f"sim-key:{imsi}".encode()).digest()[:16]
    return SubscriberProfile(imsi=imsi, key=key, published=published)


class SubscriberDb:
    """The HSS's private subscriber table."""

    def __init__(self) -> None:
        self._by_imsi: Dict[str, SubscriberProfile] = {}

    def provision(self, profile: SubscriberProfile) -> None:
        """Add a subscriber; re-provisioning an IMSI replaces the record."""
        self._by_imsi[profile.imsi] = profile

    def lookup(self, imsi: str) -> Optional[SubscriberProfile]:
        """Fetch a record, or None for unknown subscribers."""
        return self._by_imsi.get(imsi)

    def __len__(self) -> int:
        return len(self._by_imsi)

    def __iter__(self) -> Iterator[SubscriberProfile]:
        return iter(self._by_imsi.values())
