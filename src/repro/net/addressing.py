"""IPv4 addressing and allocation pools.

dLTE gives every client a *publicly routable* address straight from the
AP's own allocation (§4.2: "clients are quickly assigned a new publicly
routable IP address as they change APs"). Each AP therefore owns an
:class:`AddressPool`; the centralized-LTE baseline instead allocates from
one pool at the P-GW. Built on the stdlib ``ipaddress`` module.
"""

from __future__ import annotations

import ipaddress
from operator import attrgetter
from typing import List, Optional, Set, Union

IPv4Address = ipaddress.IPv4Address

#: ``address_key(addr)`` is the address's 32-bit integer form — a dict
#: key for per-packet tables. ``IPv4Address.__hash__``/``__int__`` are
#: Python-level methods in the stdlib; reading the slot through a C
#: attrgetter keeps a forwarding-cache hit free of Python frames.
address_key = attrgetter("_ip")


class PoolExhausted(Exception):
    """No free addresses remain in the pool."""


class AddressPool:
    """Allocates host addresses from an IPv4 prefix.

    Network and broadcast addresses of the prefix are never handed out.
    Released addresses are reused (lowest-first), modelling DHCP-style
    churn as clients roam between APs.
    """

    def __init__(self, prefix: Union[str, ipaddress.IPv4Network]) -> None:
        self.network = ipaddress.IPv4Network(prefix)
        if self.network.num_addresses < 4:
            raise ValueError(f"prefix {prefix} too small to allocate from")
        self._allocated: Set[IPv4Address] = set()
        self._released: List[IPv4Address] = []
        self._cursor = iter(self.network.hosts())

    @property
    def capacity(self) -> int:
        """Total allocatable host addresses."""
        return self.network.num_addresses - 2

    @property
    def in_use(self) -> int:
        """Currently allocated address count."""
        return len(self._allocated)

    def allocate(self) -> IPv4Address:
        """Hand out a free address; raises :class:`PoolExhausted` when full."""
        if self._released:
            self._released.sort()
            addr = self._released.pop(0)
            self._allocated.add(addr)
            return addr
        for addr in self._cursor:
            if addr not in self._allocated:
                self._allocated.add(addr)
                return addr
        raise PoolExhausted(f"pool {self.network} exhausted "
                            f"({self.capacity} addresses)")

    def release(self, addr: IPv4Address) -> None:
        """Return an address to the pool; rejects double-free and strangers."""
        if addr not in self._allocated:
            raise ValueError(f"{addr} was not allocated from {self.network}")
        self._allocated.remove(addr)
        self._released.append(addr)

    def contains(self, addr: Optional[IPv4Address]) -> bool:
        """True when ``addr`` falls inside this pool's prefix."""
        return addr is not None and addr in self.network

    def __repr__(self) -> str:
        return f"<AddressPool {self.network} {self.in_use}/{self.capacity} used>"
