"""Protocol-timing range limits.

§3.2: "LTE's scheduler also handles longer links by explicitly
compensating for propagation delay."

LTE uplink symbols must arrive time-aligned at the eNodeB; the network
measures round-trip delay during random access and commands each UE to
advance its transmissions, and PRACH format 0 covers a ~100 km cell
radius. WiFi has no such mechanism: the transmitter expects an ACK
within a fixed SIFS+slot window, so beyond a few km ACKs arrive late and
every frame retries — the link dies from *timing*, not SNR.
(Long-distance WiFi exists only via non-standard ACK-timeout tuning,
i.e. "expensive custom hardware" in the paper's terms.)
"""

from __future__ import annotations

#: PRACH format-0 timing advance (11 bits) covers ~100 km of cell radius.
LTE_MAX_CELL_RANGE_M = 100_000.0

#: Stock 802.11 ACK timing tolerates roughly this one-way distance before
#: the slot/SIFS budget is exceeded (802.11-2012 aSlotTime coverage).
WIFI_DEFAULT_ACK_RANGE_M = 2_700.0


def max_range_supported_m(technology: str) -> float:
    """Protocol-timing range limit for ``"lte"`` or ``"wifi"``.

    This is the *MAC* limit; the link budget may die sooner. E3 reports
    min(timing limit, link-budget limit) per technology.
    """
    tech = technology.lower()
    if tech == "lte":
        return LTE_MAX_CELL_RANGE_M
    if tech == "wifi":
        return WIFI_DEFAULT_ACK_RANGE_M
    raise ValueError(f"unknown technology {technology!r} (want 'lte' or 'wifi')")
