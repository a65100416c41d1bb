"""Bill-of-materials cost models for rural deployments.

§5: "The deployment cost less than $8000 in materials, including two
commercial eNodeBs (for two sectors), two 15dBi antennas, an off the
shelf computer for the EPC, and cabling."

E12 reproduces that number bottom-up from a BoM and compares coverage
per dollar across dLTE, WiFi, and the carrier-femtocell alternative the
paper criticizes in §2.1 ("users of this hardware still pay the carrier
for this privilege"). Prices are 2018-era representative figures; the
experiment depends on their ratios, not their cents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.mac.timing import WIFI_DEFAULT_ACK_RANGE_M
from repro.phy.linkbudget import LinkBudget, Radio
from repro.phy.mcs import select_lte_cqi, select_wifi_mcs
from repro.phy.propagation import model_for_frequency
from repro.geo.points import Point


@dataclass(frozen=True)
class BomItem:
    """One line of a bill of materials."""

    name: str
    unit_cost_usd: float
    quantity: int = 1

    def __post_init__(self) -> None:
        if self.unit_cost_usd < 0 or self.quantity < 0:
            raise ValueError("cost and quantity must be non-negative")

    @property
    def total_usd(self) -> float:
        """Line total."""
        return self.unit_cost_usd * self.quantity


#: The paper's Papua site, itemized (two sectors on one gym roof).
PAPUA_REFERENCE_BOM: List[BomItem] = [
    BomItem("commercial eNodeB (band 5 sector)", 2500.0, 2),
    BomItem("15 dBi sector antenna", 350.0, 2),
    BomItem("EPC computer (off the shelf)", 600.0, 1),
    BomItem("cabling, mounts, surge protection", 800.0, 1),
]


@dataclass
class DeploymentPlan:
    """A costed site design with a coverage estimate."""

    name: str
    bom: List[BomItem]
    coverage_radius_m: float
    recurring_usd_per_month: float = 0.0

    @property
    def capex_usd(self) -> float:
        """Up-front materials cost."""
        return sum(item.total_usd for item in self.bom)

    @property
    def coverage_km2(self) -> float:
        """Area served by one site."""
        return coverage_area_km2(self.coverage_radius_m)

    @property
    def km2_per_kusd(self) -> float:
        """Coverage per thousand dollars of capex — E12's headline."""
        if self.capex_usd == 0:
            return float("inf")
        return self.coverage_km2 / (self.capex_usd / 1000.0)

    def five_year_cost_usd(self) -> float:
        """Capex plus five years of recurring fees."""
        return self.capex_usd + 60.0 * self.recurring_usd_per_month


def coverage_area_km2(radius_m: float) -> float:
    """Disk area in km^2."""
    if radius_m < 0:
        raise ValueError("radius must be non-negative")
    return math.pi * (radius_m / 1000.0) ** 2


def _edge_radius_m(freq_mhz: float, bandwidth_hz: float, tx_power_dbm: float,
                   antenna_gain_dbi: float, is_lte: bool,
                   max_range_m: float) -> float:
    """Largest distance where the downlink still decodes its lowest rate."""
    budget = LinkBudget(model_for_frequency(freq_mhz), freq_mhz, bandwidth_hz)
    ap = Radio(Point(0, 0), tx_power_dbm=tx_power_dbm,
               antenna_gain_dbi=antenna_gain_dbi, height_m=30.0)
    lo, hi = 100.0, max_range_m
    for _ in range(60):
        mid = (lo + hi) / 2.0
        ue = Radio(Point(mid, 0), tx_power_dbm=23, height_m=1.5)
        snr = budget.snr_db(ap, ue)
        alive = (select_lte_cqi(snr) if is_lte else select_wifi_mcs(snr))
        if alive is not None:
            lo = mid
        else:
            hi = mid
    return lo


def dlte_site_plan(sectors: int = 2) -> DeploymentPlan:
    """The paper's dLTE site: eNodeB sectors + stub computer, no fees."""
    if sectors < 1:
        raise ValueError("need at least one sector")
    bom = [
        BomItem("commercial eNodeB (band 5 sector)", 2500.0, sectors),
        BomItem("15 dBi sector antenna", 350.0, sectors),
        BomItem("EPC computer (off the shelf)", 600.0, 1),
        BomItem("cabling, mounts, surge protection", 800.0, 1),
    ]
    radius = _edge_radius_m(881.5, 10e6, 43.0, 15.0, is_lte=True,
                            max_range_m=100_000.0)
    return DeploymentPlan("dLTE (band 5)", bom, coverage_radius_m=radius)


def wifi_site_plan() -> DeploymentPlan:
    """A long-range WiFi site: cheaper box, far smaller footprint."""
    bom = [
        BomItem("outdoor 802.11 AP", 300.0, 1),
        BomItem("13 dBi antenna", 150.0, 1),
        BomItem("cabling, mounts, surge protection", 400.0, 1),
    ]
    # WiFi's radius is the smaller of link budget and ACK-timing limits
    radius = min(_edge_radius_m(2437.0, 20e6, 23.0, 13.0, is_lte=False,
                                max_range_m=50_000.0),
                 WIFI_DEFAULT_ACK_RANGE_M)
    return DeploymentPlan("WiFi (2.4 GHz)", bom, coverage_radius_m=radius)


def carrier_femtocell_plan(monthly_fee_usd: float = 20.0) -> DeploymentPlan:
    """The §2.1 alternative: carrier femtocell + ongoing carrier fees.

    The user "bear[s] all costs for backhaul, power, maintenance, and
    the equipment itself" yet still pays the carrier; coverage is
    indoor-grade.
    """
    bom = [BomItem("carrier femtocell (e.g. LTE network extender)",
                   250.0, 1)]
    return DeploymentPlan("Carrier femtocell", bom,
                          coverage_radius_m=50.0,
                          recurring_usd_per_month=monthly_fee_usd)
