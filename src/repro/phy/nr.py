"""5G New Radio primitives (§7 future work).

"The forthcoming 5G-New Radio cellular waveform offers more improvements
for area connectivity, with support for new bands, three dimensional
beamforming, massive MIMO antenna arrays … Incorporating 5G technology
into the dLTE framework would further improve the capabilities of the
dLTE system."

The pieces that matter at architecture scale:

* **Numerologies** — subcarrier spacing 15·2^mu kHz with slots of
  1/2^mu ms: wider carriers and (at high mu) much shorter scheduling
  intervals (lower air latency).
* **New bands** — n28 (700 MHz, rural reach) through n78 (3.5 GHz, wide
  channels).
* **Massive MIMO beamforming** — array gain ~10·log10(N) dB that buys
  back the link budget mid-band loses to propagation.
* **256QAM** — peak spectral efficiency up to ~7.4 b/s/Hz.

E14 plugs these into the same dLTE link-budget machinery to measure what
an NR upgrade buys a rural federation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.phy.bands import Band
from repro.phy.mcs import LTE_CQI_TABLE, McsEntry

#: LTE baseline scheduling interval for comparison, seconds.
LTE_TTI_S = 1e-3


@dataclass(frozen=True)
class Numerology:
    """One NR numerology (3GPP TS 38.211)."""

    mu: int

    def __post_init__(self) -> None:
        if not 0 <= self.mu <= 4:
            raise ValueError("NR numerologies are mu = 0..4")

    @property
    def scs_khz(self) -> float:
        """Subcarrier spacing: 15 * 2^mu kHz."""
        return 15.0 * (2 ** self.mu)

    @property
    def slot_duration_s(self) -> float:
        """Slot length: 1 ms / 2^mu."""
        return 1e-3 / (2 ** self.mu)


#: NR bands relevant to the rural story (name -> Band), with the
#: numerologies they commonly run.
NR_BANDS: Dict[str, Band] = {
    # n28: the 700 MHz coverage layer — dLTE's band-5 ethos, more width
    "nr-n28": Band("nr-n28", 28, 758.0, 703.0, "FDD", True, 60.0, 23.0, 20e6),
    # n78: the 3.5 GHz capacity layer (CBRS-adjacent), wide channels
    "nr-n78": Band("nr-n78", 78, 3550.0, 3550.0, "TDD", True, 47.0, 23.0, 100e6),
}

#: typical numerology per band.
NR_NUMEROLOGY: Dict[str, Numerology] = {
    "nr-n28": Numerology(0),
    "nr-n78": Numerology(1),
}

#: NR adds 256QAM on top of the LTE table: two extra operating points.
NR_MCS_EXTENSION: List[McsEntry] = [
    McsEntry(16, "256QAM", 0.8537, 6.2266, 25.0),
    McsEntry(17, "256QAM", 0.9258, 7.4063, 28.0),
]

NR_MCS_TABLE: List[McsEntry] = list(LTE_CQI_TABLE) + NR_MCS_EXTENSION


def nr_efficiency_for_sinr(sinr_db: float) -> float:
    """NR spectral efficiency (b/s/Hz): the LTE ladder plus 256QAM."""
    best = 0.0
    for entry in NR_MCS_TABLE:
        if entry.min_sinr_db <= sinr_db:
            best = max(best, entry.efficiency_bps_hz)
    return best


def beamforming_gain_db(n_elements: int) -> float:
    """Array gain of an N-element massive-MIMO panel.

    Ideal coherent combining: 10 log10(N). A 64-element panel buys
    ~18 dB — roughly the propagation gap between 3.5 GHz and 700 MHz at
    town ranges, which is exactly how mid-band NR reaches rural cells.
    """
    if n_elements < 1:
        raise ValueError("need at least one element")
    return 10.0 * math.log10(n_elements)


def air_interface_latency_s(numerology: Numerology,
                            scheduling_slots: int = 4) -> float:
    """One-way user-plane air latency: a few slots of scheduling pipeline.

    LTE at 1 ms TTIs needs the same ~4 intervals, so mu=2 (0.25 ms
    slots) cuts air latency 4x — the §7 "improvements for area
    connectivity" in its latency form.
    """
    if scheduling_slots < 1:
        raise ValueError("need at least one slot")
    return scheduling_slots * numerology.slot_duration_s
