"""Path-loss models.

The range experiments (E3) hinge on how loss grows with distance and
carrier frequency. We implement the standard textbook/3GPP set:

* :class:`FreeSpace` — Friis, the optimistic lower bound.
* :class:`LogDistance` — generic exponent model with reference distance.
* :class:`OkumuraHata` — the empirical macro-cell model (150–1500 MHz),
  with open/suburban/urban corrections: this is the model that captures
  why 850 MHz covers a town and 2.4 GHz does not.
* :class:`Cost231Hata` — the 1500–2600+ MHz extension; we use it for the
  WiFi ISM and mid-band LTE frequencies at macro ranges.

All models return loss in dB for a distance in meters. Models clamp the
distance to a minimum of 1 m to stay defined at zero separation.

Every model has one vector entry point,
:meth:`PropagationModel.path_loss_db_many`, for sweep-style callers
(E3's distance grids, the range bisections, the UE arena's row refresh).
It evaluates the scalar formula term by term — same association order,
libm ``log10`` at the single distance-dependent transcendental — so its
output is *bit-identical* to ``path_loss_db`` per element, which is what
byte-identical experiment tables need.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.phy.vmath import log10_exact

#: Friis constant 20*log10(4*pi/c) for d in km and f in MHz — 32.44 dB
#: (the exact value is 32.4478; some texts round to 32.45, this codebase
#: uses the truncated 32.44 convention everywhere).
FSPL_CONST_DB = 32.44


class PropagationModel(ABC):
    """Base: path loss in dB as a function of link geometry."""

    @abstractmethod
    def path_loss_db(self, distance_m: float, freq_mhz: float) -> float:
        """Median path loss in dB at ``distance_m`` and ``freq_mhz``."""

    @abstractmethod
    def path_loss_db_many(self, distances_m: Sequence[float],
                          freq_mhz: float) -> np.ndarray:
        """:meth:`path_loss_db` over a distance grid, bit-identical per
        element: an array pipeline in the scalar association order with
        ``log10`` routed through libm (see ``repro.phy.vmath``)."""

    @staticmethod
    def _clamp_distance(distance_m: float) -> float:
        if distance_m < 0:
            raise ValueError(f"negative distance: {distance_m}")
        return max(distance_m, 1.0)

    @staticmethod
    def _clamp_distances(distances_m: Sequence[float]) -> np.ndarray:
        d = np.asarray(distances_m, dtype=float)
        if np.any(d < 0):
            raise ValueError(f"negative distance in grid: {d.min()}")
        return np.maximum(d, 1.0)


class FreeSpace(PropagationModel):
    """Friis free-space loss: 20log10(d) + 20log10(f) + 32.44 (d km, f MHz)."""

    def path_loss_db(self, distance_m: float, freq_mhz: float) -> float:
        d_km = self._clamp_distance(distance_m) / 1000.0
        return (20.0 * math.log10(d_km) + 20.0 * math.log10(freq_mhz)
                + FSPL_CONST_DB)

    def path_loss_db_many(self, distances_m: Sequence[float],
                          freq_mhz: float) -> np.ndarray:
        d_km = self._clamp_distances(distances_m) / 1000.0
        return (20.0 * log10_exact(d_km) + 20.0 * math.log10(freq_mhz)
                + FSPL_CONST_DB)


class LogDistance(PropagationModel):
    """Log-distance model: FSPL at ``ref_m`` plus ``10 n log10(d/ref)``."""

    def __init__(self, exponent: float = 3.0, ref_m: float = 100.0) -> None:
        if exponent < 1.0:
            raise ValueError("path-loss exponent below free-space is unphysical")
        self.exponent = exponent
        self.ref_m = ref_m
        self._fspl = FreeSpace()

    def path_loss_db(self, distance_m: float, freq_mhz: float) -> float:
        d = self._clamp_distance(distance_m)
        base = self._fspl.path_loss_db(self.ref_m, freq_mhz)
        if d <= self.ref_m:
            return self._fspl.path_loss_db(d, freq_mhz)
        return base + 10.0 * self.exponent * math.log10(d / self.ref_m)

    def path_loss_db_many(self, distances_m: Sequence[float],
                          freq_mhz: float) -> np.ndarray:
        d = self._clamp_distances(distances_m)
        base = self._fspl.path_loss_db(self.ref_m, freq_mhz)
        far = base + 10.0 * self.exponent * log10_exact(
            np.maximum(d, self.ref_m) / self.ref_m)
        near = self._fspl.path_loss_db_many(d, freq_mhz)
        return np.where(d <= self.ref_m, near, far)


class OkumuraHata(PropagationModel):
    """Okumura-Hata empirical macro model, valid 150–1500 MHz.

    ``environment`` selects the correction: ``"urban"`` (none),
    ``"suburban"``, or ``"open"`` (rural — the dLTE target setting).
    Frequencies above 1500 MHz should use :class:`Cost231Hata`; we allow a
    soft overrun to 2000 MHz for model-comparison plots but reject beyond.
    """

    ENVIRONMENTS = ("urban", "suburban", "open")

    def __init__(self, bs_height_m: float = 30.0, ue_height_m: float = 1.5,
                 environment: str = "open") -> None:
        if not 30.0 <= bs_height_m <= 200.0:
            raise ValueError("Hata valid for BS heights 30-200 m")
        if not 1.0 <= ue_height_m <= 10.0:
            raise ValueError("Hata valid for UE heights 1-10 m")
        if environment not in self.ENVIRONMENTS:
            raise ValueError(f"environment must be one of {self.ENVIRONMENTS}")
        self.bs_height_m = bs_height_m
        self.ue_height_m = ue_height_m
        self.environment = environment

    def _mobile_correction_db(self, freq_mhz: float) -> float:
        # Small/medium city correction (adequate for rural towns).
        return ((1.1 * math.log10(freq_mhz) - 0.7) * self.ue_height_m
                - (1.56 * math.log10(freq_mhz) - 0.8))

    def path_loss_db(self, distance_m: float, freq_mhz: float) -> float:
        if not 150.0 <= freq_mhz <= 2000.0:
            raise ValueError(
                f"Okumura-Hata valid 150-1500 MHz (soft to 2000); got {freq_mhz}")
        d_km = max(self._clamp_distance(distance_m) / 1000.0, 0.01)
        a_hm = self._mobile_correction_db(freq_mhz)
        loss = (69.55 + 26.16 * math.log10(freq_mhz)
                - 13.82 * math.log10(self.bs_height_m) - a_hm
                + (44.9 - 6.55 * math.log10(self.bs_height_m)) * math.log10(d_km))
        if self.environment == "suburban":
            loss -= 2.0 * (math.log10(freq_mhz / 28.0)) ** 2 + 5.4
        elif self.environment == "open":
            loss -= (4.78 * (math.log10(freq_mhz)) ** 2
                     - 18.33 * math.log10(freq_mhz) + 40.94)
        return loss

    def path_loss_db_many(self, distances_m: Sequence[float],
                          freq_mhz: float) -> np.ndarray:
        if not 150.0 <= freq_mhz <= 2000.0:
            raise ValueError(
                f"Okumura-Hata valid 150-1500 MHz (soft to 2000); got {freq_mhz}")
        d_km = np.maximum(self._clamp_distances(distances_m) / 1000.0, 0.01)
        a_hm = self._mobile_correction_db(freq_mhz)
        # same association order as the scalar expression, distance term last
        prefix = (69.55 + 26.16 * math.log10(freq_mhz)
                  - 13.82 * math.log10(self.bs_height_m) - a_hm)
        slope = 44.9 - 6.55 * math.log10(self.bs_height_m)
        loss = prefix + slope * log10_exact(d_km)
        if self.environment == "suburban":
            loss = loss - (2.0 * (math.log10(freq_mhz / 28.0)) ** 2 + 5.4)
        elif self.environment == "open":
            loss = loss - (4.78 * (math.log10(freq_mhz)) ** 2
                           - 18.33 * math.log10(freq_mhz) + 40.94)
        return loss


class Cost231Hata(PropagationModel):
    """COST-231 Hata extension, valid 1500–2600 MHz (soft to 6000).

    Used for WiFi ISM frequencies at macro ranges in the E3 comparison.
    The ``environment`` applies the same open/suburban corrections as
    Okumura-Hata (COST-231 proper is urban; corrections follow common
    practice for rural comparisons).
    """

    def __init__(self, bs_height_m: float = 30.0, ue_height_m: float = 1.5,
                 environment: str = "open", metropolitan: bool = False) -> None:
        if not 30.0 <= bs_height_m <= 200.0:
            raise ValueError("COST-231 valid for BS heights 30-200 m")
        if environment not in OkumuraHata.ENVIRONMENTS:
            raise ValueError(f"environment must be one of {OkumuraHata.ENVIRONMENTS}")
        self.bs_height_m = bs_height_m
        self.ue_height_m = ue_height_m
        self.environment = environment
        self.metropolitan = metropolitan

    def path_loss_db(self, distance_m: float, freq_mhz: float) -> float:
        if not 1500.0 <= freq_mhz <= 6000.0:
            raise ValueError(
                f"COST-231 Hata valid 1500-2600 MHz (soft to 6000); got {freq_mhz}")
        d_km = max(self._clamp_distance(distance_m) / 1000.0, 0.01)
        a_hm = ((1.1 * math.log10(freq_mhz) - 0.7) * self.ue_height_m
                - (1.56 * math.log10(freq_mhz) - 0.8))
        c_m = 3.0 if self.metropolitan else 0.0
        loss = (46.3 + 33.9 * math.log10(freq_mhz)
                - 13.82 * math.log10(self.bs_height_m) - a_hm
                + (44.9 - 6.55 * math.log10(self.bs_height_m)) * math.log10(d_km)
                + c_m)
        if self.environment == "suburban":
            loss -= 2.0 * (math.log10(freq_mhz / 28.0)) ** 2 + 5.4
        elif self.environment == "open":
            loss -= (4.78 * (math.log10(freq_mhz)) ** 2
                     - 18.33 * math.log10(freq_mhz) + 40.94)
        return loss

    def path_loss_db_many(self, distances_m: Sequence[float],
                          freq_mhz: float) -> np.ndarray:
        if not 1500.0 <= freq_mhz <= 6000.0:
            raise ValueError(
                f"COST-231 Hata valid 1500-2600 MHz (soft to 6000); got {freq_mhz}")
        d_km = np.maximum(self._clamp_distances(distances_m) / 1000.0, 0.01)
        a_hm = ((1.1 * math.log10(freq_mhz) - 0.7) * self.ue_height_m
                - (1.56 * math.log10(freq_mhz) - 0.8))
        c_m = 3.0 if self.metropolitan else 0.0
        prefix = (46.3 + 33.9 * math.log10(freq_mhz)
                  - 13.82 * math.log10(self.bs_height_m) - a_hm)
        slope = 44.9 - 6.55 * math.log10(self.bs_height_m)
        loss = prefix + slope * log10_exact(d_km) + c_m
        if self.environment == "suburban":
            loss = loss - (2.0 * (math.log10(freq_mhz / 28.0)) ** 2 + 5.4)
        elif self.environment == "open":
            loss = loss - (4.78 * (math.log10(freq_mhz)) ** 2
                           - 18.33 * math.log10(freq_mhz) + 40.94)
        return loss


def model_for_frequency(freq_mhz: float, bs_height_m: float = 30.0,
                        ue_height_m: float = 1.5,
                        environment: str = "open") -> PropagationModel:
    """Pick the Hata family member valid at ``freq_mhz``.

    Below 150 MHz or above 6 GHz falls back to log-distance with a rural
    exponent, so the catalogue is total over any band we might add.
    """
    if 150.0 <= freq_mhz <= 1500.0:
        return OkumuraHata(bs_height_m, ue_height_m, environment)
    if 1500.0 < freq_mhz <= 6000.0:
        return Cost231Hata(bs_height_m, ue_height_m, environment)
    return LogDistance(exponent=3.2, ref_m=100.0)
