"""Unit conversions for RF arithmetic (dB and thermal noise)."""

from __future__ import annotations

import math

#: Boltzmann constant times reference temperature (290 K), in watts/Hz.
_KT_W_PER_HZ = 1.380649e-23 * 290.0

#: Thermal noise density at 290 K in dBm/Hz (the familiar -174).
THERMAL_NOISE_DENSITY_DBM_HZ = 10.0 * math.log10(_KT_W_PER_HZ * 1e3)


def db_to_linear(db: float) -> float:
    """Convert a dB ratio to a linear ratio."""
    return 10.0 ** (db / 10.0)


def linear_to_db(ratio: float) -> float:
    """Convert a linear power ratio to dB. Requires ratio > 0."""
    if ratio <= 0:
        raise ValueError(f"cannot take dB of non-positive ratio {ratio}")
    return 10.0 * math.log10(ratio)


def thermal_noise_dbm(bandwidth_hz: float, noise_figure_db: float = 0.0) -> float:
    """Thermal noise power over ``bandwidth_hz``, plus receiver noise figure.

    kTB at 290 K: -174 dBm/Hz + 10 log10(B) + NF.
    """
    if bandwidth_hz <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    return THERMAL_NOISE_DENSITY_DBM_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db
