"""Unit tests for repro.phy.units, repro.phy.vmath and repro.phy.bands."""

import math

import numpy as np
import pytest

from repro.phy import (
    LTE_BANDS,
    WIFI_BANDS,
    db_to_linear,
    get_band,
    linear_to_db,
    thermal_noise_dbm,
)
from repro.phy.vmath import (
    db_to_linear_exact,
    exp_exact,
    hypot_exact,
    log10_exact,
)


def test_db_roundtrip():
    for db in (-30, -3, 0, 3, 10, 60):
        assert linear_to_db(db_to_linear(db)) == pytest.approx(db)


def test_known_db_values():
    assert db_to_linear(3) == pytest.approx(2.0, rel=1e-2)
    assert db_to_linear(10) == pytest.approx(10.0)
    assert db_to_linear(0) == 1.0


def test_log_of_nonpositive_rejected():
    with pytest.raises(ValueError):
        linear_to_db(0)


def test_thermal_noise_canonical_values():
    # -174 dBm/Hz; 10 MHz -> -104 dBm; 20 MHz -> -101 dBm.
    assert thermal_noise_dbm(10e6) == pytest.approx(-104.0, abs=0.2)
    assert thermal_noise_dbm(20e6) == pytest.approx(-101.0, abs=0.2)


def test_thermal_noise_includes_noise_figure():
    base = thermal_noise_dbm(10e6)
    assert thermal_noise_dbm(10e6, noise_figure_db=7) == pytest.approx(base + 7)


def test_noise_figure_is_added_last():
    """The UE arena adds a noise-figure column to the NF-free floor; that
    is the per-radio floor's bits only while NF is the last term."""
    for bw in (1.4e6, 5e6, 10e6, 20e6, 180e3):
        for nf in (0.0, 2.5, 5, 7.0, 9.3, 11.1):
            assert thermal_noise_dbm(bw, nf) == thermal_noise_dbm(bw) + nf


def test_element_maps_are_the_scalar_bits():
    values = np.random.default_rng(5).uniform(-60.0, 60.0, 500)
    other = np.random.default_rng(6).uniform(-3e3, 3e3, 500)
    vals, oth = values.tolist(), other.tolist()
    assert log10_exact(np.abs(values)).tolist() == [
        math.log10(abs(v)) for v in vals]
    assert exp_exact(values).tolist() == [math.exp(v) for v in vals]
    assert db_to_linear_exact(values).tolist() == [
        db_to_linear(v) for v in vals]
    assert hypot_exact(values, other).tolist() == [
        math.hypot(x, y) for x, y in zip(vals, oth)]
    assert exp_exact([]).size == 0


def test_thermal_noise_rejects_bad_bandwidth():
    with pytest.raises(ValueError):
        thermal_noise_dbm(0)


# -- bands --------------------------------------------------------------------

def test_paper_named_bands_present():
    # §3.2 names bands 5, 30, 31 explicitly.
    assert LTE_BANDS["lte5"].number == 5
    assert LTE_BANDS["lte31"].number == 31
    assert LTE_BANDS["lte30tvws"].number == 30


def test_band5_is_850mhz_fdd_licensed():
    band = get_band("lte5")
    assert 800 < band.dl_mhz < 900
    assert band.duplex == "FDD"
    assert band.licensed
    assert band.is_sub_ghz


def test_wifi_bands_are_ism_unlicensed():
    for band in WIFI_BANDS.values():
        assert not band.licensed
        assert band.duplex == "ISM"
        assert not band.is_sub_ghz


def test_licensed_subghz_allows_more_eirp_than_ism():
    # The quantitative heart of §3.2 "Spectrum Bands".
    assert (LTE_BANDS["lte5"].max_eirp_dbm
            > WIFI_BANDS["wifi2g4"].max_eirp_dbm)
    assert (LTE_BANDS["lte31"].max_eirp_dbm
            > WIFI_BANDS["wifi5g"].max_eirp_dbm)


def test_unknown_band_raises_with_choices():
    with pytest.raises(KeyError, match="lte5"):
        get_band("nope")
