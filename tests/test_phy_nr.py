"""Unit tests for the 5G-NR primitives (repro.phy.nr)."""

import pytest

from repro.phy.mcs import lte_efficiency_for_sinr
from repro.phy.nr import (
    NR_BANDS,
    NR_MCS_TABLE,
    NR_NUMEROLOGY,
    Numerology,
    air_interface_latency_s,
    beamforming_gain_db,
    nr_efficiency_for_sinr,
)


# -- numerologies -------------------------------------------------------------

def test_numerology_scs_ladder():
    assert Numerology(0).scs_khz == 15
    assert Numerology(1).scs_khz == 30
    assert Numerology(3).scs_khz == 120


def test_numerology_slot_duration():
    assert Numerology(0).slot_duration_s == 1e-3
    assert Numerology(2).slot_duration_s == 0.25e-3


def test_numerology_validation():
    with pytest.raises(ValueError):
        Numerology(5)
    with pytest.raises(ValueError):
        Numerology(-1)


# -- bands / tables --------------------------------------------------------------

def test_nr_bands_cover_both_layers():
    assert NR_BANDS["nr-n28"].dl_mhz < 1000.0
    assert NR_BANDS["nr-n78"].dl_mhz > 1000.0
    assert NR_BANDS["nr-n78"].bandwidth_hz == 100e6
    assert NR_NUMEROLOGY["nr-n78"].mu == 1


def test_nr_table_extends_lte_monotonically():
    effs = [e.efficiency_bps_hz for e in NR_MCS_TABLE]
    thresholds = [e.min_sinr_db for e in NR_MCS_TABLE]
    assert effs == sorted(effs)
    assert thresholds == sorted(thresholds)
    assert effs[-1] > 7.0  # 256QAM peak


def test_nr_efficiency_matches_lte_below_256qam():
    for sinr in (-10, 0, 10, 20):
        assert nr_efficiency_for_sinr(sinr) == lte_efficiency_for_sinr(sinr)


def test_nr_efficiency_beats_lte_at_high_sinr():
    assert nr_efficiency_for_sinr(30) > lte_efficiency_for_sinr(30)
    assert nr_efficiency_for_sinr(30) == pytest.approx(7.4063)


# -- beamforming / latency ------------------------------------------------------------

def test_beamforming_gain_log_law():
    assert beamforming_gain_db(1) == 0.0
    assert beamforming_gain_db(10) == pytest.approx(10.0)
    assert beamforming_gain_db(64) == pytest.approx(18.06, abs=0.01)
    with pytest.raises(ValueError):
        beamforming_gain_db(0)


def test_air_latency_scales_with_numerology():
    assert air_interface_latency_s(Numerology(0)) == pytest.approx(4e-3)
    assert air_interface_latency_s(Numerology(3)) == pytest.approx(0.5e-3)
    with pytest.raises(ValueError):
        air_interface_latency_s(Numerology(0), scheduling_slots=0)
