"""Unit tests for the rate tables and HARQ model."""

import numpy as np
import pytest

from repro.phy import (
    LTE_CQI_TABLE,
    WIFI_MCS_TABLE,
    harq_goodput_factor,
    lte_efficiency_for_sinr,
    select_lte_cqi,
    select_wifi_mcs,
    wifi_rate_for_snr,
)
from repro.phy.harq import block_error_rate, harq_goodput_factor_many


# -- rate tables ----------------------------------------------------------------

def test_lte_table_monotone():
    effs = [e.efficiency_bps_hz for e in LTE_CQI_TABLE]
    thresholds = [e.min_sinr_db for e in LTE_CQI_TABLE]
    assert effs == sorted(effs)
    assert thresholds == sorted(thresholds)
    assert len(LTE_CQI_TABLE) == 15


def test_wifi_table_monotone():
    effs = [e.efficiency_bps_hz for e in WIFI_MCS_TABLE]
    assert effs == sorted(effs)
    assert len(WIFI_MCS_TABLE) == 8


def test_lte_reaches_lower_sinr_than_wifi():
    """The E4 structural fact: LTE CQI1 works ~9 dB below WiFi MCS0."""
    assert LTE_CQI_TABLE[0].min_sinr_db < WIFI_MCS_TABLE[0].min_sinr_db - 5.0


def test_select_lte_cqi_at_thresholds():
    assert select_lte_cqi(-6.7).index == 1
    assert select_lte_cqi(22.7).index == 15
    assert select_lte_cqi(100).index == 15
    assert select_lte_cqi(-10) is None


def test_select_lte_cqi_between_thresholds():
    entry = select_lte_cqi(9.0)  # between CQI8 (8.1) and CQI9 (10.3)
    assert entry.index == 8


def test_select_wifi_mcs():
    assert select_wifi_mcs(1.9) is None
    assert select_wifi_mcs(2.0).index == 0
    assert select_wifi_mcs(30).index == 7


def test_efficiency_zero_below_floor():
    assert lte_efficiency_for_sinr(-20) == 0.0
    assert wifi_rate_for_snr(-5) == 0.0


def test_wifi_rate_scales_with_bandwidth():
    assert wifi_rate_for_snr(30, 20e6) == pytest.approx(65e6)
    assert wifi_rate_for_snr(30, 40e6) == pytest.approx(130e6)


# -- BLER / HARQ ------------------------------------------------------------------

def test_bler_ten_percent_at_threshold():
    assert block_error_rate(10.0, 10.0) == pytest.approx(0.10, abs=1e-6)


def test_bler_monotone_in_sinr():
    blers = [block_error_rate(s, 0.0) for s in range(-10, 11)]
    assert all(a >= b for a, b in zip(blers, blers[1:]))
    assert blers[0] > 0.99
    assert blers[-1] < 1e-4


def test_harq_factor_near_one_at_good_sinr():
    assert harq_goodput_factor(20.0, 0.0) == pytest.approx(1.0, abs=0.01)


def test_harq_combining_beats_plain_arq_below_threshold():
    """§3.2: HARQ increases throughput under weak signal conditions."""
    # At 2 dB shortfall combining nearly doubles goodput; by 4-6 dB the
    # plain-ARQ link has collapsed while HARQ still delivers ~1/3.
    assert (harq_goodput_factor(-2, 0.0, combining=True)
            > 1.5 * harq_goodput_factor(-2, 0.0, combining=False))
    for shortfall in (4, 6):
        with_harq = harq_goodput_factor(-shortfall, 0.0, combining=True)
        plain = harq_goodput_factor(-shortfall, 0.0, combining=False)
        assert with_harq > 10 * plain


def test_harq_factor_bounded():
    for sinr in (-20, -5, 0, 5, 20):
        f = harq_goodput_factor(sinr, 0.0)
        assert 0.0 <= f <= 1.0


def test_harq_more_retx_helps_weak_links():
    weak = -4.0
    assert (harq_goodput_factor(weak, 0.0, max_retx=3)
            > harq_goodput_factor(weak, 0.0, max_retx=0))


def test_harq_factor_rejects_negative_retx():
    with pytest.raises(ValueError):
        harq_goodput_factor(0, 0, max_retx=-1)
    with pytest.raises(ValueError):
        harq_goodput_factor_many([0.0], [0.0], max_retx=-1)


@pytest.mark.parametrize("combining", [True, False])
@pytest.mark.parametrize("max_retx", [0, 1, 3, 4])
def test_vector_harq_factor_is_the_scalar_bits(max_retx, combining):
    """Element by element, to the last bit: the TTI engine's HARQ step
    must deliver what the per-grant scalar evaluation delivers."""
    rng = np.random.default_rng(max_retx)
    sinr = rng.uniform(-15.0, 30.0, 2000).tolist() + [-0.0, 0.0, 200.0]
    thresh = rng.uniform(-7.0, 23.0, len(sinr)).tolist()
    got = harq_goodput_factor_many(sinr, thresh, max_retx=max_retx,
                                   combining=combining).tolist()
    assert got == [harq_goodput_factor(s, t, max_retx=max_retx,
                                       combining=combining)
                   for s, t in zip(sinr, thresh)]
    assert harq_goodput_factor_many([], [], max_retx=max_retx).size == 0
