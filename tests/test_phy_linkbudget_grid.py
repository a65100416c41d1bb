"""Unit tests for link budget and resource grid."""

import pytest

from repro.geo import Point
from repro.phy import (
    FreeSpace,
    LinkBudget,
    OkumuraHata,
    Radio,
    prbs_for_bandwidth,
)
from repro.phy.resource_grid import TTI_S

from tests.reference.scalar_tti import bits_per_prb, link_sinr_db, sinr_db


def _ap(x=0.0, **kw):
    defaults = dict(tx_power_dbm=43, antenna_gain_dbi=15, height_m=30)
    defaults.update(kw)
    return Radio(Point(x, 0), **defaults)


def _ue(x, **kw):
    defaults = dict(tx_power_dbm=23, antenna_gain_dbi=0, height_m=1.5)
    defaults.update(kw)
    return Radio(Point(x, 0), **defaults)


def test_eirp_sums_components():
    r = Radio(Point(0, 0), tx_power_dbm=30, antenna_gain_dbi=10,
              cable_loss_db=2, ul_papr_advantage_db=3)
    assert r.eirp_dbm == 41.0


def test_rx_power_decreases_with_distance():
    lb = LinkBudget(FreeSpace(), freq_mhz=850, bandwidth_hz=10e6)
    ap = _ap()
    near = lb.rx_power_dbm(ap, _ue(100))
    far = lb.rx_power_dbm(ap, _ue(10_000))
    assert near > far


def test_snr_uses_bandwidth_noise():
    narrow = LinkBudget(FreeSpace(), 850, bandwidth_hz=1.4e6)
    wide = LinkBudget(FreeSpace(), 850, bandwidth_hz=20e6)
    ap, ue = _ap(), _ue(1000)
    # narrower bandwidth -> less noise -> better SNR
    assert narrow.snr_db(ap, ue) > wide.snr_db(ap, ue)


def test_sinr_combiner_math():
    # signal -90, one interferer -100, noise -104: SINR ~ 8.5 dB
    out = sinr_db(-90.0, [-100.0], -104.0)
    assert out == pytest.approx(8.5, abs=0.3)


def test_sinr_no_interference_equals_snr():
    lb = LinkBudget(FreeSpace(), 850, 10e6)
    ap, ue = _ap(), _ue(2000)
    assert link_sinr_db(lb, ap, ue) == pytest.approx(lb.snr_db(ap, ue))


def test_sinr_interferer_hurts():
    lb = LinkBudget(FreeSpace(), 850, 10e6)
    ap, ue = _ap(), _ue(3000)
    rogue = _ap(x=6000)
    assert link_sinr_db(lb, ap, ue, interferers=[rogue]) < lb.snr_db(ap, ue)


def test_sinr_self_excluded_from_interference():
    lb = LinkBudget(FreeSpace(), 850, 10e6)
    ap, ue = _ap(), _ue(3000)
    assert (link_sinr_db(lb, ap, ue, interferers=[ap])
            == pytest.approx(lb.snr_db(ap, ue)))


def test_scfdma_papr_advantage_extends_uplink():
    """§3.2: SC-FDMA allows higher power transmission from mobiles."""
    lb = LinkBudget(OkumuraHata(environment="open"), 850, 10e6)
    ap = _ap()
    lte_ue = _ue(8000, ul_papr_advantage_db=3.0)
    ofdm_ue = _ue(8000, ul_papr_advantage_db=0.0)
    assert (lb.snr_db(lte_ue, ap) - lb.snr_db(ofdm_ue, ap)
            == pytest.approx(3.0))


# -- resource grid ---------------------------------------------------------------

def test_standard_bandwidth_prb_counts():
    assert prbs_for_bandwidth(1.4e6) == 6
    assert prbs_for_bandwidth(5e6) == 25
    assert prbs_for_bandwidth(10e6) == 50
    assert prbs_for_bandwidth(20e6) == 100


def test_nonstandard_bandwidth_rejected():
    with pytest.raises(ValueError, match="7"):
        prbs_for_bandwidth(7e6)


def test_bits_per_prb():
    # 1 bps/Hz over 180 kHz for 1 ms = 180 bits
    assert bits_per_prb(1.0) == pytest.approx(180.0)
    assert bits_per_prb(0.0) == 0.0
    with pytest.raises(ValueError):
        bits_per_prb(-1)


def test_tti_is_one_ms():
    assert TTI_S == 1e-3
