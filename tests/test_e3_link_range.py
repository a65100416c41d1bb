"""E3's bisected link range against the Hata formula inverted in closed form.

``e3_range._link_range_m`` bisects 60 times for the farthest distance at
which a band's downlink still carries a rate. Every ``BAND_SETUPS`` row
is priced with Okumura-Hata or COST-231-Hata, whose loss is linear in
``log10(d_km)`` with slope ``44.9 − 6.55·log10(h_b)``, and the rate first
reaches 0 just below the lowest CQI / MCS threshold. So the range is the
distance at which the SNR has fallen from its 1 km value to that
threshold::

    d = 1 km · 10 ** ((snr_1km − threshold) / slope)

clamped to the bisection's 50 m – 150 km bracket. 60 halvings of that
bracket leave 1.3e-13 m; the inversion's float error is a few ulps of
the exponent, well under the relative tolerance of 1e-12.
"""

import math
from dataclasses import replace

import pytest

from repro.experiments import e3_range
from repro.geo.points import Point
from repro.phy.mcs import LTE_CQI_TABLE, WIFI_MCS_TABLE
from repro.phy.propagation import Cost231Hata, OkumuraHata

REL_TOL = 1e-12


@pytest.mark.parametrize("key,is_lte,tx_dbm,gain_dbi", e3_range.BAND_SETUPS)
def test_link_range_is_the_inverted_hata_loss(key, is_lte, tx_dbm, gain_dbi):
    band, budget, ap, ue = e3_range._band_setup(key, tx_dbm, gain_dbi)
    assert isinstance(budget.model, (OkumuraHata, Cost231Hata))
    threshold = (LTE_CQI_TABLE if is_lte else WIFI_MCS_TABLE)[0].min_sinr_db
    # the threshold is where the rate first reaches 0
    assert e3_range._rate_bps(band, is_lte, threshold) > 0
    below = math.nextafter(threshold, -math.inf)
    assert e3_range._rate_bps(band, is_lte, below) == 0

    slope = 44.9 - 6.55 * math.log10(budget.model.bs_height_m)
    snr_1km = budget.snr_db(ap, replace(ue, position=Point(1000.0, 0.0)))
    closed_form = 1000.0 * 10 ** ((snr_1km - threshold) / slope)
    expected = min(max(closed_form, 50.0), 150_000.0)

    bisected = e3_range._link_range_m(key, is_lte, tx_dbm, gain_dbi)
    assert bisected == pytest.approx(expected, rel=REL_TOL)
