"""Unit tests for propagation models and shadowing."""

import pytest

from repro.geo import Point
from repro.phy import (
    Cost231Hata,
    FreeSpace,
    LogDistance,
    OkumuraHata,
    ShadowingField,
)
from repro.phy.propagation import model_for_frequency


def test_free_space_canonical_value():
    # FSPL at 1 km, 1000 MHz: 32.44 + 60 = 92.44 dB
    assert FreeSpace().path_loss_db(1000, 1000) == pytest.approx(92.44, abs=0.1)


def test_free_space_inverse_square():
    fs = FreeSpace()
    assert (fs.path_loss_db(2000, 900) - fs.path_loss_db(1000, 900)
            == pytest.approx(6.02, abs=0.01))


def test_free_space_frequency_scaling():
    fs = FreeSpace()
    # doubling frequency adds 6 dB
    assert (fs.path_loss_db(1000, 1800) - fs.path_loss_db(1000, 900)
            == pytest.approx(6.02, abs=0.01))


def test_models_clamp_tiny_distance():
    for model in (FreeSpace(), LogDistance()):
        assert model.path_loss_db(0.0, 900) == model.path_loss_db(1.0, 900)


def test_negative_distance_rejected():
    with pytest.raises(ValueError):
        FreeSpace().path_loss_db(-5, 900)


def test_log_distance_exponent():
    ld = LogDistance(exponent=4.0, ref_m=100)
    # 10x distance -> 40 dB at exponent 4
    assert (ld.path_loss_db(10_000, 900) - ld.path_loss_db(1000, 900)
            == pytest.approx(40.0, abs=0.01))


def test_log_distance_matches_fspl_below_reference():
    ld = LogDistance(exponent=4.0, ref_m=100)
    assert ld.path_loss_db(50, 900) == pytest.approx(
        FreeSpace().path_loss_db(50, 900))


def test_log_distance_rejects_subunity_exponent():
    with pytest.raises(ValueError):
        LogDistance(exponent=0.5)


def test_hata_open_less_loss_than_urban():
    d, f = 5000, 850
    urban = OkumuraHata(environment="urban").path_loss_db(d, f)
    suburban = OkumuraHata(environment="suburban").path_loss_db(d, f)
    rural = OkumuraHata(environment="open").path_loss_db(d, f)
    assert rural < suburban < urban


def test_hata_loss_grows_with_frequency():
    model = OkumuraHata(environment="open")
    assert model.path_loss_db(5000, 1500) > model.path_loss_db(5000, 450)


def test_hata_validity_limits():
    with pytest.raises(ValueError):
        OkumuraHata(environment="open").path_loss_db(1000, 100)  # below 150 MHz
    with pytest.raises(ValueError):
        OkumuraHata(bs_height_m=5)
    with pytest.raises(ValueError):
        OkumuraHata(environment="jungle")


def test_cost231_validity_limits():
    with pytest.raises(ValueError):
        Cost231Hata().path_loss_db(1000, 900)  # below 1500 MHz
    with pytest.raises(ValueError):
        Cost231Hata(bs_height_m=500)


def test_cost231_continues_hata_trend():
    # At the 1500 MHz boundary the two families should be within a few dB.
    hata = OkumuraHata(environment="open").path_loss_db(5000, 1499)
    cost = Cost231Hata(environment="open").path_loss_db(5000, 1501)
    assert abs(hata - cost) < 6.0


def test_850mhz_beats_2400mhz_at_range():
    """§3.2 core claim: sub-GHz propagates much better than ISM 2.4 GHz."""
    lte = OkumuraHata(environment="open").path_loss_db(10_000, 850)
    wifi = Cost231Hata(environment="open").path_loss_db(10_000, 2400)
    assert wifi - lte > 8.0  # ~9 dB model advantage at 10 km, before
    # the EIRP-cap and antenna advantages that E3 adds on top


def test_model_for_frequency_dispatch():
    assert isinstance(model_for_frequency(850), OkumuraHata)
    assert isinstance(model_for_frequency(2400), Cost231Hata)
    assert isinstance(model_for_frequency(60_000), LogDistance)


# -- shadowing ----------------------------------------------------------------

def test_shadowing_deterministic_per_link():
    field = ShadowingField(sigma_db=8, seed=3)
    a, b = Point(10, 20), Point(500, 700)
    assert field.shadowing_db(a, b) == field.shadowing_db(a, b)


def test_shadowing_reciprocal():
    field = ShadowingField(sigma_db=8, seed=3)
    a, b = Point(10, 20), Point(500, 700)
    assert field.shadowing_db(a, b) == field.shadowing_db(b, a)


def test_shadowing_zero_sigma_disabled():
    field = ShadowingField(sigma_db=0)
    assert field.shadowing_db(Point(0, 0), Point(100, 100)) == 0.0


def test_shadowing_constant_within_coherence_cell():
    field = ShadowingField(sigma_db=8, coherence_m=50, seed=1)
    a = Point(0, 0)
    assert (field.shadowing_db(a, Point(500, 500))
            == field.shadowing_db(a, Point(510, 520)))  # same 50 m cell


def test_shadowing_varies_across_cells():
    field = ShadowingField(sigma_db=8, coherence_m=50, seed=1)
    a = Point(0, 0)
    draws = {field.shadowing_db(a, Point(1000 + 100 * i, 0)) for i in range(10)}
    assert len(draws) > 5


def test_shadowing_statistics_roughly_lognormal():
    field = ShadowingField(sigma_db=8, coherence_m=10, seed=7)
    a = Point(-10_000, -10_000)
    samples = [field.shadowing_db(a, Point(i * 25.0, 0)) for i in range(500)]
    mean = sum(samples) / len(samples)
    var = sum((s - mean) ** 2 for s in samples) / len(samples)
    assert abs(mean) < 1.5
    assert 6.0 < var ** 0.5 < 10.0


def test_shadowing_validates():
    with pytest.raises(ValueError):
        ShadowingField(sigma_db=-1)
    with pytest.raises(ValueError):
        ShadowingField(coherence_m=0)
