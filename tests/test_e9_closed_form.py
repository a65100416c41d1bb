"""E9's closed form against the simulated reporting mesh it replaced.

``e9_x2_bandwidth`` computes one AP's X2 rate as ``ticks · (n − 1) ·
LoadInformation.size_bytes / duration_s``. The frozen
:mod:`tests.reference.e9_reporting` simulates the full mesh and reads
endpoint 0's byte counter; the two must agree with float ``==`` on every
level and at both seeds (the rate never depended on one). At 5 s the
float clock sends ``floor(5 / 0.1) + 1`` reports; at 60 s it sends one
fewer, so a floor-based tick count fails here. The count gate holds the
experiment to arithmetic: it builds no simulator.
"""

import pytest

from repro.experiments import e9_x2_bandwidth as e9
from repro.simcore.simulator import Simulator
from tests.reference.e9_reporting import _reporting_run


@pytest.mark.parametrize("duration_s", [5.0, 60.0])
@pytest.mark.parametrize("n_peers", [1, 2, 4])
def test_closed_form_equals_the_simulated_mesh(n_peers, duration_s):
    for _label, period in e9.LEVELS:
        rate = e9._report_rate(n_peers, period, duration_s)
        for seed in (4, 11):
            assert rate == _reporting_run(n_peers, period, duration_s, seed)


@pytest.mark.parametrize("n_peers", [0, -1])
def test_a_mesh_without_an_ap_is_rejected(n_peers):
    with pytest.raises(ValueError, match="n_peers"):
        e9.run(peer_counts=[n_peers])
    with pytest.raises(ValueError, match="n_peers"):
        e9.backhaul_fit(n_peers=n_peers)


@pytest.mark.parametrize("duration_s", [0.0, -5.0])
def test_an_empty_duration_is_rejected(duration_s):
    with pytest.raises(ValueError, match="duration_s"):
        e9.run(duration_s=duration_s)
    with pytest.raises(ValueError, match="duration_s"):
        e9.backhaul_fit(duration_s=duration_s)


def test_e9_builds_no_simulator(monkeypatch):
    built = []
    monkeypatch.setattr(Simulator, "arming", built.append)
    e9.run()
    e9.backhaul_fit()
    assert built == []
