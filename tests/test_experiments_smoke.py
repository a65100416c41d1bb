"""Smoke tests: every (cheap) experiment produces well-formed tables.

The benchmarks assert the *shapes*; these tests assert the *plumbing*
stays runnable with small parameters, so refactors that break an
experiment fail fast in the unit suite instead of the slow bench run.
"""

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    e3_range,
    e4_weak_signal,
    e5_coordination,
    e7_core_scaling,
    e8_hidden_terminal,
    e9_x2_bandwidth,
    e10_registries,
    e11_mesh_backhaul,
    e12_deployment_cost,
    e13_idle_paging,
    e14_nr_upgrade,
    e16_resilience,
    e17_attach_storm,
    e18_sustained_overload,
    e19_city,
    t1_design_space,
)
from repro.invariants import armed
from repro.metrics.tables import ResultTable


def test_registry_covers_all_ids():
    assert set(ALL_EXPERIMENTS) == {
        "T1", "F1", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
        "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19"}
    for module in ALL_EXPERIMENTS.values():
        assert hasattr(module, "run")
        assert module.__doc__


def _check(table, min_rows=1):
    assert isinstance(table, ResultTable)
    assert len(table) >= min_rows
    assert table.render()


def test_t1_smoke():
    quadrants, matrix = t1_design_space.run()
    _check(quadrants, 2)
    _check(matrix, 4)


def test_e3_smoke():
    _check(e3_range.run(distances_m=[500, 5000]), 6)


def test_e4_smoke():
    _check(e4_weak_signal.run(sinrs_db=[-5, 5]), 2)
    _check(e4_weak_signal.harq_retx_ablation(), 2)


def test_e5_smoke():
    _check(e5_coordination.run(n_aps=2, ue_per_ap=2, seed=1), 5)


def test_e7_smoke():
    _check(e7_core_scaling.run(ap_counts=[1, 2], ue_per_ap=2), 4)


def test_e8_smoke():
    _check(e8_hidden_terminal.run(ap_counts=[3]), 1)
    _check(e8_hidden_terminal.sensing_ablation(
        sense_ranges_m=[2000.0], n_aps=4), 1)


def test_e9_smoke():
    _check(e9_x2_bandwidth.run(peer_counts=[2], duration_s=5.0), 1)


def test_e10_smoke():
    _check(e10_registries.run(n_aps=5), 3)


def test_e11_smoke():
    _check(e11_mesh_backhaul.run(n_aps=3), 3)


def test_e12_smoke():
    _check(e12_deployment_cost.run(), 3)
    _check(e12_deployment_cost.bom_table(), 4)


def test_e13_smoke():
    _check(e13_idle_paging.run(enb_counts=[1, 2]), 3)


def test_e14_smoke():
    _check(e14_nr_upgrade.run(distances_m=[500, 8000]), 4)
    _check(e14_nr_upgrade.latency_ladder(), 5)


def test_e16_smoke():
    timeline, summary = e16_resilience.run(
        n_ues=4, fail_at_s=3.0, outage_s=6.0, horizon_s=15.0)
    _check(timeline, 2 * 15)
    _check(summary, 2)


def test_e17_smoke():
    table = e17_attach_storm.run(intensities=(1, 4), n_aps=2, ue_per_ap=3,
                                 horizon_s=12.0)
    _check(table, 4)
    # robustness contract: the federated arm never attaches a smaller
    # fraction of the crowd than the centralized arm at any intensity
    success = table.column("attach_success")
    for cent, dlte in zip(success[0::2], success[1::2]):
        assert dlte >= cent


def test_e18_smoke():
    table = e18_sustained_overload.run(
        loads=(0.5, 5.0), n_aps=1, ue_per_ap=3, settle_s=4.0,
        warmup_s=1.0, measure_s=8.0)
    _check(table, 8)
    # robustness contract: at the overload point, AQM+ECN goodput is
    # never below the drop-tail control for the same architecture
    goodput = table.column("goodput_mbps")
    marks = table.column("ecn_marks")
    for droptail, aqm in zip(goodput[-4::2], goodput[-3::2]):
        assert aqm >= droptail
    # the AQM arm actually marked something at overload
    assert sum(marks[-3::2]) > 0


def test_e19_smoke():
    with armed():
        table = e19_city.run(n_cells=4, ue_per_cell=2,
                             background_per_cell=12, shards=2, horizon_s=4.0)
    _check(table, 2)
    # scaling contract: local cores never attach slower than the
    # centralized EPC, and their control traffic stays off the WAN
    mean_ms = table.column("mean_attach_ms")
    assert mean_ms[1] <= mean_ms[0]
    assert table.column("wan_ctl_mb")[1] == 0
    assert table.column("failures") == [0, 0]
