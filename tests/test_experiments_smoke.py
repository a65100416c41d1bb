"""Smoke tests: every (cheap) experiment produces well-formed tables.

The benchmarks assert the *shapes*; these tests assert the *plumbing*
stays runnable with small parameters, so refactors that break an
experiment fail fast in the unit suite instead of the slow bench run.
An experiment at its ``CASES`` parameters is read off the determinism
matrix's serial reference, not run again.
"""

from repro.experiments import (
    ALL_EXPERIMENTS,
    e4_weak_signal,
    e8_hidden_terminal,
    e12_deployment_cost,
    e14_nr_upgrade,
    e19_city,
)
from repro.invariants import armed
from repro.metrics.tables import ResultTable

from tests.test_determinism import serial


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
    quadrants, matrix = serial("T1").result
    _check(quadrants, 2)
    _check(matrix, 4)


def test_e3_smoke():
    _check(serial("E3").result, 6)


def test_e4_smoke():
    _check(serial("E4").result, 2)
    _check(e4_weak_signal.harq_retx_ablation(), 2)


def test_e5_smoke():
    _check(serial("E5").result, 5)


def test_e7_smoke():
    _check(serial("E7").result, 4)


def test_e8_smoke():
    _check(serial("E8").result, 1)
    _check(e8_hidden_terminal.sensing_ablation(
        sense_ranges_m=[2000.0], n_aps=4), 1)


def test_e9_smoke():
    _check(serial("E9").result, 1)


def test_e10_smoke():
    _check(serial("E10").result, 3)


def test_e11_smoke():
    _check(serial("E11").result, 3)


def test_e12_smoke():
    _check(serial("E12").result, 3)
    _check(e12_deployment_cost.bom_table(), 4)


def test_e13_smoke():
    _check(serial("E13").result, 3)


def test_e14_smoke():
    _check(serial("E14").result, 4)
    _check(e14_nr_upgrade.latency_ladder(), 5)


def test_e16_smoke():
    timeline, summary = serial("E16").result
    _check(timeline, 2 * 15)
    _check(summary, 2)


def test_e17_smoke():
    table = serial("E17").result
    _check(table, 4)
    # robustness contract: the federated arm never attaches a smaller
    # fraction of the crowd than the centralized arm at any intensity
    success = [row["attach_success"] for row in table.rows]
    for cent, dlte in zip(success[0::2], success[1::2]):
        assert dlte >= cent


def test_e18_smoke():
    table = serial("E18").result
    _check(table, 8)
    # robustness contract: at the overload point, AQM+ECN goodput is
    # never below the drop-tail control for the same architecture
    goodput = [row["goodput_mbps"] for row in table.rows]
    marks = [row["ecn_marks"] for row in table.rows]
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
    mean_ms = [row["mean_attach_ms"] for row in table.rows]
    assert mean_ms[1] <= mean_ms[0]
    assert [row["wan_ctl_mb"] for row in table.rows][1] == 0
    assert [row["failures"] for row in table.rows] == [0, 0]
