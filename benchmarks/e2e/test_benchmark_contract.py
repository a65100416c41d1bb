"""Contract test for the repo benchmark, on the ``--smoke`` scale.

Run explicitly (``testpaths`` keeps it out of tier-1; it starts ~25
child interpreters)::

    python -m pytest benchmarks/e2e/test_benchmark_contract.py -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from layers import LAYERS, per_layer_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run_benchmark.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "report.json"
    proc = subprocess.run(RUN + ["--all", "--smoke", "--out", str(out)],
                          stdout=subprocess.PIPE, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout
    with open(out) as fh:
        return json.load(fh), proc.stdout


def test_contract_file_matches_the_harness(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    for entry in contract["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    declared = {m["name"]: m["unit"] for m in contract["per_layer"]}
    assert declared == per_layer_units()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_declared_metric_and_workload_is_reported(contract, report):
    data, printed = report
    assert data["scale"] == "smoke" and data["comparable"] is False
    assert data["failed_frac"] == 0
    assert sorted(data["workloads"]) == sorted(
        w["name"] for w in contract["workloads"])
    for name, result in data["workloads"].items():
        assert f"== {name} " in printed
        for metric in contract["end_to_end"]:
            summary = result["end_to_end"][metric["name"]]
            assert summary["n"] == len(summary["samples"]) >= 1
            assert summary["q1"] <= summary["median"] <= summary["q3"]
            assert summary["median"] > 0
            assert re.search(rf"{metric['name']}\s+{re.escape(metric['unit'])}"
                             rf"\s+{summary['n']}\s", printed)
        for metric in contract["per_layer"]:
            assert result["per_layer"][metric["name"]]["unit"] == metric["unit"]


def test_layers_cover_traced_wall_and_digests_match(report):
    data, _printed = report
    for name, result in data["workloads"].items():
        per = result["per_layer"]
        covered = sum(per[f"{layer}.self_s"]["value"] for layer in LAYERS)
        assert covered >= 0.95 * result["traced_wall_s"], name
        assert abs(sum(per[f"{layer}.share"]["value"] for layer in LAYERS)
                   - result["coverage"]) < 1e-9
        # warm-up, timed, traced (and fork vs serial) all rendered these bytes
        assert result["failed"] == 0 and result["errors"] == [], name
        assert re.fullmatch(r"[0-9a-f]{64}", result["digest"])


def test_layer_split_has_the_predicted_shape(report):
    data, _printed = report
    dense = data["workloads"]["radio_dense"]["per_layer"]
    mobile = data["workloads"]["radio_mobile"]["per_layer"]
    assert dense["simcore.events"]["value"] == 0
    assert mobile["simcore.events"]["value"] == 0
    assert mobile["phy.share"]["value"] > dense["phy.share"]["value"]
    assert mobile["enodeb.tti_p50_us"]["value"] > 0
    overload = data["workloads"]["dataplane_overload"]["per_layer"]
    assert overload["net.packets_delivered"]["value"] > 0
    assert overload["simcore.events"]["value"] > 0
    city = data["workloads"]["city_fork2"]["per_layer"]
    assert city["simcore.shard_windows"]["value"] > 0
    assert city["runner.fork_speedup"]["value"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_mode_prints_one_result_line(contract, trace):
    proc = subprocess.run(
        RUN + ["--workload", "radio_dense", "--smoke", "--seed", "7",
               "--seconds", "0", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    declared = contract["per_layer"] if trace else contract["end_to_end"]
    assert ({name: m["unit"] for name, m in line["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            shutil.copy(os.path.join(HERE, name), bare / name)
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, str(bare / "run_benchmark.py"), "--workload",
         "radio_dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
