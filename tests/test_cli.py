"""Tests for the ``python -m repro`` experiment runner."""

import csv
import json
import re

import pytest

from repro.__main__ import main
from repro.runner import get_jobs


def test_list_exits_clean(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for exp_id in ("T1", "F1", "E3", "E14"):
        assert exp_id in out


def test_run_one_experiment(capsys):
    assert main(["T1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "dLTE" in out
    assert "[T1 done" in out


def test_run_multiple(capsys):
    assert main(["E12", "E13"]) == 0
    out = capsys.readouterr().out
    assert "E12" in out and "E13" in out


def test_unknown_id_errors(capsys):
    assert main(["E99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_no_args_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


# -- telemetry flags --------------------------------------------------------


def test_metrics_out_csv_well_formed(tmp_path, capsys):
    path = tmp_path / "metrics.csv"
    assert main(["E16", "--metrics-out", str(path)]) == 0
    out = capsys.readouterr().out
    assert "telemetry summary" in out
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows, "metrics snapshot must not be empty"
    assert set(rows[0]) >= {"sim", "kind", "name", "labels", "value"}
    kinds = {row["kind"] for row in rows}
    assert kinds <= {"counter", "gauge", "histogram"}
    names = {row["name"] for row in rows}
    subsystems = {name.split(".")[0] for name in names}
    assert len(subsystems) >= 6  # acceptance: >= 6 instrumented subsystems
    for row in rows:
        if row["kind"] == "histogram":  # histograms use count/sum instead
            assert float(row["count"]) >= 0 and row["value"] == ""
        else:
            float(row["value"])


def test_metrics_out_text_format(tmp_path, capsys):
    path = tmp_path / "metrics.txt"
    assert main(["E16", "--metrics-out", str(path)]) == 0
    text = path.read_text()
    assert re.search(r'^epc_attach_completed\{.*\} \d', text, re.M)
    assert re.search(r'_count\{.*\} \d', text)  # histogram series
    assert 'quantile="0.95"' in text


def test_trace_out_jsonl_well_formed(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    assert main(["E16", "--trace-out", str(path)]) == 0
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records
    assert {record["type"] for record in records} <= {"trace", "span"}
    spans = [r for r in records if r["type"] == "span"]
    assert any(s["name"] == "nas.attach" for s in spans)
    for span in spans:
        assert span["end_s"] >= span["start_s"]


def _profiled_functions(out):
    """The function column of the ``--profile`` hot-path table."""
    table = out.split("Profile: top-10 functions by self time", 1)[1]
    rows = table.split("\n\n", 1)[0].splitlines()[4:]
    return [row.split()[0] for row in rows]


def test_profile_reports_hot_paths(capsys):
    # no event loop runs in E5 or E3: the radio engine, the CSMA model
    # and the closed forms are profiled all the same
    for exp_id, package in (("E16", "repro."),
                            ("E5", ("repro.mac.", "repro.coordination.")),
                            ("E3", "repro.")):
        assert main([exp_id, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "events/s" in out
        assert "us_per_call" in out
        functions = _profiled_functions(out)
        assert len(functions) == 10
        assert any(name.startswith(package) for name in functions), \
            (exp_id, functions)


def test_multi_experiment_suffixes_artifacts(tmp_path, capsys):
    path = tmp_path / "m.csv"
    assert main(["E12", "E13", "--metrics-out", str(path)]) == 0
    assert (tmp_path / "m-E12.csv").exists()
    assert (tmp_path / "m-E13.csv").exists()
    assert not path.exists()


# -- robustness flags (PR 4) ------------------------------------------------


def test_flag_validation_errors():
    with pytest.raises(SystemExit):
        main(["E12", "--retries", "-1"])
    with pytest.raises(SystemExit):
        main(["E12", "--task-timeout", "0"])
    with pytest.raises(SystemExit):
        main(["E12", "--jobs", "0"])
    with pytest.raises(SystemExit):  # retired with the scalar TTI path
        main(["T1", "--scalar-tti"])


def test_main_restores_the_callers_jobs(capsys):
    # --jobs is the run's, not the process's: a later in-process run()
    # must not fan out, whether main() ran or refused its arguments
    assert main(["E12", "E13", "--jobs", "2"]) == 0
    assert get_jobs() == 1
    with pytest.raises(SystemExit):  # --exp-arg needs exactly one id
        main(["E12", "E13", "--jobs", "3", "--exp-arg", "seed=1"])
    assert get_jobs() == 1


def test_resume_refuses_telemetry_flags(tmp_path):
    with pytest.raises(SystemExit):
        main(["E12", "--resume", str(tmp_path), "--profile"])
    with pytest.raises(SystemExit):
        main(["E12", "--resume", str(tmp_path),
              "--metrics-out", str(tmp_path / "m.csv")])


def test_unwritable_artifact_paths_fail_before_running(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir"
    for flag in ("--metrics-out", "--trace-out", "--profile-out"):
        with pytest.raises(SystemExit):
            main(["E12", flag, str(missing_dir / "out.dat")])
        err = capsys.readouterr().err
        assert flag in err and "does not exist" in err
    # a directory where a file is expected fails too
    with pytest.raises(SystemExit):
        main(["E12", "--metrics-out", str(tmp_path)])
    # fail-fast means E12 never printed its table
    assert "deployment" not in capsys.readouterr().out


def test_profile_out_writes_folded_stacks(tmp_path, capsys):
    folded = tmp_path / "e13.folded"
    assert main(["E13", "--profile-out", str(folded)]) == 0
    out = capsys.readouterr().out
    assert "folded:" in out
    lines = folded.read_text().splitlines()
    assert lines
    for line in lines:
        stack, _, value = line.rpartition(" ")
        assert stack and int(value) > 0
    assert any(line.startswith("wall;") for line in lines)


def test_exp_arg_validation(tmp_path):
    with pytest.raises(SystemExit):  # needs exactly one experiment
        main(["E12", "E13", "--exp-arg", "seed=3"])
    with pytest.raises(SystemExit):  # malformed KEY=VAL
        main(["E12", "--exp-arg", "justakey"])
    with pytest.raises(SystemExit):  # incompatible with --resume
        main(["E16", "--exp-arg", "scenario=flapping-backhaul",
              "--resume", str(tmp_path / "ckpt")])
    # arming is the CLI's --invariants, no longer a keyword of any run()
    for exp_id in ("E16", "E17", "E18", "E19"):
        with pytest.raises(TypeError, match="invariants"):
            main([exp_id, "--exp-arg", "invariants=True"])


def test_invariants_flag_edges(tmp_path, capsys):
    with pytest.raises(SystemExit):  # a replayed experiment was not audited
        main(["E12", "--invariants", "--resume", str(tmp_path / "ckpt")])
    assert "was not audited" in capsys.readouterr().err


def test_exp_arg_unknown_keyword_fails_loudly():
    with pytest.raises(TypeError):
        main(["E12", "--exp-arg", "no_such_kwarg=1"])


def test_chaos_scenario_exp_args_run_e16(capsys):
    assert main(["E16", "--exp-arg", "scenario=flapping-backhaul",
                 "--invariants"]) == 0
    out = capsys.readouterr().out
    assert "flapping-backhaul" in out
    assert "min_reach" in out
