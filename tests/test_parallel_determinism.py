"""Parallel and armed runs must be byte-identical to serial runs.

The whole contract of ``--jobs N`` (see repro.runner) is that fanning
experiments and sweep cells over worker processes changes wall-clock
only: every rendered ResultTable — and, with telemetry on, the metrics
rows — must match the serial run byte for byte. ``--invariants`` makes
the same promise on another axis: every simulator audited, same bytes.
Both axes compare against one serial render per experiment, computed
once per session.

Experiments run here with small sweep parameters (the smoke-test sizes)
so the suite stays fast; the cells still cross the real multiprocessing
pool.
"""

import contextlib
import functools
import io

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.invariants import armed
from repro.metrics.tables import ResultTable
from repro.runner import get_jobs, set_jobs
from repro.telemetry.hub import HUB

#: (experiment id, kwargs) — small-but-real workload per experiment.
CASES = [
    ("T1", {}),
    ("F1", {}),
    ("E3", {"distances_m": [500, 5000]}),
    ("E4", {"sinrs_db": [-5, 5]}),
    ("E5", {"n_aps": 2, "ue_per_ap": 2, "seed": 1}),
    ("E6", {"dwells_s": [1.0]}),
    ("E7", {"ap_counts": [1, 2], "ue_per_ap": 2}),
    ("E8", {"ap_counts": [3]}),
    ("E9", {"peer_counts": [2], "duration_s": 5.0}),
    ("E10", {"n_aps": 5}),
    ("E11", {"n_aps": 3}),
    ("E12", {}),
    ("E13", {"enb_counts": [1, 2]}),
    ("E14", {"distances_m": [500, 8000]}),
    ("E15", {}),
    ("E16", {"n_ues": 4, "fail_at_s": 3.0, "outage_s": 6.0,
             "horizon_s": 15.0}),
    ("E17", {"intensities": (1, 4), "n_aps": 2, "ue_per_ap": 3,
             "horizon_s": 12.0}),
    ("E18", {"loads": (0.5, 5.0), "n_aps": 1, "ue_per_ap": 3,
             "settle_s": 4.0, "warmup_s": 1.0, "measure_s": 8.0}),
    ("E19", {}),
]


def _render(result) -> str:
    if isinstance(result, ResultTable):
        return result.render() + "\n"
    if isinstance(result, (tuple, list)):
        return "".join(_render(item) for item in result)
    return repr(result) + "\n"


def _run_at(exp_id, kwargs, jobs) -> str:
    old = get_jobs()
    set_jobs(jobs)
    try:
        return _render(ALL_EXPERIMENTS[exp_id].run(**kwargs))
    finally:
        set_jobs(old)


@functools.lru_cache(maxsize=None)
def _serial(exp_id) -> str:
    """The reference bytes: unarmed, ``--jobs 1``, once per session."""
    return _run_at(exp_id, dict(CASES)[exp_id], 1)


@pytest.mark.parametrize("exp_id,kwargs", CASES,
                         ids=[c[0] for c in CASES])
def test_tables_byte_identical_at_jobs_4(exp_id, kwargs):
    assert _run_at(exp_id, kwargs, 4) == _serial(exp_id)


#: simulators per experiment on which some component with a law of its
#: own registers (every simulator carries the clock law). The other nine
#: — T1, E3, E4, E5, E8, E10, E11, E12, E14 — build nothing that has a
#: law yet; ROBUSTNESS.md names the laws that would give them one.
AUDITED = {
    "F1": 4, "E6": 3, "E7": 4, "E9": 3, "E13": 2, "E15": 4, "E16": 2,
    "E17": 4, "E18": 8, "E19": 4,
}


@pytest.mark.parametrize("exp_id,kwargs", CASES,
                         ids=[c[0] for c in CASES])
def test_tables_byte_identical_armed(exp_id, kwargs):
    with armed() as audit:
        assert _run_at(exp_id, kwargs, 1) == _serial(exp_id)
        with_laws = [checker for checker in audit
                     if len(checker._checks) > 1]
        assert len(with_laws) == AUDITED.get(exp_id, 0)
        assert all(checker.checks_run for checker in with_laws)


def _run_with_telemetry(exp_id, kwargs, jobs):
    """Tables + metrics rows with a profiling/tracing hub run active."""
    old = get_jobs()
    set_jobs(jobs)
    HUB.start_run(profile=True, trace=True)
    try:
        result = ALL_EXPERIMENTS[exp_id].run(**kwargs)
    except BaseException:
        HUB.abort_run()
        raise
    finally:
        set_jobs(old)
    run = HUB.finish_run()
    return _render(result), run.metrics_rows()


@pytest.mark.parametrize("exp_id,kwargs,fans_out", [
    ("E3", {"distances_m": [500, 5000]}, False),
    ("E6", {"dwells_s": [1.0]}, True),
    ("E7", {"ap_counts": [1, 2], "ue_per_ap": 2}, True),
], ids=["E3", "E6", "E7"])
def test_tables_byte_identical_with_telemetry_on(exp_id, kwargs, fans_out):
    tables_p, rows_p = _run_with_telemetry(exp_id, kwargs, 4)
    tables_s, rows_s = _run_with_telemetry(exp_id, kwargs, 1)
    assert tables_p == tables_s
    # worker telemetry shipped home and absorbed in task order: the
    # merged metrics match the serial run row for row. The one family
    # allowed to differ is the runner's own wall-clock lifecycle
    # ("sim" == "runner") — it describes the parallel machinery itself,
    # so it only exists when there is one (E3 never calls parallel_map,
    # so even at --jobs 4 it has none).
    sim_rows = [r for r in rows_p if r["sim"] != "runner"]
    assert sim_rows == [r for r in rows_s if r["sim"] != "runner"]
    assert any(r["sim"] == "runner" for r in rows_p) == fans_out
    assert not any(r["sim"] == "runner" for r in rows_s)


def test_mirrored_counters_cross_the_process_boundary_as_readings():
    """Both cores' links, channels and agents declare their ledgers with
    ``MetricsRegistry.mirror``; a worker's registry is pickled as
    materialised counters, so every per-simulator row matches serial.
    (E17's cells record into the ambient registry, which is one per
    process: its rows are tagged per worker and compared nowhere.)"""
    kwargs = {"intensities": (1, 4), "n_aps": 2, "ue_per_ap": 3,
              "horizon_s": 12.0}
    tables_p, rows_p = _run_with_telemetry("E17", kwargs, 2)
    tables_s, rows_s = _run_with_telemetry("E17", kwargs, 1)
    assert tables_p == tables_s

    def per_sim(rows):
        return [r for r in rows
                if not r["sim"].startswith(("shared", "runner"))]

    assert per_sim(rows_p) == per_sim(rows_s)
    mirrored = [r for r in per_sim(rows_p)
                if r["name"] in ("epc.agent.processed",
                                 "epc.channel.messages")]
    assert mirrored and any(r["value"] > 0 for r in mirrored)


def test_trace_out_byte_identical_modulo_runner_lines(tmp_path):
    """``--trace-out`` composes with ``--jobs``: the merged JSONL equals
    the serial stream line for line, except for the runner-lifecycle
    records (``"type": "runner"``) that only a parallel run emits."""
    import json

    from repro.__main__ import main

    def run(jobs):
        path = tmp_path / f"trace-{jobs}.jsonl"
        argv = ["E7", "--trace-out", str(path),
                "--exp-arg", "ap_counts=[1, 2]", "--exp-arg", "ue_per_ap=2"]
        if jobs > 1:
            argv += ["--jobs", str(jobs)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        return path.read_text().splitlines()

    try:
        parallel = run(4)
        serial = run(1)
    finally:
        set_jobs(1)
    keep = [ln for ln in parallel
            if json.loads(ln).get("type") != "runner"]
    assert keep == serial
    assert any(json.loads(ln).get("type") == "runner" for ln in parallel)


def test_cli_jobs_flag_output_identical():
    """End-to-end: ``python -m repro <fast ids> --jobs 4`` prints the
    same stream as serial, apart from the wall-clock lines."""
    from repro.__main__ import main

    def capture(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        return [line for line in buf.getvalue().splitlines()
                if "done in" not in line]

    ids = ["T1", "E4", "E12", "E13"]
    try:
        assert capture(ids + ["--jobs", "4"]) == capture(ids)
    finally:
        set_jobs(1)


def test_cli_rejects_bad_jobs():
    from repro.__main__ import main

    with pytest.raises(SystemExit):
        main(["T1", "--jobs", "0"])
    set_jobs(1)
