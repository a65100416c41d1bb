"""The determinism matrix: every way of producing a table gives its bytes.

A table must come out the same however it is produced: serially, fanned
over ``--jobs`` workers, armed (``--invariants``), on the scalar TTI
oracle, with telemetry on, over E19's shards, or through the CLI under
a crash and retry, a resume, or an artifact flag. The chaos experiments
(E16–E18) are also run under every chaos scenario, serially and over
two workers. Every cell here is
compared against one serial reference per experiment, computed once per
session by :func:`serial`, so each (experiment, axis) cell runs
``run()`` once. Experiments run with small-but-real parameters
(:data:`CASES`); the cells still cross the real multiprocessing pool.

The smoke tests read their shape contracts off :func:`serial`'s results
too, instead of running the same experiment again.
"""

import collections
import contextlib
import functools
import io
import json
import os
import re
import tempfile

import pytest

from repro.__main__ import _print_result, main
from repro.enodeb.cell import Cell
from repro.experiments import ALL_EXPERIMENTS
from repro.faults import list_scenarios
from repro.invariants import armed
from repro.runner import get_jobs, set_jobs
from repro.telemetry.exporters import write_events_jsonl
from repro.telemetry.hub import HUB

from tests.reference import scalar_tti

#: experiment id -> kwargs: a small-but-real workload per experiment.
CASES = {
    "T1": {},
    "F1": {},
    "E3": {"distances_m": [500, 5000]},
    "E4": {"sinrs_db": [-5, 5]},
    "E5": {"n_aps": 2, "ue_per_ap": 2, "seed": 1},
    "E6": {"dwells_s": [1.0]},
    "E7": {"ap_counts": [1, 2], "ue_per_ap": 2},
    "E8": {"ap_counts": [3]},
    "E9": {"peer_counts": [2], "duration_s": 5.0},
    "E10": {"n_aps": 5},
    "E11": {"n_aps": 3},
    "E12": {},
    "E13": {"enb_counts": [1, 2]},
    "E14": {"distances_m": [500, 8000]},
    "E15": {},
    "E16": {"n_ues": 4, "fail_at_s": 3.0, "outage_s": 6.0,
            "horizon_s": 15.0},
    "E17": {"intensities": (1, 4), "n_aps": 2, "ue_per_ap": 3,
            "horizon_s": 12.0},
    "E18": {"loads": (0.5, 5.0), "n_aps": 1, "ue_per_ap": 3,
            "settle_s": 4.0, "warmup_s": 1.0, "measure_s": 8.0},
    "E19": {},
}

Serial = collections.namedtuple("Serial", "result text")
Traced = collections.namedtuple("Traced", "text rows events")


def _render(result) -> str:
    """The bytes the CLI prints for ``result``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _print_result(result)
    return buf.getvalue()


def _run(exp_id, **overrides) -> str:
    return _render(ALL_EXPERIMENTS[exp_id].run(**CASES[exp_id], **overrides))


@contextlib.contextmanager
def _jobs(jobs):
    old = get_jobs()
    set_jobs(jobs)
    try:
        yield
    finally:
        set_jobs(old)


@functools.lru_cache(maxsize=None)
def serial(exp_id) -> Serial:
    """The reference: unarmed, ``--jobs 1``, no HUB run; once per session."""
    assert get_jobs() == 1 and not HUB.active
    result = ALL_EXPERIMENTS[exp_id].run(**CASES[exp_id])
    return Serial(result, _render(result))


def _traced(exp_id, jobs=1, **overrides) -> Traced:
    """Tables, metrics rows and JSONL events of a profiled, traced run."""
    HUB.start_run(profile=True, trace=True)
    try:
        with _jobs(jobs):
            text = _run(exp_id, **overrides)
    except BaseException:
        HUB.abort_run()
        raise
    run = HUB.finish_run()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events.jsonl")
        write_events_jsonl(path, tracers=run.tracers,
                           lifecycle=run.lifecycle)
        with open(path) as handle:
            events = handle.read().splitlines()
    return Traced(text, run.metrics_rows(), events)


@functools.lru_cache(maxsize=None)
def traced_serial(exp_id) -> Traced:
    """The ``telemetry`` cell's run, kept as the reference for the rows
    and events that a parallel run ships home."""
    return _traced(exp_id)


def test_cases_cover_every_experiment():
    assert set(CASES) == set(ALL_EXPERIMENTS)


# -- run()-level axes -------------------------------------------------------

#: simulators per experiment on which some component with a law of its
#: own registers (every simulator carries the clock law). The other ten
#: — T1, E3, E4, E5, E8, E9, E10, E11, E12, E14 — build nothing that has
#: a law yet; ROBUSTNESS.md names the laws that would give them one.
AUDITED = {
    "F1": 4, "E6": 3, "E7": 4, "E13": 2, "E15": 4, "E16": 2, "E17": 4,
    "E18": 8, "E19": 4,
}


def _at_jobs_4(exp_id, monkeypatch):
    with _jobs(4):
        return _run(exp_id)


def _armed(exp_id, monkeypatch):
    with armed() as audit:
        text = _run(exp_id)
        with_laws = [checker for checker in audit
                     if len(checker._checks) > 1]
        assert len(with_laws) == AUDITED.get(exp_id, 0)
        assert all(checker.checks_run for checker in with_laws)
    return text


def _on_oracle(exp_id, monkeypatch):
    """Every cell on the scalar walk of ``tests/reference/scalar_tti.py``,
    whose detach forgets the oracle's rates as the arena's drops its row;
    workers are forked, so the patch governs them too. No experiment here
    detaches a UE that has rate history (E5 re-homes before its first
    TTI), so this axis never exercises that forgetting: the per-TTI twins
    of ``tests/test_mac_arena*.py`` hold that contract."""
    monkeypatch.setattr(Cell, "schedule_tti", scalar_tti.schedule_tti)
    monkeypatch.setattr(Cell, "schedule_uplink_tti",
                        scalar_tti.schedule_uplink_tti)
    monkeypatch.setattr(Cell, "remove_ue", scalar_tti.remove_ue)
    return _run(exp_id)


def _with_telemetry(exp_id, monkeypatch):
    traced = traced_serial(exp_id)
    # the runner's own lifecycle family exists only when workers ran
    assert not any(row["sim"] == "runner" for row in traced.rows)
    return traced.text


AXES = {"jobs": _at_jobs_4, "armed": _armed, "oracle": _on_oracle,
        "telemetry": _with_telemetry}


@pytest.mark.parametrize("exp_id", list(CASES))
@pytest.mark.parametrize("axis", AXES)
def test_matrix(axis, exp_id, monkeypatch):
    reference = serial(exp_id).text
    assert AXES[axis](exp_id, monkeypatch) == reference


@pytest.mark.parametrize("scenario", list_scenarios())
@pytest.mark.parametrize("exp_id", ["E16", "E17", "E18"])
def test_chaos(exp_id, scenario):
    """Under every chaos scenario a table is the same over two workers
    as serially."""
    assert get_jobs() == 1
    reference = _run(exp_id, scenario=scenario)
    with _jobs(2):
        assert _run(exp_id, scenario=scenario) == reference


@pytest.mark.parametrize("mode,shards", [
    ("serial", 1), ("serial", 4), ("fork", 2), ("fork", 4),
], ids=["serial-1", "serial-4", "fork-2", "fork-4"])
def test_e19_shards(mode, shards):
    """Shard count and drive mode change E19's schedule, never a digit."""
    assert _run("E19", shards=shards, mode=mode) == serial("E19").text


def _per_sim(rows):
    # the runner's lifecycle follows the execution mode; nothing else
    # may: a task's ambient registry is tagged per task, inline or not
    return [row for row in rows if not row["sim"].startswith("runner")]


#: ledger counters read off component attributes (MetricsRegistry.mirror)
MIRRORED = ("net.link.delivered", "epc.agent.processed",
            "epc.channel.messages")


@pytest.mark.parametrize("exp_id,jobs,overrides", [
    ("E6", 2, {}), ("E7", 2, {}), ("E17", 2, {}), ("E18", 2, {}),
    ("E19", 1, {"mode": "fork"}),
], ids=["E6-jobs2", "E7-jobs2", "E17-jobs2", "E18-jobs2", "E19-fork"])
def test_rows_cross_the_process_boundary(exp_id, jobs, overrides):
    """A worker's registry is pickled as a reading, mirrored counters
    materialised: every per-simulator row matches the serial run's."""
    reference = traced_serial(exp_id)
    far = _traced(exp_id, jobs, **overrides)
    assert far.text == serial(exp_id).text
    assert any(row["sim"] == "runner" for row in far.rows)
    rows = _per_sim(far.rows)
    assert rows == _per_sim(reference.rows)
    assert any(row["name"] in MIRRORED and row["value"] > 0
               for row in rows)


# -- CLI axes ---------------------------------------------------------------

#: cheap ids for the CLI cells: experiment-level fan-out, E16's chaos
CLI_IDS = ["T1", "F1", "E12", "E13", "E15", "E16"]


def _exp_args(exp_id, **overrides):
    return [arg for key, value in {**CASES[exp_id], **overrides}.items()
            for arg in ("--exp-arg", f"{key}={value!r}")]


def _cli(argv):
    """``main(argv)``'s stdout, wall-clock stamps normalised, and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 0
    stamped = out.getvalue()
    return re.sub(r"done in [0-9.]+ s", "done in X s", stamped), err.getvalue()


def _tables(out):
    """id -> the tables one experiment printed, before its first
    ``[<id> ...]`` line (``done``, or a telemetry artifact's)."""
    return dict(re.findall(r"^=== (\w+): [^\n]*\n\n(.*?)^\[\1 ", out,
                           re.M | re.S))


@functools.lru_cache(maxsize=None)
def cli_serial() -> str:
    return _cli(CLI_IDS)[0]


@pytest.mark.parametrize("flags", [
    ["--jobs", "2"], ["--invariants", "--jobs", "2"],
], ids=["jobs2", "invariants-jobs2"])
def test_cli_matches_serial(flags):
    assert _cli(CLI_IDS + flags)[0] == cli_serial()


def test_cli_metrics_out_keeps_the_tables(tmp_path):
    out, _ = _cli(CLI_IDS + ["--metrics-out", str(tmp_path / "m.csv")])
    collected = _tables(out)
    assert list(collected) == CLI_IDS
    assert collected == _tables(cli_serial())


def test_cli_retried_crash_matches_serial(tmp_path, monkeypatch):
    # a retried armed task is audited again; the crash costs E16 its
    # first attempt and nothing else
    monkeypatch.setenv("REPRO_CHAOS_PLAN", "exp:E16:crash")
    monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
    out, err = _cli(CLI_IDS + ["--invariants", "--jobs", "2",
                               "--retries", "1"])
    assert out == cli_serial()
    assert "1 crash(es)" in err and "1 task retry" in err
    assert (tmp_path / "chaos-exp:E16.done").exists()


def test_cli_resume_replays_serial(tmp_path):
    argv = CLI_IDS + ["--resume", str(tmp_path / "ckpt")]
    assert _cli(argv)[0] == cli_serial()
    # the rerun replays every experiment from the journal; the resume
    # notice goes to stderr only
    out, err = _cli(argv)
    assert out == cli_serial()
    assert f"[resume: {len(CLI_IDS)} experiment(s) replayed" in err


def test_cli_trace_out_at_jobs_4(tmp_path):
    """The merged JSONL equals the serial stream line for line, apart
    from the runner-lifecycle records only a parallel run emits."""
    path = tmp_path / "e7.jsonl"
    out, _ = _cli(["E7", "--jobs", "4", "--trace-out", str(path)]
                  + _exp_args("E7"))
    assert _tables(out) == {"E7": serial("E7").text}
    lines = path.read_text().splitlines()
    keep = [ln for ln in lines if json.loads(ln).get("type") != "runner"]
    assert len(keep) < len(lines)
    assert keep == traced_serial("E7").events


def test_cli_retries_a_killed_shard_worker(tmp_path, monkeypatch):
    # a dead worker stepping a pass's shards fails the experiment (no
    # hang), --retries re-runs it to the serial bytes, and the parent
    # leaves a post-mortem
    monkeypatch.setenv("REPRO_CHAOS_PLAN", "E19:dLTE stubs:crash")
    monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
    out, err = _cli(["E19", "--retries", "1"]
                    + _exp_args("E19", shards=2, mode="fork"))
    assert _tables(out) == {"E19": serial("E19").text}
    assert "1 exception(s); 1 task retry(ies)" in err
    assert (tmp_path / "chaos-E19:dLTE stubs.done").exists()
    dumps = sorted(tmp_path.glob("postmortem-*.json"))
    assert any("supervisor-crash" in path.name for path in dumps)
    for path in dumps:
        record = json.loads(path.read_text())
        assert record["type"] == "postmortem" and "sims" in record
