"""Runner-lifecycle tracing: wall-clock decomposition of ``--jobs N``.

Unit tests drive :class:`RunnerLifecycle` directly with synthetic
numbers (the decomposition arithmetic must be exact); integration tests
run a real experiment and a supervised map over workers and check the
records, the metrics family, the ``--profile`` summary line, and the
``--trace-out`` JSONL records that land for parallel runs only.
"""

import json
import time

import pytest

from repro.runner import set_jobs
from repro.telemetry.hub import HUB
from repro.telemetry.lifecycle import RunnerLifecycle


# -- unit: the decomposition arithmetic ---------------------------------------


def _synthetic_map(lifecycle, jobs=2, tasks=()):
    record = lifecycle.begin_map(jobs)
    record.fork_s = 0.1
    for slot, (pid, exec_s, ser_s, bytes_, ship_s, merge_s) in \
            enumerate(tasks):
        task = lifecycle.record_task(record, slot, f"t{slot}", pid,
                                     queue_wait_s=0.01, exec_s=exec_s,
                                     serialize_s=ser_s,
                                     serialize_bytes=bytes_, ship_s=ship_s)
        task.merge_s = merge_s
    lifecycle.finish_map(record)
    return record


def test_imbalance_is_busiest_worker_above_mean():
    lifecycle = RunnerLifecycle()
    record = _synthetic_map(lifecycle, jobs=2, tasks=[
        (100, 3.0, 0.0, 10, 0.0, 0.0),   # pid 100 busy 3.0 s
        (200, 1.0, 0.0, 10, 0.0, 0.0),   # pid 200 busy 1.0 s
    ])
    assert record.busy_s == pytest.approx(4.0)
    assert record.imbalance_s == pytest.approx(1.0)  # 3.0 - mean(2.0)


def test_idle_is_worker_seconds_not_spent_busy():
    lifecycle = RunnerLifecycle()
    record = lifecycle.begin_map(4)
    record.started_at = time.monotonic() - 2.0  # wall ~2 s
    record.fork_s = 0.5
    task = lifecycle.record_task(record, 0, "t0", 100, 0.0, 1.0, 0.0, 0, 0.0)
    lifecycle.finish_map(record)
    # 4 workers * (2.0 - 0.5) span = 6 worker-seconds, 1 busy -> ~5 idle
    assert record.idle_s == pytest.approx(5.0, abs=0.1)
    del task


def test_summary_aggregates_and_covers_the_wall():
    lifecycle = RunnerLifecycle()
    record = lifecycle.begin_map(2)
    record.started_at = time.monotonic() - 1.0
    record.fork_s = 0.2
    lifecycle.record_task(record, 0, "a", 1, 0.05, 0.6, 0.1, 2048, 0.02)
    lifecycle.record_task(record, 1, "b", 2, 0.05, 0.5, 0.1, 2048, 0.02)
    lifecycle.finish_map(record)
    s = lifecycle.summary()
    assert s["maps"] == 1 and s["tasks"] == 2 and s["jobs"] == 2
    assert s["exec_s"] == pytest.approx(1.1)
    assert s["ipc_s"] == pytest.approx(s["serialize_s"] + s["ship_s"]
                                       + s["merge_s"])
    assert s["serialize_bytes"] == 4096
    # identity: wall ~= fork + (busy + idle)/jobs, so coverage ~ 1
    assert s["coverage"] == pytest.approx(1.0, abs=0.05)
    line = lifecycle.summary_line()
    assert "1 map(s), 2 task(s) over 2 worker(s)" in line
    assert "coverage" in line and "ipc" in line


def test_empty_lifecycle_summary_is_none():
    lifecycle = RunnerLifecycle()
    assert lifecycle.summary() is None
    assert lifecycle.summary_line() == "no parallel maps"
    assert lifecycle.records() == []
    assert len(lifecycle.registry) == 0


def test_metrics_family_mirrors_records():
    lifecycle = RunnerLifecycle()
    _synthetic_map(lifecycle, jobs=2, tasks=[
        (100, 1.0, 0.1, 1024, 0.01, 0.005),
        (200, 1.0, 0.1, 2048, 0.01, 0.005),
    ])
    rows = {(r["name"], r["kind"]): r for r in lifecycle.registry.snapshot()}
    assert rows[("runner.maps", "counter")]["value"] == 1
    assert rows[("runner.tasks", "counter")]["value"] == 2
    assert rows[("runner.task.serialize_bytes", "counter")]["value"] == 3072
    assert rows[("runner.task.exec_s", "histogram")]["count"] == 2
    assert rows[("runner.task.merge_s", "histogram")]["count"] == 2


# -- integration: real maps over workers --------------------------------------


def _run_e7(jobs, **hub_kwargs):
    from repro.experiments import ALL_EXPERIMENTS

    set_jobs(jobs)
    HUB.start_run(**hub_kwargs)
    try:
        ALL_EXPERIMENTS["E7"].run(ap_counts=[1, 2], ue_per_ap=2)
    except BaseException:
        HUB.abort_run()
        raise
    finally:
        set_jobs(1)
    return HUB.finish_run()


def test_pool_run_records_every_task():
    run = _run_e7(jobs=4)
    lifecycle = run.lifecycle
    assert len(lifecycle.maps) == 1
    record = lifecycle.maps[0]
    # E7 at 2 ap_counts x 2 arms = 4 sweep cells -> 4 tasks
    assert len(record.tasks) == 4
    assert {t.slot for t in record.tasks} == {0, 1, 2, 3}
    for task in record.tasks:
        assert task.pid > 0
        assert task.exec_s > 0
        assert task.serialize_bytes > 0
        assert task.merge_s > 0  # unpickle + absorb both counted
    s = lifecycle.summary()
    assert s["coverage"] >= 0.95  # spans explain >= 95% of measured wall
    assert ("runner", lifecycle.registry) in run.registries


def test_serial_run_records_nothing():
    run = _run_e7(jobs=1)
    assert run.lifecycle.maps == []
    assert all(tag != "runner" for tag, _ in run.registries)


def test_cli_profile_line_and_trace_out_records(tmp_path, capsys):
    from repro.__main__ import main

    trace = tmp_path / "t.jsonl"
    assert main(["E7", "--jobs", "4", "--trace-out", str(trace),
                 "--profile", "--exp-arg", "ap_counts=[1, 2]",
                 "--exp-arg", "ue_per_ap=2"]) == 0
    out = capsys.readouterr().out
    assert "[E7 runner: " in out
    assert "fork" in out and "ipc" in out and "imbalance" in out
    records = [json.loads(line) for line in
               trace.read_text().splitlines()]
    runner = [r for r in records if r.get("type") == "runner"]
    assert sum(1 for r in runner if r["record"] == "map") == 1
    tasks = [r for r in runner if r["record"] == "task"]
    assert len(tasks) == 4
    assert all(r["serialize_bytes"] > 0 for r in tasks)


def _square(x):
    return x * x


def test_a_labelled_map_records_lifecycle_under_hub():
    from repro.runner import parallel_map

    HUB.start_run()
    try:
        results = parallel_map(_square, [2, 3, 4], jobs=2,
                               labels=["a", "b", "c"])
    except BaseException:
        HUB.abort_run()
        raise
    run = HUB.finish_run()
    assert results == [4, 9, 16]
    assert len(run.lifecycle.maps) == 1
    record = run.lifecycle.maps[0]
    assert sorted(task.label for task in record.tasks) == ["a", "b", "c"]
    assert record.jobs == 2


def _build_idle_shard(spec):
    from repro.simcore.sharded import ShardBoundary, ShardHost
    from repro.simcore.simulator import Simulator

    sim = Simulator(3)
    sim.at(0.5, lambda: None)
    return ShardHost(sim, ShardBoundary(sim, spec, 2),
                     harvest=lambda host: host.sim.events_executed)


def test_a_sharded_run_notes_one_stats_entry_per_shard():
    from repro.simcore.sharded import ShardedSimulator

    HUB.start_run()
    try:
        results = ShardedSimulator(_build_idle_shard, [0, 1]).run(until=1.0)
    except BaseException:
        HUB.abort_run()
        raise
    run = HUB.finish_run()
    assert results == [1, 1]
    assert len(run.shard_stats) == 2
    assert run.lifecycle.maps == []  # shards step in this process


E19_PASSES = ["E19:centralized EPC", "E19:dLTE stubs", "E19:radio"]


@pytest.mark.parametrize("shards", [2, 4])
def test_e19_fork_is_one_map_of_three_passes(shards):
    """E19's passes fan out as three tasks of one map, each stepping its
    own shards: no map per pass, no task per shard, no round trip per
    window."""
    from repro.experiments import e19_city

    HUB.start_run()
    try:
        e19_city.run(n_cells=8, ue_per_cell=1, background_per_cell=4,
                     shards=shards, mode="fork", horizon_s=1.0)
    except BaseException:
        HUB.abort_run()
        raise
    run = HUB.finish_run()
    assert [len(record.tasks) for record in run.lifecycle.maps] == [3]
    assert sorted(task.label for task in run.lifecycle.maps[0].tasks) \
        == E19_PASSES
    # every pass still notes one stats entry per shard, in item order
    assert [entry["label"] for entry in run.shard_stats] \
        == [label for label in E19_PASSES for _ in range(shards)]
    assert sum(entry["windows"] for entry in run.shard_stats) > 0
    # every shard's simulator came home: one per shard per pass
    assert sum(tag.startswith("s") and tag[1:].isdigit()
               for tag, _ in run.registries) == 3 * shards
