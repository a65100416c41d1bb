"""Tests for the telemetry subsystem (repro.telemetry).

Covers the four parts — metrics registry, causal spans, run profiler,
exporters — plus the hub that collects them across an experiment run,
and the determinism guarantee the whole design leans on: recording is
passive, so instrumented runs are bit-identical to uninstrumented ones.
"""

import json
import math
import pickle
import random
from bisect import bisect_left

import numpy as np
import pytest

from repro.core import DLTENetwork
from repro.experiments import e5_coordination
from repro.metrics.stats import percentile
from repro.simcore import Simulator
from repro.telemetry import (
    HUB,
    Counter,
    Histogram,
    MetricsRegistry,
    P2Quantile,
    RunProfiler,
    SpanTracker,
)
from repro.telemetry.exporters import (
    summary_table,
    tagged_rows,
    write_events_jsonl,
    write_metrics_csv,
    write_metrics_text,
)
from repro.telemetry.registry import linear_buckets
from repro.workloads import RuralTown


@pytest.fixture(autouse=True)
def _no_leaked_hub_run():
    """Every test must leave the process-wide hub inactive."""
    yield
    if HUB.active:
        HUB.abort_run()
        pytest.fail("test leaked an active telemetry run")


# -- registry ---------------------------------------------------------------


class TestRegistry:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        c1 = registry.counter("net.link.dropped", link="a")
        c2 = registry.counter("net.link.dropped", link="a")
        assert c1 is c2
        c1.inc()
        c1.inc(3)
        assert registry.value("net.link.dropped", link="a") == 4.0

    def test_labels_distinguish_instruments(self):
        registry = MetricsRegistry()
        registry.counter("x", k="1").inc()
        registry.counter("x", k="2").inc(2)
        assert registry.value("x", k="1") == 1.0
        assert registry.value("x", k="2") == 2.0
        assert registry.total("x") == 3.0

    def test_counter_cannot_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(TypeError):
            registry.gauge("name")

    def test_gauge_tracks_extremes(self):
        gauge = MetricsRegistry().gauge("q")
        for v in (3, 1, 7, 2):
            gauge.set(v)
        assert gauge.value == 2 and gauge.min == 1 and gauge.max == 7
        gauge.add(-2)
        assert gauge.value == 0 and gauge.min == 0

    def test_histogram_buckets_cumulative(self):
        hist = MetricsRegistry().histogram("h", buckets=[1.0, 10.0])
        for v in (0.5, 5.0, 50.0):
            hist.observe(v)
        # buckets get (1.0, 10.0, inf); each sample lands in its first bucket
        assert hist.bucket_counts == [1, 1, 1]
        assert hist.count == 3 and hist.sum == 55.5
        assert hist.min == 0.5 and hist.max == 50.0
        assert hist.mean == pytest.approx(18.5)

    def test_histogram_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=[10.0, 1.0])

    def test_query_prefix(self):
        registry = MetricsRegistry()
        registry.counter("mac.csma.collisions")
        registry.counter("mac.cell.ttis")
        registry.counter("net.link.dropped")
        assert len(registry.query("mac.*")) == 2
        assert len(registry.query("mac.csma.*")) == 1
        assert len(registry.query("net.link.dropped")) == 1
        assert registry.query("ma") == []  # no partial-component match

    def test_subsystems_and_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("phy.x").inc()
        registry.gauge("mac.y").set(2)
        registry.histogram("epc.z").observe(1.0)
        assert registry.subsystems() == ["epc", "mac", "phy"]
        rows = registry.snapshot()
        assert [r["name"] for r in rows] == ["epc.z", "mac.y", "phy.x"]
        assert {r["kind"] for r in rows} == {"histogram", "gauge", "counter"}


class TestP2Quantile:
    def test_exact_for_small_samples(self):
        q = P2Quantile(0.5)
        for v in (5.0, 1.0, 3.0):
            q.observe(v)
        assert q.estimate == 3.0

    def test_median_converges_on_uniform(self):
        rng = np.random.default_rng(7)
        q = P2Quantile(0.5)
        for v in rng.uniform(0.0, 100.0, size=5000):
            q.observe(float(v))
        assert abs(q.estimate - 50.0) < 3.0

    def test_p99_converges_on_exponential(self):
        rng = np.random.default_rng(11)
        samples = rng.exponential(1.0, size=20_000)
        q = P2Quantile(0.99)
        for v in samples:
            q.observe(float(v))
        exact = float(np.percentile(samples, 99))
        assert abs(q.estimate - exact) / exact < 0.15

    def test_deterministic_in_observation_order(self):
        values = [float(v) for v in np.random.default_rng(3).normal(size=500)]
        a, b = P2Quantile(0.95), P2Quantile(0.95)
        for v in values:
            a.observe(v)
            b.observe(v)
        assert a.estimate == b.estimate

    def test_nan_before_any_sample(self):
        assert math.isnan(P2Quantile(0.5).estimate)

    def test_histogram_quantiles_plumbed(self):
        # undeclared quantiles come from the buckets, declared from P2
        undeclared = MetricsRegistry().histogram(
            "h", buckets=linear_buckets(0.0, 100.0, 10))
        declared = MetricsRegistry().histogram("h", quantiles=(0.5, 0.95))
        tracker = P2Quantile(0.95)
        for v in range(1, 101):
            undeclared.observe(float(v))
            declared.observe(float(v))
            tracker.observe(float(v))
        assert abs(undeclared.quantile(0.5) - 50.0) < 5.0
        assert abs(undeclared.quantile(0.95) - 95.0) < 5.0
        assert abs(undeclared.quantile(0.42) - 42.0) < 5.0
        assert declared.quantile(0.95) == tracker.estimate
        with pytest.raises(ValueError):
            undeclared.quantile(1.5)
        assert math.isnan(MetricsRegistry().histogram("empty").quantile(0.5))

    def test_declared_quantiles_match_parent_commit_bit_for_bit(self):
        # same P2 arithmetic, same observation order: eager updates must
        # reproduce the estimates the deferred replay produced before
        rng = random.Random(2026)
        hist = Histogram("nas.time_to_attach_s", {},
                         quantiles=(0.5, 0.99, 0.999))
        for _ in range(5000):
            hist.observe(rng.lognormvariate(-2.0, 0.8))
        assert hist.quantile(0.5) == 0.13097622715512203
        assert hist.quantile(0.99) == 0.815078080869781
        assert hist.quantile(0.999) == 1.757040966060203


def _true_bucket_width(hist, value):
    """Width of the (min/max-clamped) bucket that holds ``value``."""
    i = bisect_left(hist.buckets, value)
    lo = max(hist.buckets[i - 1], hist.min) if i else hist.min
    return min(hist.buckets[i], hist.max) - lo


class TestBucketQuantiles:
    @pytest.mark.parametrize("buckets,draw", [
        (linear_buckets(0.0, 100.0, 20), lambda r: r.uniform(0.0, 100.0)),
        (None, lambda r: r.lognormvariate(-3.0, 1.5)),
        (linear_buckets(-140.0, -40.0, 20), lambda r: r.gauss(-95.0, 9.0)),
    ], ids=["uniform", "lognormal", "negative-db"])
    def test_error_within_one_bucket_width(self, buckets, draw):
        rng = random.Random(5)
        samples = [draw(rng) for _ in range(20_000)]
        hist = Histogram("h", {}, buckets=buckets)
        hist.observe_many(samples)
        for q in (0.5, 0.95, 0.99):
            exact = percentile(samples, q * 100.0)
            width = _true_bucket_width(hist, exact)
            assert abs(hist.quantile(q) - exact) <= width, q
        row = hist.row()
        assert (row["min"] <= row["p50"] <= row["p95"] <= row["p99"]
                <= row["max"])

    def test_exact_when_all_samples_equal(self):
        for value in (-87.5, 0.0, 0.25, 3.0e7):
            hist = Histogram("h", {})
            for _ in range(50):
                hist.observe(value)
            row = hist.row()
            assert row["p50"] == row["p95"] == row["p99"] == value

    def test_radio_instrument_ladders_span_what_they_observe(self):
        # dB / fraction / integer instruments declare linear ladders: on
        # the log-scale default every negative dB sample shares bucket 0.
        # Nothing may fall off either end, so the exported quantiles are
        # good to one ladder step.
        HUB.start_run()
        try:
            e5_coordination.run(n_aps=2, ue_per_ap=8)
        except BaseException:
            HUB.abort_run()
            raise
        run = HUB.finish_run()
        seen = set()
        for _tag, registry in run.registries:
            for hist in registry.query("phy") + registry.query("mac"):
                if isinstance(hist, Histogram) and hist.count:
                    seen.add(hist.name)
                    assert hist.bucket_counts[0] == 0, hist
                    assert hist.bucket_counts[-1] == 0, hist
        assert seen == {"phy.rsrp_dbm", "phy.sinr_db",
                        "phy.harq.goodput_factor", "mac.cell.granted_prbs",
                        "mac.csma.backoff_slots"}

    def test_custom_quantile_set_rows_are_ordered_not_zero(self):
        # E18-style instrument: p95 is not declared, and used to export
        # as a real-looking 0.0; it now comes from the buckets
        rng = random.Random(18)
        hist = Histogram("e18.sla.web_s", {}, quantiles=(0.5, 0.99, 0.999))
        for _ in range(3000):
            hist.observe(rng.lognormvariate(-1.0, 1.0))
        row = hist.row()
        assert row["p50"] == hist.quantile(0.5)
        assert row["p99"] == hist.quantile(0.99)
        assert row["p95"] > 0.0
        assert (row["min"] <= row["p50"] <= row["p95"] <= row["p99"]
                <= row["max"])

    def test_duplicate_bucket_bounds_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=[1.0, 1.0, 2.0])


# -- spans ------------------------------------------------------------------


class TestSpans:
    def test_explicit_begin_end_times_simulated_clock(self):
        sim = Simulator(0)
        span = sim.span("epc.attach", ue="ue1")
        sim.schedule(0.25, lambda: span.end(status="ok"))
        sim.run()
        assert span.finished and span.duration_s == 0.25
        assert span.status == "ok" and span.attrs == {"ue": "ue1"}

    def test_context_manager_nesting_sets_parent(self):
        sim = Simulator(0)
        tracker = sim.telemetry.spans
        with sim.span("outer") as outer:
            with sim.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert tracker.children_of(outer) == [inner]

    def test_end_is_idempotent(self):
        sim = Simulator(0)
        tracker = sim.telemetry.spans
        span = sim.span("p")
        span.end(status="ok")
        span.end(status="failed")  # ignored
        assert span.status == "ok" and tracker.ended == 1

    def test_duration_feeds_metrics_histogram(self):
        sim = Simulator(0)
        span = sim.span("nas.attach")
        sim.schedule(0.5, span.end)
        sim.run()
        hist = sim.metrics.histogram("span.nas.attach.duration_s",
                                     status="ok")
        assert hist.count == 1 and hist.sum == 0.5

    def test_zero_duration_event(self):
        sim = Simulator(0)
        span = sim.telemetry.spans.event("fault.activation", fault="f1")
        assert span.finished and span.duration_s == 0.0
        assert span.status == "event"

    def test_end_all_open(self):
        sim = Simulator(0)
        tracker = sim.telemetry.spans
        spans = [tracker.begin(f"p{i}") for i in range(3)]
        spans[0].end()
        assert tracker.end_all_open(status="aborted") == 2
        assert tracker.open_count == 0
        assert {s.status for s in spans} == {"ok", "aborted"}

    def test_error_exit_marks_span(self):
        sim = Simulator(0)
        with pytest.raises(RuntimeError):
            with sim.span("doomed"):
                raise RuntimeError("boom")
        assert sim.telemetry.spans.spans("doomed")[0].status == "error"

    def test_finished_ring_buffer_bounds_memory(self):
        sim = Simulator(0)
        tracker = SpanTracker(lambda: sim.now, max_finished=4)
        for i in range(10):
            tracker.begin(f"s{i}").end()
        assert len(tracker.finished) == 4
        assert tracker.ended == 10

    def test_durations_query(self):
        sim = Simulator(0)
        for delay in (0.1, 0.2):
            span = sim.span("epc.attach")
            sim.schedule(sim.now + delay, span.end)
        sim.run()
        durations = sim.telemetry.spans.durations_s("epc.attach")
        assert durations == pytest.approx([0.1, 0.2])


# -- profiler ---------------------------------------------------------------


class TestProfiler:
    def test_attributes_wall_time_per_site(self):
        sim = Simulator(0)
        sim.profiler = RunProfiler()

        def busy():
            sum(range(2000))

        for i in range(5):
            sim.schedule(0.1 * i, busy)
        sim.run()
        assert sim.profiler.events == 5
        [site] = sim.profiler.top_sites()
        assert site.calls == 5 and site.wall_s > 0
        assert "busy" in site.site
        assert sim.profiler.events_per_sec > 0

    def test_profiled_run_results_unchanged(self):
        """The profiler observes dispatch; it must not alter outcomes."""
        def build_and_run(profile):
            sim = Simulator(seed=5)
            if profile:
                sim.profiler = RunProfiler()
            samples = []
            def draw():
                samples.append(float(sim.rng("x").random()))
            for i in range(20):
                sim.schedule(0.01 * i, draw)
            sim.run()
            return samples, sim.events_executed

        assert build_and_run(False) == build_and_run(True)

    def test_counts_trace_categories_without_tracer(self):
        sim = Simulator(0)
        sim.profiler = RunProfiler()
        sim.schedule(0.0, lambda: sim.trace("drop", "x"))
        sim.schedule(0.1, lambda: sim.trace("drop", "y"))
        sim.run()
        assert sim.profiler.category_counts == {"drop": 2}

    def test_merge(self):
        a, b = RunProfiler(), RunProfiler()
        a.run_callback(sum, (range(10),))
        b.run_callback(sum, (range(10),))
        b.note_category("drop")
        a.merge(b)
        assert a.events == 2
        assert a.sites["builtins.sum"].calls == 2
        assert a.category_counts == {"drop": 1}

    def test_hot_path_table_shape(self):
        profiler = RunProfiler()
        profiler.run_callback(sum, (range(10),))
        table = profiler.hot_path_table()
        assert table.columns == ["callback_site", "calls", "wall_ms",
                                 "wall_frac", "us_per_call"]
        assert len(table) == 1
        assert table.rows[0]["wall_frac"] == pytest.approx(1.0)


# -- exporters --------------------------------------------------------------


def _sample_registry():
    registry = MetricsRegistry()
    registry.counter("net.link.dropped", link="a", cause="down").inc(3)
    registry.gauge("epc.agent.queue_depth", agent="mme").set(2)
    hist = registry.histogram("nas.attach.latency_s")
    hist.observe(0.05)
    hist.observe(0.07)
    return registry


class TestExporters:
    def test_csv_snapshot(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        rows = tagged_rows([("s0", _sample_registry())])
        assert write_metrics_csv(rows, path) == 3
        lines = open(path).read().splitlines()
        assert lines[0].startswith("sim,kind,name,labels")
        body = "\n".join(lines[1:])
        assert "net.link.dropped" in body
        assert "cause=down;link=a" in body
        assert "nas.attach.latency_s" in body

    def test_metrics_text_expands_histograms(self, tmp_path):
        path = str(tmp_path / "metrics.txt")
        rows = tagged_rows([("s0", _sample_registry())])
        write_metrics_text(rows, path)
        text = open(path).read()
        assert 'net_link_dropped{cause="down",link="a",sim="s0"} 3' in text
        assert 'nas_attach_latency_s_count{sim="s0"} 2' in text
        assert 'quantile="0.95"' in text

    def test_events_jsonl_mixes_traces_and_spans(self, tmp_path):
        from repro.simcore.trace import Tracer

        sim = Simulator(0)
        tracer = Tracer()
        tracer.record(1.0, "drop", "link x: overflow")
        span = sim.span("epc.attach", ue="u")
        span.end()
        path = str(tmp_path / "events.jsonl")
        count = write_events_jsonl(
            path, tracers=[("s0", tracer)],
            span_trackers=[("s0", sim.telemetry.spans)])
        records = [json.loads(line) for line in open(path)]
        assert count == len(records) == 2
        kinds = {r["type"] for r in records}
        assert kinds == {"trace", "span"}
        span_record = next(r for r in records if r["type"] == "span")
        assert span_record["name"] == "epc.attach"
        assert span_record["sim"] == "s0"

    def test_summary_table_groups_by_subsystem(self):
        rows = tagged_rows([("s0", _sample_registry())])
        table = summary_table(rows)
        subsystems = table.column("subsystem")
        assert subsystems == ["epc", "nas", "net"]
        net_row = table.rows[subsystems.index("net")]
        assert net_row["counter_total"] == 3.0


# -- hub: collection across a real experiment-style run ---------------------


class TestHub:
    def test_collects_simulators_built_during_run(self):
        HUB.start_run()
        sims = [Simulator(i) for i in range(2)]
        sims[0].metrics.counter("net.x").inc()
        sims[1].metrics.counter("epc.y").inc(2)
        run = HUB.finish_run()
        tags = [tag for tag, _ in run.registries]
        assert tags == ["s0", "s1"]
        assert run.subsystems() == ["epc", "net"]
        assert not HUB.active

    def test_gauges_fold_across_simulators_local_and_shipped(self):
        """High-water marks fold by max and counts by sum, whether a
        simulator was built here or shipped home by a worker."""
        def two_sims():
            sims = [Simulator(i) for i in range(2)]
            for sim, base in zip(sims, (10, 20)):
                sim.heap_high_water = base + 1
                sim.agent_peak_queue = base + 2
                sim.agents_shed = base + 3
                sim.link_peak_queue = base + 4
                sim.ecn_marks = base + 5

        HUB.start_run()
        two_sims()
        payload = pickle.loads(pickle.dumps(HUB.export_worker_run()))
        HUB.start_run()
        two_sims()
        HUB.absorb_worker_run(payload)
        run = HUB.finish_run()
        assert len(run.registries) == 4
        assert (run.heap_high_water, run.agent_peak_queue,
                run.link_peak_queue) == (21, 22, 24)
        assert (run.agents_shed, run.ecn_marks) == (2 * (13 + 23),
                                                    2 * (15 + 25))

    def test_start_twice_raises(self):
        HUB.start_run()
        with pytest.raises(RuntimeError):
            HUB.start_run()
        HUB.abort_run()

    def test_profile_arms_every_simulator(self):
        HUB.start_run(profile=True)
        sim = Simulator(0)
        sim.schedule(0.0, lambda: None)
        sim.run()
        run = HUB.finish_run()
        assert run.profiler is not None and run.profiler.events == 1

    def test_trace_arms_every_simulator(self):
        HUB.start_run(trace=True)
        sim = Simulator(0)
        sim.schedule(0.0, lambda: sim.trace("c", "m"))
        sim.run()
        run = HUB.finish_run()
        assert len(run.tracers) == 1
        assert run.tracers[0][1].count("c") == 1

    def test_network_run_covers_six_subsystems(self):
        """A real dLTE bring-up emits metrics from >= 6 subsystems."""
        HUB.start_run()
        try:
            town = RuralTown(radius_m=1500, n_ues=4, n_aps=2, seed=2)
            net = DLTENetwork.build(town, seed=2)
            net.run(duration_s=3.0)
        except BaseException:
            HUB.abort_run()
            raise
        run = HUB.finish_run()
        subsystems = set(run.subsystems())
        assert {"phy", "mac", "epc", "nas", "net", "spectrum"} <= subsystems
        rows = run.metrics_rows()
        by_name = {(r["sim"], r["name"], tuple(sorted(r["labels"].items())))
                   for r in rows}
        assert len(by_name) == len(rows)  # tagging keeps rows distinct
        attach = [r for r in rows if r["name"] == "epc.attach.completed"]
        assert sum(r["value"] for r in attach) == 4

    def test_attach_spans_recorded_end_to_end(self):
        HUB.start_run()
        try:
            town = RuralTown(radius_m=1500, n_ues=3, n_aps=1, seed=4)
            net = DLTENetwork.build(town, seed=4)
            net.run(duration_s=3.0)
        except BaseException:
            HUB.abort_run()
            raise
        run = HUB.finish_run()
        all_spans = [span for _tag, tracker in run.span_trackers
                     for span in tracker.spans("nas.attach")]
        ok = [s for s in all_spans if s.status == "ok"]
        assert len(ok) == 3
        for span in ok:
            assert span.duration_s > 0  # attach takes simulated time
