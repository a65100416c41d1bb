"""Exporter edge cases: label escaping, quantile state, folded stacks.

Three corners the happy-path telemetry tests never hit:

* Prometheus text exposition requires backslash-escaping of ``\\``,
  ``"`` and newlines inside label values — a label carrying any of them
  must still produce a one-line, parseable series;
* a histogram keeps no per-sample state unless a quantile reader was
  declared, and reading quantiles *mid-run* never changes what a later
  export reads;
* the collapsed-stack (``.folded``) export must emit the
  ``frame;frame;leaf <integer>`` grammar flamegraph tooling parses,
  for both wall-clock callback sites and simulated-time span trees.
"""

import pytest

from repro.telemetry.exporters import (tagged_rows, write_folded,
                                       write_metrics_text)
from repro.telemetry.registry import Histogram, MetricsRegistry
from repro.telemetry.spans import SpanTracker


# -- Prometheus label-value escaping ------------------------------------------


def test_label_values_with_quotes_backslashes_newlines(tmp_path):
    registry = MetricsRegistry()
    registry.counter("odd.labels", path='C:\\temp\\"run"',
                     note="line one\nline two").inc(3)
    path = tmp_path / "metrics.txt"
    write_metrics_text(tagged_rows([("s0", registry)]), str(path))
    text = path.read_text()
    lines = text.splitlines()
    # escaping keeps the series on one physical line
    assert len(lines) == 1
    line = lines[0]
    assert line.endswith(" 3")
    assert r'path="C:\\temp\\\"run\""' in line
    assert r'note="line one\nline two"' in line
    # round-trip: unescaping recovers the original values
    unescaped = (line.replace("\\n", "\n").replace('\\"', '"')
                 .replace("\\\\", "\\"))
    assert 'C:\\temp\\"run"' in unescaped
    assert "line one\nline two" in unescaped


def test_plain_labels_stay_untouched(tmp_path):
    registry = MetricsRegistry()
    registry.counter("plain", arm="dlte").inc()
    path = tmp_path / "metrics.txt"
    write_metrics_text(tagged_rows([("s0", registry)]), str(path))
    assert 'arm="dlte"' in path.read_text()


# -- quantile state: nothing per sample, mid-run reads are pure ---------------


def test_undeclared_histogram_owns_no_trackers_or_samples():
    histogram = Histogram("h", {})
    for i in range(100_000):
        histogram.observe(float(i % 977))
    assert histogram.count == 100_000
    assert histogram._quantiles == ()
    # every container it holds is O(buckets): no per-sample storage
    for slot in Histogram.__slots__:
        value = getattr(histogram, slot)
        if hasattr(value, "__len__"):
            assert len(value) <= len(histogram.buckets), slot


def test_midrun_read_leaves_later_estimates_unchanged():
    # reading quantiles (declared or bucket-derived) is pure: a twin
    # that is read after every sample ends in the same exported row
    quiet = Histogram("h", {}, quantiles=(0.5, 0.99))
    polled = Histogram("h", {}, quantiles=(0.5, 0.99))
    for i in range(500):
        value = float((i * 7) % 23)
        quiet.observe(value)
        polled.observe(value)
        polled.quantile(0.5)
        polled.quantile(0.95)
        polled.row()
    assert quiet.row() == polled.row()
    assert quiet.bucket_counts == polled.bucket_counts


# -- folded-stack export ------------------------------------------------------


class _FakeStats:
    def __init__(self, site, wall_s):
        self.site = site
        self.wall_s = wall_s


class _FakeProfiler:
    def __init__(self, stats):
        self.sites = {s.site: s for s in stats}
        self._stats = stats

    def top_sites(self, n):
        return self._stats[:n]


def test_folded_wall_lines_are_integer_microseconds(tmp_path):
    profiler = _FakeProfiler([
        _FakeStats("repro.epc.agents.ControlAgent._finish", 0.0884),
        _FakeStats("weird;site.fn", 0.001),
        _FakeStats("too.fast", 0.0000001),  # rounds to 0 us: dropped
    ])
    path = tmp_path / "p.folded"
    count = write_folded(str(path), profiler=profiler)
    lines = path.read_text().splitlines()
    assert count == len(lines) == 2
    assert "wall;repro;epc;agents;ControlAgent;_finish 88400" in lines
    # semicolons inside a site never produce phantom frames
    assert "wall;weird_site;fn 1000" in lines
    for line in lines:
        stack, _, value = line.rpartition(" ")
        assert stack and int(value) > 0


def test_folded_span_trees_subtract_child_time(tmp_path):
    clock = {"now": 0.0}
    tracker = SpanTracker(lambda: clock["now"])
    root = tracker.begin("attach")
    clock["now"] = 0.5
    child = tracker.begin("paging", parent=root)
    clock["now"] = 0.8
    child.end()
    clock["now"] = 1.0
    root.end()
    path = tmp_path / "spans.folded"
    count = write_folded(str(path), span_trackers=[("dlte", tracker)])
    assert count == 2
    lines = dict(line.rsplit(" ", 1)
                 for line in path.read_text().splitlines())
    # root self-time: 1.0 total - 0.3 child = 0.7 s
    assert int(lines["sim:dlte;attach"]) == 700000
    assert int(lines["sim:dlte;attach;paging"]) == 300000


def test_folded_empty_inputs_write_empty_file(tmp_path):
    path = tmp_path / "empty.folded"
    assert write_folded(str(path)) == 0
    assert path.read_text() == ""
