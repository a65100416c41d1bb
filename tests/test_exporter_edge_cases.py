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
  for both wall-clock profile rows and simulated-time span totals.
"""

from repro.simcore import Simulator
from repro.telemetry.exporters import (tagged_rows, write_folded,
                                       write_metrics_text)
from repro.telemetry.hub import ProfileRow
from repro.telemetry.registry import Histogram, MetricsRegistry


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


def test_folded_wall_lines_are_integer_microseconds(tmp_path):
    profile = [
        ProfileRow("repro.epc.agents.ControlAgent._finish", 7, 0.0884, 0.1),
        ProfileRow("weird;site.fn", 1, 0.001, 0.001),
        ProfileRow("too.fast", 1, 0.0000001, 0.0),  # 0 us: dropped
    ]
    path = tmp_path / "p.folded"
    count = write_folded(str(path), profile=profile)
    lines = path.read_text().splitlines()
    assert count == len(lines) == 2
    assert "wall;repro;epc;agents;ControlAgent;_finish 88400" in lines
    # semicolons inside a site never produce phantom frames
    assert "wall;weird_site;fn 1000" in lines
    for line in lines:
        stack, _, value = line.rpartition(" ")
        assert stack and int(value) > 0


def test_folded_sim_lines_sum_span_histograms(tmp_path):
    """One ``sim:<tag>;<name>`` line per procedure: the sum of its
    span-duration histograms across statuses, in simulated µs."""
    sim = Simulator(0)
    attach = sim.span("attach")
    paging = sim.span("paging")
    sim.schedule(0.5, attach.end)
    sim.schedule(0.8, paging.end, "timeout")
    retry = sim.span("attach")
    sim.schedule(0.25, retry.end, "failed")
    sim.schedule(1.2, lambda: sim.telemetry.spans.event("fault"))
    sim.run()
    path = tmp_path / "spans.folded"
    count = write_folded(str(path),
                         rows=tagged_rows([("dlte", sim.metrics)]))
    lines = path.read_text().splitlines()
    # zero-duration events sum to 0 µs and are left out
    assert count == len(lines) == 2
    assert lines == ["sim:dlte;attach 750000", "sim:dlte;paging 800000"]


def test_folded_empty_inputs_write_empty_file(tmp_path):
    path = tmp_path / "empty.folded"
    assert write_folded(str(path)) == 0
    assert path.read_text() == ""
