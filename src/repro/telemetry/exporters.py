"""Telemetry exporters: JSONL event streams, CSV/text snapshots, tables.

Three consumers, three formats:

* **JSONL** — one JSON object per line, for diffing runs and feeding
  external tooling. Trace events carry ``"type": "trace"``, finished
  spans ``"type": "span"``; both carry the source tag (``sim``) so
  multi-simulator experiments (E16 runs two arms) stay distinguishable.
* **CSV / metrics text** — flat snapshots of every instrument, one row
  (or Prometheus-style line) per (name, labels). CSV for spreadsheets,
  text for eyeballs and scrapers.
* **terminal summary** — a :class:`ResultTable` digest per subsystem,
  printed by the CLI after an instrumented run.

Metrics schema 2. Columns and series names are those of schema 1; what
changed is where histogram ``p50``/``p95``/``p99`` values come from: the
instrument's P² tracker when that quantile was declared at creation,
otherwise linear interpolation inside the cumulative buckets (error at
most one bucket width; schema 1 exported P² estimates for the default
trio and a literal ``0.0`` for quantiles a custom set left out).
"""

from __future__ import annotations

import csv
import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.metrics.tables import ResultTable
from repro.telemetry.hub import tagged_rows

__all__ = ["tagged_rows", "write_metrics_csv", "write_metrics_text",
           "write_events_jsonl", "write_folded", "summary_table",
           "METRICS_CSV_COLUMNS"]

#: Column order of the metrics CSV snapshot.
METRICS_CSV_COLUMNS = ["sim", "kind", "name", "labels", "value", "count",
                       "sum", "min", "max", "mean", "p50", "p95", "p99"]


def _render_labels(labels: Dict[str, str]) -> str:
    return ";".join(f"{k}={v}" for k, v in sorted(labels.items()))


def write_metrics_csv(rows: Iterable[Dict[str, Any]], path: str) -> int:
    """Write snapshot rows as CSV; returns the row count."""
    count = 0
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=METRICS_CSV_COLUMNS,
                                extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            out = dict(row)
            out["labels"] = _render_labels(row.get("labels", {}))
            writer.writerow(out)
            count += 1
    return count


def _escape_label_value(value: Any) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash, double-quote, and newline must be backslash-escaped."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def write_metrics_text(rows: Iterable[Dict[str, Any]], path: str) -> int:
    """Write a Prometheus-style text snapshot; returns the line count.

    Counters/gauges become ``name{labels} value``; histograms expand to
    ``_count``/``_sum`` plus ``{quantile="..."}`` series. Label values
    are escaped per the text exposition format, so values carrying
    quotes, backslashes, or newlines stay parseable.
    """
    lines: List[str] = []
    for row in rows:
        labels = dict(row.get("labels", {}))
        if row.get("sim"):
            labels["sim"] = row["sim"]
        inner = ",".join(f'{k}="{_escape_label_value(v)}"'
                         for k, v in sorted(labels.items()))
        base = row["name"].replace(".", "_")
        if row["kind"] == "histogram":
            lines.append(f"{base}_count{{{inner}}} {row['count']}")
            lines.append(f"{base}_sum{{{inner}}} {row['sum']:g}")
            for q in ("p50", "p95", "p99"):
                q_inner = inner + ("," if inner else "") + \
                    f'quantile="0.{q[1:]}"'
                lines.append(f"{base}{{{q_inner}}} {row[q]:g}")
        else:
            lines.append(f"{base}{{{inner}}} {row['value']:g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


def write_events_jsonl(path: str,
                       tracers: Sequence[Tuple[str, Any]] = (),
                       span_trackers: Sequence[Tuple[str, Any]] = (),
                       lifecycle: Any = None) -> int:
    """Write trace events and finished spans as JSONL; returns line count.

    ``tracers``/``span_trackers`` are (tag, Tracer) / (tag, SpanTracker)
    pairs; lines are grouped by source and time-ordered within each.
    ``lifecycle`` (a :class:`~repro.telemetry.lifecycle.RunnerLifecycle`)
    appends the run's runner-lifecycle records (``"type": "runner"``) —
    the wall-clock parallel-path timings, present only for ``--jobs``
    runs, so byte-identity tooling filters on the type.
    """
    count = 0
    with open(path, "w") as fh:
        for tag, tracer in tracers:
            for event in tracer.events():
                record = {"type": "trace", "sim": tag,
                          "time_s": event.time_s,
                          "category": event.category,
                          "message": event.message,
                          "fields": event.fields}
                fh.write(json.dumps(record, default=str) + "\n")
                count += 1
        for tag, tracker in span_trackers:
            for span in tracker.finished:
                record = span.to_dict()
                record["sim"] = tag
                fh.write(json.dumps(record, default=str) + "\n")
                count += 1
        if lifecycle is not None:
            for record in lifecycle.records():
                fh.write(json.dumps(record, default=str) + "\n")
                count += 1
    return count


def _folded_frames(site: str) -> str:
    """``module.qualname`` -> semicolon-joined frames for folded stacks."""
    return site.replace(";", "_").replace(".", ";")


def write_folded(path: str, profiler: Any = None,
                 span_trackers: Sequence[Tuple[str, Any]] = ()) -> int:
    """Write collapsed-stack ("folded") lines; returns the line count.

    The format every flamegraph consumer reads (flamegraph.pl,
    speedscope): ``frame;frame;leaf <count>``, one stack per line.
    Two stack families are emitted:

    * ``wall;<module frames>;<qualname>`` — the profiler's per-callback-
      site wall time, in integer microseconds (real time);
    * ``sim:<tag>;<span name chain>`` — each simulator's finished span
      tree (causal parent chain), in integer microseconds of *simulated*
      time, self-time per node (children subtracted, clamped at zero).
    """
    lines: List[str] = []
    if profiler is not None:
        for stats in profiler.top_sites(len(profiler.sites)):
            us = int(round(stats.wall_s * 1e6))
            if us > 0:
                lines.append(f"wall;{_folded_frames(stats.site)} {us}")
    for tag, tracker in span_trackers:
        finished = list(tracker.finished)
        by_id = {span.span_id: span for span in finished}
        child_time: Dict[int, float] = {}
        for span in finished:
            if span.parent_id is not None and span.parent_id in by_id:
                child_time[span.parent_id] = \
                    child_time.get(span.parent_id, 0.0) + \
                    (span.duration_s or 0.0)
        stacks: Dict[str, int] = {}
        for span in finished:
            names = [span.name]
            seen = {span.span_id}
            parent = by_id.get(span.parent_id)
            while parent is not None and parent.span_id not in seen:
                names.append(parent.name)
                seen.add(parent.span_id)
                parent = by_id.get(parent.parent_id)
            names.reverse()
            self_s = max(0.0, (span.duration_s or 0.0)
                         - child_time.get(span.span_id, 0.0))
            us = int(round(self_s * 1e6))
            if us > 0:
                stack = f"sim:{tag};" + ";".join(
                    name.replace(";", "_") for name in names)
                stacks[stack] = stacks.get(stack, 0) + us
        lines.extend(f"{stack} {us}" for stack, us in sorted(stacks.items()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


def summary_table(rows: Sequence[Dict[str, Any]],
                  title: str = "Telemetry summary") -> ResultTable:
    """Digest snapshot rows into a per-subsystem terminal table."""
    per: Dict[str, Dict[str, float]] = {}
    for row in rows:
        subsystem = row["name"].split(".", 1)[0]
        agg = per.setdefault(subsystem, {"instruments": 0, "counter_total": 0.0,
                                         "samples": 0})
        agg["instruments"] += 1
        if row["kind"] == "counter":
            agg["counter_total"] += row["value"]
        elif row["kind"] == "histogram":
            agg["samples"] += row["count"]
    table = ResultTable(title, ["subsystem", "instruments", "counter_total",
                                "histogram_samples"])
    for subsystem in sorted(per):
        agg = per[subsystem]
        table.add_row(subsystem=subsystem,
                      instruments=int(agg["instruments"]),
                      counter_total=agg["counter_total"],
                      histogram_samples=int(agg["samples"]))
    return table
