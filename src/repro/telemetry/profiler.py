"""The run profiler: where did this simulation spend its wall-clock time?

Wraps the :class:`~repro.simcore.simulator.Simulator` heap loop (the
simulator checks ``sim.profiler`` once per dispatched event) and
attributes real elapsed time and event counts to *callback sites* — the
``module.qualname`` of each scheduled function. Trace categories emitted
during the run are tallied too, so "how many ``drop`` events" and "which
callbacks are hot" come out of the same run.

Profiling is opt-in because it pays one ``perf_counter`` pair per event;
everything else in the telemetry layer stays enabled always. Attaching
or detaching a profiler never changes simulation *results* — it observes
dispatch, it does not alter it.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro.metrics.tables import ResultTable

__all__ = ["RunProfiler", "SiteStats"]


class SiteStats:
    """Accumulated cost of one callback site."""

    __slots__ = ("site", "calls", "wall_s")

    def __init__(self, site: str) -> None:
        self.site = site
        self.calls = 0
        self.wall_s = 0.0

    def __repr__(self) -> str:
        return f"<SiteStats {self.site} calls={self.calls} wall={self.wall_s:.4f}s>"


class RunProfiler:
    """Per-callback-site wall-clock attribution for a simulator run."""

    def __init__(self) -> None:
        self.sites: Dict[str, SiteStats] = {}
        self.category_counts: Dict[str, int] = {}
        self.events = 0
        self.wall_s = 0.0
        self._started_at: Optional[float] = None

    # -- hooks called by the Simulator ------------------------------------

    def run_callback(self, fn: Callable, args: tuple) -> None:
        """Dispatch one event under timing (replaces ``fn(*args)``)."""
        if self._started_at is None:
            self._started_at = time.perf_counter()
        t0 = time.perf_counter()
        try:
            fn(*args)
        finally:
            elapsed = time.perf_counter() - t0
            site = f"{fn.__module__}.{fn.__qualname__}"
            stats = self.sites.get(site)
            if stats is None:
                stats = self.sites[site] = SiteStats(site)
            stats.calls += 1
            stats.wall_s += elapsed
            self.events += 1
            self.wall_s += elapsed

    def note_category(self, category: str) -> None:
        """Count one trace emission (called from ``Simulator.trace``)."""
        self.category_counts[category] = \
            self.category_counts.get(category, 0) + 1

    # -- aggregation -------------------------------------------------------

    def merge(self, other: "RunProfiler") -> None:
        """Fold another profiler's tallies into this one (multi-sim runs)."""
        for site, stats in other.sites.items():
            mine = self.sites.get(site)
            if mine is None:
                mine = self.sites[site] = SiteStats(site)
            mine.calls += stats.calls
            mine.wall_s += stats.wall_s
        for category, count in other.category_counts.items():
            self.category_counts[category] = \
                self.category_counts.get(category, 0) + count
        self.events += other.events
        self.wall_s += other.wall_s

    # -- reporting ---------------------------------------------------------

    @property
    def events_per_sec(self) -> float:
        """Dispatched events per wall-clock second spent in callbacks."""
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def top_sites(self, n: int = 10) -> List[SiteStats]:
        """The ``n`` costliest callback sites by wall time."""
        return sorted(self.sites.values(),
                      key=lambda s: (-s.wall_s, s.site))[:n]

    def hot_path_table(self, n: int = 10) -> ResultTable:
        """Top-N hot paths as a printable table."""
        table = ResultTable(
            f"Profile: top-{n} hot paths "
            f"({self.events} events, {self.events_per_sec:,.0f} events/s)",
            ["callback_site", "calls", "wall_ms", "wall_frac", "us_per_call"])
        for stats in self.top_sites(n):
            table.add_row(
                callback_site=stats.site, calls=stats.calls,
                wall_ms=stats.wall_s * 1e3,
                wall_frac=(stats.wall_s / self.wall_s if self.wall_s else 0.0),
                us_per_call=(stats.wall_s / stats.calls * 1e6
                             if stats.calls else 0.0))
        return table

    def category_table(self) -> ResultTable:
        """Trace-category counts as a printable table."""
        table = ResultTable("Profile: trace events by category",
                            ["category", "events"])
        for category, count in sorted(self.category_counts.items(),
                                      key=lambda kv: (-kv[1], kv[0])):
            table.add_row(category=category, events=count)
        return table

    def rows(self) -> List[Dict[str, object]]:
        """Machine-readable site rows for exporters."""
        return [{"site": s.site, "calls": s.calls, "wall_s": s.wall_s}
                for s in self.top_sites(len(self.sites))]

    def __repr__(self) -> str:
        return (f"<RunProfiler events={self.events} "
                f"sites={len(self.sites)} wall={self.wall_s:.3f}s>")
