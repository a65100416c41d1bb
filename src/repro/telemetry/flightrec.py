"""Black-box flight recorder: post-mortem dumps of recent simulator state.

Every :class:`~repro.simcore.simulator.Simulator` keeps an always-on
bounded ring buffer of its most recently dispatched events — recording
is two in-place slot stores and an index bump per event, O(1) with zero
steady-state allocation, and touches nothing the byte-identical
contract depends on (no RNG, no scheduling, no telemetry calls). This
module tracks live simulators in a :class:`weakref.WeakSet` and, when
something goes wrong — an invariant violation, a supervisor
kill/timeout, an unhandled experiment exception — writes a structured
JSON post-mortem: the last N events per simulator, a metrics snapshot,
the span tracker's last finished spans and its open ones, and the
five passive simulator gauges (heap, agent queue and link queue
high-water marks, shed and ECN-mark counts).

The dump is the *only* cost beyond the ring stores, and it happens only
on the failure path, so healthy runs pay nothing but the ring writes.

Dump location, first match wins: an explicit ``path=`` argument, the
directory set via :func:`set_dump_dir` (the CLI's ``--postmortem-dir``),
the ``REPRO_POSTMORTEM_DIR`` environment variable, the current
directory. Dump failures never mask the original error: any exception
while writing is swallowed (with a stderr note) and ``None`` returned.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
import weakref
from typing import Any, Dict, List, Optional, Sequence

from repro.telemetry.hub import SIM_GAUGES

__all__ = ["FLIGHT_CAPACITY", "track", "tracked_sims",
           "set_dump_dir", "dump_dir", "snapshot_sim", "write_postmortem"]

#: Ring slots per simulator (the "last N events" of a dump).
FLIGHT_CAPACITY = 256

#: Live simulators -> construction sequence; weak keys so the recorder
#: never extends a simulator's lifetime.
_TRACKED: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

#: Dump directory configured by the CLI (beats the env var).
_DUMP_DIR: Optional[str] = None

#: Monotone suffix so multiple dumps in one process never collide.
_SEQ = itertools.count()

_TRACK_SEQ = itertools.count()


def track(sim: Any) -> None:
    """Register a simulator for post-mortem snapshots (weakly held)."""
    _TRACKED[sim] = next(_TRACK_SEQ)


def tracked_sims() -> List[Any]:
    """Live tracked simulators, in construction order."""
    return [sim for sim, _seq in sorted(list(_TRACKED.items()),
                                        key=lambda kv: kv[1])]


def set_dump_dir(path: Optional[str]) -> None:
    """Set (or clear, with None) the process-wide dump directory."""
    global _DUMP_DIR
    _DUMP_DIR = path


def dump_dir() -> str:
    """Where post-mortems land: set_dump_dir > env > current directory."""
    return _DUMP_DIR or os.environ.get("REPRO_POSTMORTEM_DIR") or "."


def _site(fn: Any) -> str:
    """Callback-site label: ``module.qualname``, as ``--profile`` names
    a function."""
    try:
        return f"{fn.__module__}.{fn.__qualname__}"
    except AttributeError:
        return repr(fn)


def snapshot_sim(sim: Any) -> Dict[str, Any]:
    """One simulator's flight-recorder state as a JSON-ready dict."""
    snap: Dict[str, Any] = {
        "now_s": sim.now,
        "queue_length": sim.queue_length,
        **{name: getattr(sim, name) for name in SIM_GAUGES},
        "recent_events": [{"time_s": t, "site": _site(fn)}
                          for t, fn in sim.flight_events()],
    }
    telemetry = getattr(sim, "telemetry", None)
    if telemetry is not None:
        spans = telemetry.spans
        snap["recent_spans"] = [span.to_dict() for span in spans.tail]
        snap["open_spans"] = [span.to_dict() for span in spans.open_spans()]
        snap["metrics"] = telemetry.metrics.snapshot()
    return snap


def write_postmortem(reason: str, detail: str = "",
                     path: Optional[str] = None,
                     sims: Optional[Sequence[Any]] = None,
                     extra: Optional[Dict[str, Any]] = None) -> Optional[str]:
    """Dump a post-mortem JSON file; returns its path (None on failure).

    ``reason`` is a short slug (``invariant-violation``,
    ``supervisor-kill``, ``experiment-exception``); ``detail`` a
    human-readable line. ``sims`` defaults to every tracked live
    simulator. ``extra`` keys are merged into the top-level record.
    The write is best-effort: it must never mask the error that
    triggered it.
    """
    try:
        if sims is None:
            sims = tracked_sims()
        record: Dict[str, Any] = {
            "type": "postmortem",
            "version": 1,
            "reason": reason,
            "detail": detail,
            "pid": os.getpid(),
            "argv": list(sys.argv),
            "written_at_unix": time.time(),
            "sims": [snapshot_sim(sim) for sim in sims],
        }
        if extra:
            record.update(extra)
        if path is None:
            name = f"postmortem-{reason}-{os.getpid()}-{next(_SEQ)}.json"
            path = os.path.join(dump_dir(), name)
        with open(path, "w") as fh:
            json.dump(record, fh, default=str, indent=1)
            fh.write("\n")
        print(f"[flight recorder: {reason} post-mortem -> {path}]",
              file=sys.stderr)
        return path
    except Exception as exc:  # pragma: no cover - defensive
        print(f"[flight recorder: failed to write {reason} post-mortem: "
              f"{exc}]", file=sys.stderr)
        return None
