"""The one fork-worker runtime: every process the runner starts is this one.

``parallel_map`` (cell sweeps), ``supervised_map`` (experiment fan-out)
and ``ShardWorkerPool`` (city shards) differ only in scheduling policy —
which task goes to which worker, and what a failure does. What they
share lives here, so every guarantee holds for all three (ROBUSTNESS.md):

* **one worker** (:func:`_worker_main`) whose loop executes ``fn(item)``
  messages and nothing else: it ignores SIGINT (only the parent decides
  when to die), beats on its pipe from a side thread while a task runs,
  and on SIGTERM dumps its flight recorder before exiting. Under
  ``--invariants`` a task's simulators are verified before its reply
  goes home (:data:`audited`). State kept
  between tasks lives in module globals of the worker process;
* **one parent watch loop** (:func:`watch`): beat freshness, an optional
  per-task deadline, and pipe EOF = crash. A lost worker is killed and a
  parent-side post-mortem written before the caller hears about it;
* **one ship-home protocol** for telemetry under an active hub run
  (:func:`pack` in the worker, :class:`ShipHome` in the parent);
* **one registry, one ``atexit`` reaper** for whatever the parent left.
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing
import os
import pickle
import signal
import threading
import time
import traceback
from dataclasses import asdict, dataclass
from multiprocessing.connection import wait as _conn_wait
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.telemetry import flightrec
from repro.telemetry.hub import HUB

__all__ = ["ShipHome", "TaskFailure", "Worker", "get_jobs", "in_worker",
           "pack", "run_shipped", "set_jobs", "watch"]

#: Worker beat interval while a task runs, and the silence after which
#: a busy worker is declared hung (SIGSTOP, kernel wedge); seconds.
BEAT_S = 1.0
BEAT_LIMIT_S = max(4.0 * BEAT_S, 5.0)

#: Parent poll tick (seconds): bounds detection latency, not throughput.
_TICK_S = 0.05

#: Process-wide default fan-out, set once by the CLI's ``--jobs``.
_JOBS = 1

#: ``with worker.audited():`` brackets one unit of work (an experiment's
#: ``run()``, a worker task): ``repro.invariants.armed`` while that is on
#: — it assigns itself here; this module never imports the package —
#: and a no-op otherwise. Inherited through fork.
audited: Callable[[], Any] = contextlib.nullcontext

#: Parent-side handles of live workers, reaped at interpreter exit.
_LIVE: set = set()


def _reap_workers() -> None:
    """atexit hook: kill any worker the parent left behind."""
    for worker in list(_LIVE):
        try:
            worker.proc.kill()  # no SIGTERM: no half-written dumps
            worker.proc.join()
        except Exception:  # pragma: no cover - interpreter teardown
            pass


atexit.register(_reap_workers)


def set_jobs(jobs: int) -> None:
    """Set the process-wide default worker count (1 = serial)."""
    global _JOBS
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    _JOBS = int(jobs)


def get_jobs() -> int:
    """The process-wide default worker count."""
    return _JOBS


def in_worker() -> bool:
    """True inside a runner worker — a daemonic process, which cannot
    fork children of its own, so nested maps and shard pools run serially."""
    return multiprocessing.current_process().daemon


@dataclass(frozen=True)
class TaskFailure:
    """One failed task attempt (crash, hang, or exception)."""

    label: str
    slot: int
    attempt: int
    kind: str  # "crash" | "hang" | "exception"
    detail: str
    elapsed_s: float
    exc_type: str = ""


def _maybe_chaos(label: str) -> None:
    """Kill-test hook: with ``REPRO_CHAOS_PLAN`` set (e.g.
    ``"exp:E16:crash,shard:1:hang"``) and ``REPRO_CHAOS_DIR`` naming a
    directory, a task whose label is in the plan writes a once-marker
    there and dies or spins — once per label, so the retry succeeds."""
    plan = os.environ.get("REPRO_CHAOS_PLAN", "")
    # labels may themselves contain colons (e.g. "exp:E16"), so the
    # action is whatever follows the *last* colon
    action = dict(entry.rsplit(":", 1) for entry in plan.split(",")
                  if ":" in entry).get(label)
    if action is None:
        return
    chaos_dir = os.environ.get("REPRO_CHAOS_DIR")
    if not chaos_dir:
        raise RuntimeError("REPRO_CHAOS_PLAN set without REPRO_CHAOS_DIR")
    marker = os.path.join(chaos_dir, f"chaos-{label}.done")
    if os.path.exists(marker):
        return  # already fired: the retry runs clean
    with open(marker, "w") as handle:
        handle.write(action)
    if action == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    elif action == "hang":
        while True:  # pragma: no cover - killed by the supervisor
            time.sleep(3600)
    else:
        raise ValueError(f"unknown chaos action {action!r} for {label!r}")


def _worker_main(conn) -> None:
    """Serve ``fn(item)`` tasks from ``conn`` until told to stop.

    Protocol (one duplex pipe): parent -> worker ``(label, fn, item)``
    or ``None`` to stop; worker -> parent ``("beat",)`` every
    :data:`BEAT_S` while a task runs, then ``("done", result)`` or
    ``("fail", exc_type, traceback_text)``. One task at a time, so a
    reply always belongs to the task its handle holds. Replies are
    pickled before the send lock is taken: an unpicklable result is a
    task failure, not a torn pipe, and a beat never interleaves a result.
    """
    if HUB.active:  # inherited via fork from a mid-run parent
        HUB.abort_run()

    def _on_sigterm(signum, frame):
        flightrec.write_postmortem(
            "supervisor-kill",
            detail=f"worker pid {os.getpid()} terminated by its parent "
                   f"(deadline, heartbeat timeout, or teardown)")
        os._exit(70)

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, _on_sigterm)
    send_lock = threading.Lock()
    running = threading.Event()

    def beat_loop() -> None:  # a daemon thread: dies with the process
        while True:
            time.sleep(BEAT_S)
            if running.is_set():
                try:
                    with send_lock:
                        conn.send(("beat",))
                except OSError:  # parent died
                    return

    threading.Thread(target=beat_loop, daemon=True,
                     name="worker-heartbeat").start()
    try:
        while True:
            message = conn.recv()
            if message is None:
                return
            label, fn, item = message
            running.set()
            _maybe_chaos(label)
            try:
                with audited():  # a violation is this task's failure
                    result = fn(item)
                reply = ForkingPickler.dumps(("done", result))
            except Exception as exc:
                reply = ForkingPickler.dumps(
                    ("fail", type(exc).__name__, traceback.format_exc()))
            running.clear()
            with send_lock:
                conn.send_bytes(reply)
    except (EOFError, KeyboardInterrupt, OSError):
        pass  # parent went away; die quietly


def pack(result: Any, started_at: float, exec_s: float
         ) -> Tuple[bytes, Dict[str, Any]]:
    """Worker half of ship-home: end the hub run, pickle, time, size.
    ``time.monotonic`` is comparable across forked processes on Linux,
    so the parent derives queue-wait and ship latencies from the stamps."""
    t0 = time.monotonic()
    blob = pickle.dumps((result, HUB.export_worker_run()),
                        protocol=pickle.HIGHEST_PROTOCOL)
    return blob, {"pid": os.getpid(), "started_at": started_at,
                  "exec_s": exec_s, "serialize_s": time.monotonic() - t0,
                  "serialize_bytes": len(blob),
                  "finished_at": time.monotonic()}


def run_shipped(args) -> Tuple[bytes, Dict[str, Any]]:
    """Task body under telemetry: bracket ``fn(item)`` with a hub run."""
    fn, item, profile, trace = args
    HUB.start_run(profile=profile, trace=trace)
    started_at = time.monotonic()
    try:
        result = fn(item)
    except BaseException:
        HUB.abort_run()
        raise
    return pack(result, started_at, time.monotonic() - started_at)


class Worker:
    """Parent-side handle: process, pipe, and the task it holds."""

    def __init__(self) -> None:
        try:  # fork is cheap and inherits the parent's modules
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            ctx = multiprocessing.get_context()
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(target=_worker_main, args=(child_conn,),
                                daemon=True, name="repro-worker")
        self.proc.start()
        child_conn.close()  # the worker holds the only other end
        _LIVE.add(self)
        self.busy = False  # True from assign() until its outcome
        self.label, self.slot, self.attempt = "", 0, 0
        self.started_at = self.last_beat = 0.0

    def assign(self, label: str, fn: Callable[[Any], Any], item: Any,
               slot: int = 0, attempt: int = 1) -> None:
        """Send one task; raises OSError if the worker is already dead."""
        self.busy = True
        self.label, self.slot, self.attempt = label, slot, attempt
        self.started_at = self.last_beat = time.monotonic()
        self.conn.send((label, fn, item))

    def failure(self, kind: str, detail: str, exc_type: str) -> TaskFailure:
        """The current task's failure record."""
        return TaskFailure(self.label, self.slot, self.attempt, kind, detail,
                           time.monotonic() - self.started_at, exc_type)

    def kill(self, grace_s: float = 1.0) -> None:
        """SIGTERM (the worker dumps its flight recorder and exits),
        SIGKILL after ``grace_s`` if it is too wedged to run the handler
        — a stopped process never is — then reap and forget it."""
        self.busy = False
        try:
            if self.proc.is_alive():
                self.proc.terminate()
                self.proc.join(grace_s)
                if self.proc.is_alive():
                    self.proc.kill()
            self.proc.join()
        finally:
            _LIVE.discard(self)
            self.conn.close()

    def stop(self) -> None:
        """Let an idle worker exit cleanly; kill whatever remains."""
        if not self.busy:
            try:
                self.conn.send(None)
                self.proc.join(timeout=2.0)
            except OSError:
                pass
        self.kill()


def _put_down(worker: Worker, kind: str, detail: str) -> TaskFailure:
    """Kill a lost worker; dump which task, which attempt, how long —
    with the worker's own SIGTERM dump, the black box of the failure."""
    failure = worker.failure(
        kind, detail, "WorkerCrashed" if kind == "crash" else "WorkerHung")
    worker.kill()
    flightrec.write_postmortem(
        f"supervisor-{kind}", detail=str(failure), sims=[],
        extra={"task": dict(asdict(failure), worker_pid=worker.proc.pid)})
    return failure


def watch(workers: List[Worker], task_timeout_s: Optional[float] = None
          ) -> Iterator[Tuple[Worker, str, Any]]:
    """Yield each busy worker's outcome until no worker is busy.

    Events are ``(worker, "done", result)`` or ``(worker, kind,
    TaskFailure)`` with kind ``"exception"`` (the task raised; the
    worker lives on), ``"crash"`` (pipe EOF) or ``"hang"`` (deadline or
    beat limit) — then the worker is already dead and reaped.
    ``workers`` is re-read every tick, so the consumer may assign new
    tasks and swap in replacement workers between events.
    """
    while True:
        busy = {worker.conn: worker for worker in workers if worker.busy}
        if not busy:
            return
        for conn in _conn_wait(list(busy), timeout=_TICK_S):
            worker = busy[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                yield worker, "crash", _put_down(
                    worker, "crash",
                    f"worker pid {worker.proc.pid} died (pipe EOF, "
                    f"exitcode {worker.proc.exitcode})")
                continue
            if message[0] == "beat":
                worker.last_beat = time.monotonic()
                continue
            worker.busy = False
            if message[0] == "done":
                yield worker, "done", message[1]
            else:
                yield worker, "exception", worker.failure(
                    "exception", message[2], message[1])
        now = time.monotonic()
        for worker in busy.values():
            if not worker.busy:
                continue
            if (task_timeout_s is not None
                    and now - worker.started_at > task_timeout_s):
                kind = "hang"
                detail = f"exceeded task deadline of {task_timeout_s:g}s"
            elif now - worker.last_beat > BEAT_LIMIT_S:
                kind = "hang" if worker.proc.is_alive() else "crash"
                detail = (f"no heartbeat for {BEAT_LIMIT_S:g}s (worker pid "
                          f"{worker.proc.pid} exitcode {worker.proc.exitcode})")
            else:
                continue
            yield worker, kind, _put_down(worker, kind, detail)


class ShipHome:
    """Parent half of ship-home for one map; inert unless a hub run is
    active (``on``), so callers need not branch on telemetry. Create it
    before forking (the map's clock starts here), then call
    :meth:`forked`, :meth:`receive` per result, and :meth:`merge`."""

    def __init__(self, mode: str, jobs: int) -> None:
        self.on = HUB.active
        self._flags = (HUB.profiling, HUB.tracing)
        self._record = HUB.lifecycle.begin_map(mode, jobs) if self.on else None
        self._arrivals: Dict[int, Tuple[Any, Any]] = {}

    def wrap(self, fn, item) -> Tuple[Callable[[Any], Any], Any]:
        """The ``(fn, item)`` to send so a stateless task ships home."""
        return (run_shipped, (fn, item) + self._flags) if self.on \
            else (fn, item)

    def forked(self) -> None:
        if self.on:
            self._record.fork_s = time.monotonic() - self._record.started_at

    def receive(self, slot: int, label: str, shipped) -> Any:
        """Unpickle one packed result and log its task lifecycle."""
        if not self.on:
            return shipped
        blob, timing = shipped
        received = time.monotonic()
        result, telemetry = pickle.loads(blob)
        task = HUB.lifecycle.record_task(
            self._record, slot, label, timing["pid"],
            queue_wait_s=max(0.0, timing["started_at"]
                             - self._record.started_at),
            exec_s=timing["exec_s"], serialize_s=timing["serialize_s"],
            serialize_bytes=timing["serialize_bytes"],
            ship_s=max(0.0, received - timing["finished_at"]))
        task.merge_s = time.monotonic() - received  # unpickling is merging
        self._arrivals[slot] = (telemetry, task)
        return result

    def merge(self) -> None:
        """Absorb the telemetry in slot order — where a serial run would
        have collected it — and close the map."""
        if not self.on:
            return
        for slot in sorted(self._arrivals):
            telemetry, task = self._arrivals[slot]
            t0 = time.monotonic()
            HUB.absorb_worker_run(telemetry)
            task.merge_s += time.monotonic() - t0
        HUB.lifecycle.finish_map(self._record)
