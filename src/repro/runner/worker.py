"""The one fork-worker runtime: every process the runner starts is this one.

:func:`~repro.runner.supervisor.parallel_map` schedules over it, and
everything a task needs wherever it runs lives here, so every guarantee
holds for every caller (ROBUSTNESS.md):

* **one task bracket** (:func:`run_task`): the task's simulators are
  audited under ``--invariants`` (:data:`audited`) before it counts as
  done, and a failure's text is :func:`task_traceback`, the same in a
  worker as in the map's inline loop;
* **one worker** (:func:`_worker_main`) whose loop executes ``fn(item)``
  messages and nothing else: it ignores SIGINT (only the parent decides
  when to die), beats on its pipe from a side thread while a task runs,
  and on SIGTERM dumps its flight recorder before exiting. It freezes
  what the fork inherited, and once a reply is sent it is a release
  point, as the map's inline loop is: it collects what the task left
  and freezes the survivors, so the next task starts with nothing of its
  predecessor alive and no collection walks the parent's heap;
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
import gc
import multiprocessing
import os
import pickle
import signal
import threading
import time
import traceback
from dataclasses import asdict, dataclass, replace
from multiprocessing.connection import wait as _conn_wait
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.telemetry import flightrec
from repro.telemetry.hub import HUB

__all__ = ["ShipHome", "TaskFailure", "Worker", "get_jobs", "in_worker",
           "pack", "run_shipped", "run_task", "set_jobs", "task_traceback",
           "watch"]

#: Worker beat interval while a task runs, and the silence after which
#: a busy worker is declared hung (SIGSTOP, kernel wedge); seconds.
BEAT_S = 1.0
BEAT_LIMIT_S = max(4.0 * BEAT_S, 5.0)

#: Parent poll tick (seconds): bounds detection latency, not throughput.
_TICK_S = 0.05

#: Seconds a SIGTERMed worker gets to dump its flight recorder before
#: SIGKILL.
_KILL_GRACE_S = 1.0

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
    fork children of its own, so nested maps run serially."""
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
    #: the post-mortem the task's exception already wrote, if any (an
    #: invariant violation's dump), so the parent does not write another
    postmortem_path: Optional[str] = None


def run_task(fn: Callable[[Any], Any], item: Any) -> Any:
    """One task, wherever it runs: ``fn(item)``, audited, so that a
    violation is this task's failure."""
    with audited():
        return fn(item)


def task_traceback(exc: BaseException) -> str:
    """A failed task's traceback text, from :func:`run_task` down: the
    frame that caught it is the runner's, in a worker or inline."""
    return "".join(traceback.format_exception(
        type(exc), exc, exc.__traceback__.tb_next))


def _maybe_chaos(label: str) -> None:
    """Kill-test hook: with ``REPRO_CHAOS_PLAN`` set (e.g.
    ``"exp:E16:crash,E19:radio:hang"``) and ``REPRO_CHAOS_DIR`` naming a
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
    ``("fail", exc_type, traceback_text, postmortem_path)``. One task
    at a time, so a reply always belongs to the task its handle holds.
    Replies are pickled before the send lock is taken: an unpicklable
    result is a task failure, not a torn pipe, and a beat never
    interleaves a result.
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
    gc.freeze()  # what the fork inherited: no collection here walks it
    try:
        while True:
            message = conn.recv()
            if message is None:
                return
            label, fn, item = message
            running.set()
            _maybe_chaos(label)
            try:
                result = run_task(fn, item)
                reply = ForkingPickler.dumps(("done", result))
            except Exception as exc:
                reply = ForkingPickler.dumps(
                    ("fail", type(exc).__name__, task_traceback(exc),
                     getattr(exc, "postmortem_path", None)))
            running.clear()
            with send_lock:
                conn.send_bytes(reply)
            # a task's simulator graph is cyclic: free it before the
            # next task is built, then freeze what survives
            message = fn = item = result = reply = None
            gc.collect()
            gc.freeze()
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

    def failure(self, kind: str, detail: str, exc_type: str,
                postmortem_path: Optional[str] = None) -> TaskFailure:
        """The current task's failure record."""
        return TaskFailure(self.label, self.slot, self.attempt, kind, detail,
                           time.monotonic() - self.started_at, exc_type,
                           postmortem_path)

    def kill(self, dump: bool = True) -> None:
        """SIGTERM (the worker dumps its flight recorder and exits),
        SIGKILL after ``_KILL_GRACE_S`` if it is too wedged to run the
        handler — a stopped process never is — then reap and forget it.
        ``dump=False`` sends SIGKILL at once: no post-mortem."""
        self.busy = False
        try:
            if self.proc.is_alive():
                if dump:
                    self.proc.terminate()
                    self.proc.join(_KILL_GRACE_S)
                if self.proc.is_alive():
                    self.proc.kill()
            self.proc.join()
        finally:
            _LIVE.discard(self)
            self.conn.close()

    def stop(self, dump: bool = True) -> None:
        """Let an idle worker exit cleanly; kill whatever remains (see
        :meth:`kill` for ``dump``)."""
        if not self.busy:
            try:
                self.conn.send(None)
                self.proc.join(timeout=2.0)
            except OSError:
                pass
        self.kill(dump)


def _put_down(worker: Worker, kind: str, detail: str) -> TaskFailure:
    """Kill a lost worker; dump which task, which attempt, how long —
    with the worker's own SIGTERM dump, the black box of the failure.
    ``detail`` is completed once the worker is reaped, so its exit code
    is the real one."""
    failure = worker.failure(
        kind, detail, "WorkerCrashed" if kind == "crash" else "WorkerHung")
    worker.kill()
    failure = replace(failure, detail=(
        f"{detail}; worker pid {worker.proc.pid}, exitcode "
        f"{worker.proc.exitcode}"))
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
                yield worker, "crash", _put_down(worker, "crash",
                                                 "died (pipe EOF)")
                continue
            if message[0] == "beat":
                worker.last_beat = time.monotonic()
                continue
            worker.busy = False
            if message[0] == "done":
                yield worker, "done", message[1]
            else:
                yield worker, "exception", worker.failure(
                    "exception", message[2], message[1], message[3])
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
                detail = f"no heartbeat for {BEAT_LIMIT_S:g}s"
            else:
                continue
            yield worker, kind, _put_down(worker, kind, detail)


class ShipHome:
    """Parent half of ship-home for one map; inert unless a hub run is
    active (``on``), so callers need not branch on telemetry. Create it
    before forking (the map's clock starts here), then call
    :meth:`forked`, :meth:`receive` per result, and :meth:`merge`."""

    def __init__(self, jobs: int) -> None:
        self.on = HUB.active
        self._flags = (HUB.profiling, HUB.tracing)
        self._record = HUB.lifecycle.begin_map(jobs) if self.on else None
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
