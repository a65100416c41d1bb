"""Command-line experiment runner: ``python -m repro [ids...]``.

Runs the named experiments (or all of them) and prints their tables —
the same rows the benchmarks assert on and EXPERIMENTS.md records.

Examples::

    python -m repro T1 E3 E12      # quick ones
    python -m repro --list
    python -m repro --all          # everything (minutes: E6 dominates)
    python -m repro --all --jobs 4 # same tables, fanned over 4 workers

Telemetry (see OBSERVABILITY.md)::

    python -m repro E16 --metrics-out e16.csv      # metrics snapshot
    python -m repro E16 --trace-out e16.jsonl      # traces + spans
    python -m repro E16 --profile                  # hot-function table
    python -m repro E16 --profile-out e16.folded   # flamegraph stacks
    python -m repro E7 --jobs 4 --profile          # + [E7 runner: ...]
                                                   # fork/IPC/imbalance line

With none of these flags, experiments run exactly as before —
telemetry recording is passive and results stay byte-identical. The
flight recorder is the always-on exception: every simulator rings its
recent events, and an invariant violation, supervisor kill, or
unhandled exception dumps a post-mortem JSON (``--postmortem-dir``,
``$REPRO_POSTMORTEM_DIR``, or the working directory).

Parallelism (``--jobs N``) operates at two levels, both deterministic:
sweep-heavy experiments (E6, E7, E17, E18, E19) fan their independent
cells (E19: its sharded passes) over workers and run in the parent
process; everything else is fanned out whole, one experiment per
worker, with captured output reprinted in id order. Tables are
byte-identical to ``--jobs 1`` — only the wall-clock lines differ.

Robustness (see ROBUSTNESS.md)::

    python -m repro --all --jobs 4 --retries 2        # survive crashes
    python -m repro --all --task-timeout 300          # kill hung workers
    python -m repro --all --jobs 4 --resume out/ckpt  # resumable sweep
    python -m repro E16 --exp-arg scenario=cascading-stub-crashes \
                        --invariants                  # chaos + invariants

``--retries``/``--task-timeout`` run the fan-out under the supervisor
(crashed or hung workers are killed and their tasks re-run from the same
derived seed, so the merged tables stay byte-identical); ``--retries``
also re-runs a sweep-heavy or sharded experiment whose cell or pass
worker was lost, while ``--task-timeout`` cannot preempt those — they
run in the parent. ``--resume`` journals finished experiments to
``<dir>/manifest.jsonl`` and a rerun replays them byte-for-byte,
executing only the unfinished ones. ``--invariants`` audits every
simulator built, in whichever process (a violation in a ``--jobs`` cell
or an E19 pass fails that task) and prints the unarmed run's bytes.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import gc
import io
import os
import sys
import time
import traceback
from typing import List, Optional

from repro.experiments import ALL_EXPERIMENTS
from repro.metrics.tables import ResultTable
from repro.runner import (
    SupervisorReport,
    SweepCheckpoint,
    get_jobs,
    parallel_map,
    set_jobs,
    worker,
)
from repro.telemetry import flightrec
from repro.telemetry.hub import HUB
from repro.telemetry.exporters import (
    profile_table,
    summary_table,
    write_events_jsonl,
    write_folded,
    write_metrics_csv,
    write_metrics_text,
)


def _print_result(result) -> None:
    if isinstance(result, ResultTable):
        print(result.render())
        print()
    elif isinstance(result, (tuple, list)):
        for item in result:
            _print_result(item)
    else:
        print(result)


def _suffixed(path: str, exp_id: str, multi: bool) -> str:
    """Per-experiment artifact name: ``out.csv`` -> ``out-E16.csv``."""
    if not multi:
        return path
    root, ext = os.path.splitext(path)
    return f"{root}-{exp_id}{ext}"


def _unwritable_reason(path: str) -> Optional[str]:
    """Why an artifact path cannot be written, or None if it can.

    Checked before any experiment runs (per-experiment suffixing keeps
    the directory, so validating the bare path covers all artifacts).
    """
    if os.path.isdir(path):
        return f"{path!r} is a directory"
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        return f"directory {directory!r} does not exist"
    if not os.access(directory, os.W_OK | os.X_OK):
        return f"directory {directory!r} is not writable"
    if os.path.exists(path) and not os.access(path, os.W_OK):
        return f"{path!r} exists and is not writable"
    return None


def _export_run(exp_id: str, run, metrics_out: Optional[str],
                trace_out: Optional[str], profile: bool,
                multi: bool, profile_out: Optional[str] = None) -> None:
    rows = run.metrics_rows()
    if metrics_out:
        path = _suffixed(metrics_out, exp_id, multi)
        if path.endswith(".csv"):
            n = write_metrics_csv(rows, path)
        else:
            n = write_metrics_text(rows, path)
        print(f"[{exp_id} metrics: {n} rows -> {path}]")
    if trace_out:
        path = _suffixed(trace_out, exp_id, multi)
        n = write_events_jsonl(path, tracers=run.tracers,
                               lifecycle=run.lifecycle)
        print(f"[{exp_id} events: {n} lines -> {path}]")
    if profile_out:
        path = _suffixed(profile_out, exp_id, multi)
        n = write_folded(path, profile=run.profile or (), rows=rows)
        print(f"[{exp_id} folded: {n} stacks -> {path}]")
    print(summary_table(rows, title=f"{exp_id} telemetry summary").render())
    print(f"[{exp_id} subsystems: {', '.join(run.subsystems())}]")
    if (profile or profile_out) and run.profile is not None:
        print()
        print(f"[{exp_id} profile: {run.events_executed:,} events in "
              f"{run.wall_s:.3f} s wall "
              f"({run.events_executed / run.wall_s:,.0f} events/s, "
              f"heap high-water {run.heap_high_water}, "
              f"agent peak queue {run.agent_peak_queue}, "
              f"shed {run.agents_shed})]")
        print(profile_table(run.profile).render())
    if run.lifecycle is not None and run.lifecycle.maps:
        print(f"[{exp_id} runner: {run.lifecycle.summary_line()}]")
    if run.shard_stats:
        for entry in run.shard_stats:
            label = entry.get("label", "sharded")
            print(f"[{exp_id} shard {entry['shard']} ({label}): "
                  f"{entry['events']:,} events, "
                  f"heap hwm {entry['heap_hwm']}, "
                  f"{entry['windows']} windows, "
                  f"exec {entry['exec_s']:.3f} s, "
                  f"barrier wait {entry['barrier_wait_s']:.3f} s]")
    print()


def _dump_on_exception(exp_id: str, exc: BaseException) -> None:
    """Flight-recorder post-mortem for an unhandled experiment error.

    Skipped for Ctrl-C and for errors that already carry a dump (the
    invariant checker writes its own, richer one before raising, and
    a map's :class:`~repro.runner.TaskFailedError` carries the path of
    its task's, inline or from a worker).
    """
    if isinstance(exc, KeyboardInterrupt) or getattr(
            exc, "postmortem_path", None):
        return
    path = flightrec.write_postmortem(
        "experiment-exception",
        detail="".join(traceback.format_exception_only(exc)).strip(),
        extra={"experiment": exp_id})
    if path:
        try:
            exc.postmortem_path = path
        except Exception:
            pass


def run_experiment(exp_id: str, metrics_out: Optional[str] = None,
                   trace_out: Optional[str] = None, profile: bool = False,
                   multi: bool = False,
                   exp_args: Optional[dict] = None,
                   profile_out: Optional[str] = None) -> None:
    """Run one experiment module's ``run()`` and print its tables.

    When any telemetry output is requested, the run is bracketed with
    :meth:`TelemetryHub.start_run` / ``finish_run`` so every simulator
    the experiment builds is collected, then artifacts are written.
    ``exp_args`` are passed through to the module's ``run()`` (the CLI's
    ``--exp-arg KEY=VAL``); under ``--invariants`` what it built is
    verified when ``run()`` returns. An unhandled exception writes a
    flight-recorder post-mortem before propagating.
    """
    module = ALL_EXPERIMENTS[exp_id]
    kwargs = exp_args or {}
    collect = bool(metrics_out or trace_out or profile or profile_out)
    started = time.time()
    print(f"=== {exp_id}: {module.__doc__.strip().splitlines()[0]}")
    print()
    if collect:
        HUB.start_run(profile=profile or bool(profile_out),
                      trace=bool(trace_out))
    try:
        with worker.audited():
            result = module.run(**kwargs)
    except BaseException as exc:
        if collect:
            HUB.abort_run()
        _dump_on_exception(exp_id, exc)
        raise
    run = HUB.finish_run() if collect else None
    _print_result(result)
    if run is not None:
        _export_run(exp_id, run, metrics_out, trace_out, profile, multi,
                    profile_out=profile_out)
    print(f"[{exp_id} done in {time.time() - started:.1f} s]")
    print()
    # the experiment's simulators are cyclic garbage once the result and
    # the run (whose registries hold their owners) go: free them before
    # the next experiment (``--all``, or the next task of a worker) is
    # built, then freeze what survives, so that later collections walk
    # only what the next experiment builds
    del result, run
    gc.collect()
    gc.freeze()


#: Experiments whose run() fans its own sweep cells over workers; they
#: run in the parent so that every worker serves their cells.
CELL_PARALLEL_IDS = ("E6", "E7", "E17", "E18", "E19")

#: Rough serial seconds per fanned-out experiment (measured on the
#: reference box); only the ordering matters — longest-first submission.
#: Ids not listed ran in under 30 ms and sort last.
_COST_HINTS = {"E8": 0.5, "E5": 0.3, "F1": 0.08, "E16": 0.05}


def _run_captured(task) -> str:
    """Worker body for experiment-level fan-out: run one experiment with
    stdout captured, so the parent can reprint outputs in id order."""
    exp_id, metrics_out, trace_out, profile, multi, profile_out, \
        exp_args = task
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run_experiment(exp_id, metrics_out=metrics_out,
                       trace_out=trace_out, profile=profile, multi=multi,
                       profile_out=profile_out, exp_args=exp_args)
    return buf.getvalue()


def _run_all_parallel(ids: List[str], jobs: int,
                      metrics_out: Optional[str], trace_out: Optional[str],
                      profile: bool,
                      task_timeout_s: Optional[float] = None,
                      retries: int = 0,
                      checkpoint: Optional[SweepCheckpoint] = None,
                      profile_out: Optional[str] = None,
                      exp_args: Optional[dict] = None) -> None:
    """Two-phase schedule over ``ids`` (see module docstring).

    Cell-parallel experiments run in the parent first (``jobs=1``:
    inline, so their sweeps and passes get every worker); the rest are
    then fanned out whole. Both phases are the same ordered map —
    bounded retry, failure records, checkpoint journal (see
    ROBUSTNESS.md) — but only workers can be preempted, so
    ``task_timeout_s`` applies to the second phase alone. All output is
    buffered and reprinted in the original id order, so apart from
    timing lines the stream matches a serial run. With ``checkpoint``,
    finished experiments are journaled and a rerun replays them
    byte-for-byte.
    """
    multi = len(ids) > 1
    outputs = {}
    report = SupervisorReport()
    for group, group_jobs, timeout_s in (
            ([i for i in ids if i in CELL_PARALLEL_IDS], 1, None),
            ([i for i in ids if i not in CELL_PARALLEL_IDS], jobs,
             task_timeout_s)):
        tasks = [(i, metrics_out, trace_out, profile, multi, profile_out,
                  exp_args) for i in group]
        texts = parallel_map(
            _run_captured, tasks, jobs=group_jobs,
            costs=[_COST_HINTS.get(i, 0.0) for i in group],
            labels=[f"exp:{i}" for i in group],
            task_timeout_s=timeout_s, retries=retries,
            checkpoint=checkpoint, report=report)
        outputs.update(zip(group, texts))
    for exp_id in ids:
        sys.stdout.write(outputs[exp_id])
    # diagnostics go to stderr so stdout stays byte-identical to a
    # clean serial run regardless of crashes, retries, or resume
    if report.failures:
        print(f"[supervisor: {report.crashes} crash(es), "
              f"{report.hangs} hang(s), {report.exceptions} exception(s); "
              f"{report.retries} task retry(ies)]", file=sys.stderr)
    if report.replayed_from_checkpoint:
        print(f"[resume: {report.replayed_from_checkpoint} experiment(s) "
              f"replayed from {checkpoint.path}]", file=sys.stderr)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="dLTE reproduction: run paper experiments")
    parser.add_argument("ids", nargs="*",
                        help=f"experiment ids: {', '.join(ALL_EXPERIMENTS)}")
    parser.add_argument("--all", action="store_true",
                        help="run every experiment")
    parser.add_argument("--list", action="store_true",
                        help="list experiments and exit")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="write a metrics snapshot per experiment "
                             "(.csv for CSV, anything else for "
                             "Prometheus-style text)")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write trace events and spans as JSONL "
                             "per experiment")
    parser.add_argument("--profile", action="store_true",
                        help="run each experiment under cProfile; print "
                             "events/sec and the top-10 functions by "
                             "self time")
    parser.add_argument("--profile-out", metavar="PATH",
                        help="write the profile as collapsed stacks "
                             "(flamegraph.pl/speedscope format) per "
                             "experiment; implies profiling")
    parser.add_argument("--postmortem-dir", metavar="DIR",
                        help="directory for flight-recorder post-mortem "
                             "dumps (default: $REPRO_POSTMORTEM_DIR or "
                             "the current directory; created if missing)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan experiments and sweep cells over N "
                             "worker processes (default 1 = serial; "
                             "tables are byte-identical either way)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECS",
                        help="per-experiment wall-clock deadline; a task "
                             "over it is declared hung, its worker killed, "
                             "and the task retried (see --retries)")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="re-run a crashed or hung experiment up to N "
                             "times (tasks are self-seeding, so retried "
                             "output is byte-identical)")
    parser.add_argument("--resume", metavar="DIR",
                        help="journal finished experiments to "
                             "DIR/manifest.jsonl and, on rerun, replay "
                             "them byte-for-byte instead of re-executing")
    parser.add_argument("--exp-arg", action="append", default=[],
                        metavar="KEY=VAL", dest="exp_args",
                        help="pass KEY=VAL through to the experiment's "
                             "run() (single experiment only); VAL is "
                             "parsed as a Python literal when possible, "
                             "e.g. --exp-arg scenario=flapping-backhaul")
    parser.add_argument("--invariants", action="store_true",
                        help="audit every simulator the experiments build "
                             "against its conservation laws, in workers "
                             "too; same tables, a violation fails the run "
                             "with a post-mortem (see ROBUSTNESS.md)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.retries < 0:
        parser.error(f"--retries must be >= 0, got {args.retries}")
    if args.task_timeout is not None and args.task_timeout <= 0:
        parser.error(f"--task-timeout must be positive, "
                     f"got {args.task_timeout}")
    if args.resume and (args.metrics_out or args.trace_out or args.profile
                        or args.profile_out):
        parser.error("--resume cannot be combined with telemetry flags "
                     "(--metrics-out/--trace-out/--profile/--profile-out): "
                     "replayed experiments would not re-export their "
                     "telemetry")
    if args.resume and args.invariants:
        parser.error("--invariants cannot be combined with --resume: a "
                     "replayed experiment was not audited")
    scope = contextlib.nullcontext
    if args.invariants:
        # only when asked for, and before any HUB bracket or fork
        from repro.invariants import armed as scope
    # fail fast on unwritable artifact paths: a typo'd directory must
    # error out now, not as a traceback after minutes of simulation
    for flag, value in (("--metrics-out", args.metrics_out),
                        ("--trace-out", args.trace_out),
                        ("--profile-out", args.profile_out)):
        if value:
            problem = _unwritable_reason(value)
            if problem:
                parser.error(f"{flag}: {problem}")
    if args.postmortem_dir:
        try:
            os.makedirs(args.postmortem_dir, exist_ok=True)
        except OSError as exc:
            parser.error(f"--postmortem-dir: cannot create "
                         f"{args.postmortem_dir!r}: {exc}")
        flightrec.set_dump_dir(args.postmortem_dir)
        # spawn-method workers don't inherit module state; the env var
        # reaches them either way
        os.environ["REPRO_POSTMORTEM_DIR"] = args.postmortem_dir
    exp_args = {}
    for pair in args.exp_args:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            parser.error(f"--exp-arg expects KEY=VAL, got {pair!r}")
        try:
            exp_args[key] = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            exp_args[key] = value

    if args.list:
        for exp_id, module in ALL_EXPERIMENTS.items():
            headline = module.__doc__.strip().splitlines()[0]
            print(f"{exp_id:>4}  {headline}")
        return 0

    ids = list(ALL_EXPERIMENTS) if args.all else args.ids
    if not ids:
        parser.print_help()
        return 2
    unknown = [i for i in ids if i not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}; "
              f"choices: {list(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    if exp_args and len(ids) != 1:
        parser.error("--exp-arg needs exactly one experiment id")
    # import exactly what was asked for, now: nothing below — a table,
    # a HUB bracket, a forked worker — imports a repro module again
    for exp_id in ids:
        ALL_EXPERIMENTS[exp_id]

    supervise = (args.resume is not None or args.retries > 0
                 or args.task_timeout is not None)
    if exp_args and args.resume:
        parser.error("--exp-arg cannot be combined with --resume: the "
                     "checkpoint journal is keyed by experiment id only")
    # the parser is cyclic: it goes before a release point freezes it
    del parser
    # --jobs is the process-wide default for the run only: a caller that
    # drives main() in-process gets its own value back on every exit
    previous_jobs = get_jobs()
    set_jobs(args.jobs)
    try:
        with scope():
            if (args.jobs > 1 and len(ids) > 1) or supervise:
                checkpoint = (SweepCheckpoint(args.resume, run_id="repro-cli")
                              if args.resume else None)
                try:
                    _run_all_parallel(ids, args.jobs, args.metrics_out,
                                      args.trace_out, args.profile,
                                      task_timeout_s=args.task_timeout,
                                      retries=args.retries,
                                      checkpoint=checkpoint,
                                      profile_out=args.profile_out,
                                      exp_args=exp_args or None)
                finally:
                    if checkpoint is not None:
                        checkpoint.close()
                return 0
            for exp_id in ids:
                run_experiment(exp_id, metrics_out=args.metrics_out,
                               trace_out=args.trace_out, profile=args.profile,
                               multi=len(ids) > 1, exp_args=exp_args or None,
                               profile_out=args.profile_out)
    finally:
        set_jobs(previous_jobs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
