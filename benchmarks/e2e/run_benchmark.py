#!/usr/bin/env python3
"""The repo benchmark: seven workloads, end-to-end metrics, per-layer ledger.

Two ways in, one measurement path:

``python benchmarks/e2e/run_benchmark.py --all [--seed N]``
    every workload: 1 warm-up child, >= 5 timed children (tracing off),
    1 traced child; prints every metric by name with unit, sample count,
    median and quartiles, checks every output, writes the report JSON.
    ``--aa`` does that twice and compares; ``--smoke`` uses tiny
    arguments; ``--update-golden`` rewrites ``golden.json``.

``... --workload NAME --seed N --seconds S --trace 0|1``
    one workload, as ``BENCHMARK.json``'s ``command`` is driven: the last
    stdout line is one JSON object with the end-to-end metrics
    (``--trace 0``) or the per-layer metrics (``--trace 1``).

Children (``run_one.py``) run strictly one at a time; the only
concurrency anywhere is the two fork workers inside ``city_fork2``.
See README.md for what each number means and how to read it.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from layers import (EXACT_COUNTS, LAYER_FIELDS, LAYERS,  # noqa: E402
                    per_layer_units)
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

GOLDEN_PATH = os.path.join(HERE, "golden.json")
RESULTS_DIR = os.path.join(HERE, "results")
#: Timed children per workload: never fewer, more if ``--seconds`` allows.
MIN_TIMED = 5
#: Untraced children of a ``--trace 1`` run (baseline for the tracing
#: overhead, the TTI call timings and the fork speed-up).
TRACE_UNTRACED = 2
CHILD_TIMEOUT_S = 150
#: ``run_one.py``'s calibration kernel on the reference box at its usual
#: speed. Every reported time is ``raw * CALIB_REF_S / calib_s`` of its
#: own child: seconds at that speed, whatever the box was doing.
CALIB_REF_S = 0.018
#: The coverage identity: named layers explain this much of traced wall.
MIN_COVERAGE = 0.95


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_golden() -> Dict[str, Any]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def spawn(workload: str, seed: int, smoke: bool, trace: bool = False,
          serial: bool = False) -> Dict[str, Any]:
    """Run one child to completion; ``{"error": ...}`` if it failed."""
    cmd = [sys.executable, os.path.join(HERE, "run_one.py"), workload,
           "--seed", str(seed)]
    cmd += ["--smoke"] * smoke + ["--trace"] * trace + ["--serial"] * serial
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.join(REPO, "src"), os.environ.get("PYTHONPATH")]))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=REPO, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"exit code {proc.returncode}"}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "no result line on stdout"}
    result["setup_s"] = result.pop("ready") - spawned
    result["speed"] = CALIB_REF_S / result["calib_s"]
    return result


def summarize(values: List[float]) -> Dict[str, Any]:
    """Median, quartiles and range of one metric's samples."""
    if len(values) >= 2:
        q1, _med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "samples": values}


def work_units(spec: Workload, smoke: bool,
               golden: Optional[Dict[str, Any]]) -> float:
    """The constant ``sim_work_per_s`` divides by (0 while it is being
    recorded for a workload whose arguments do not fix it)."""
    if spec.work_formula is not None:
        return spec.work_formula(spec.args(smoke))
    if golden is None:
        return 0.0
    return golden["smoke" if smoke else "full"][spec.name]["work_units"]


def measure(spec: Workload, seed: int, smoke: bool, seconds: float,
            min_timed: int, trace: bool, golden: Optional[Dict[str, Any]],
            ) -> Dict[str, Any]:
    """One workload: warm-up, timed children, optional traced child.

    ``golden`` is None while ``--update-golden`` is recording. Every
    child counts toward ``attempted``; a child fails on an error or on a
    digest that differs from the first one seen — repeats, traced vs
    untraced and fork vs serial must all render the same bytes.
    """
    scale = "smoke" if smoke else "full"
    out: Dict[str, Any] = {"seed": seed, "args": spec.args(smoke),
                           "work_unit": spec.work_unit, "attempted": 0,
                           "failed": 0, "errors": []}
    digest: Optional[str] = None
    if golden is not None and (seed == DEFAULT_SEED or not spec.seeded):
        digest = golden[scale][spec.name]["digest"]

    def fail(message: str) -> None:
        out["failed"] += 1
        out["errors"].append(message)

    def child(label: str, check: bool = True, smoke: bool = smoke,
              **kwargs: Any) -> Optional[Dict[str, Any]]:
        nonlocal digest
        out["attempted"] += 1
        result = spawn(spec.name, seed, smoke, **kwargs)
        if "error" in result:
            fail(f"{label}: {result['error']}")
            return None
        out.update(python=result["python"], numpy=result["numpy"])
        if not check:
            return result
        digest = digest or result["digest"]
        seen = [result["digest"]] + ([result["fork_digest"]]
                                     if "fork_digest" in result else [])
        if any(d != digest for d in seen):
            fail(f"{label}: table digest differs from the reference")
            return None
        return result

    # warm-up: page cache and .pyc files are all a child can inherit, and
    # the smoke arguments import the same modules in a fraction of the time
    child("warm-up", check=False, smoke=True)
    timed: List[Dict[str, Any]] = []
    started = time.monotonic()
    while len(timed) < min_timed or time.monotonic() - started < seconds:
        result = child(f"timed #{len(timed) + 1}")
        if result is None:
            break
        timed.append(result)
    out["digest"] = digest

    if timed:
        out["work_units"] = units = work_units(spec, smoke, golden)
        walls = [r["wall_s"] * r["speed"] for r in timed]
        out["end_to_end"] = {
            "wall_s": summarize(walls),
            "cpu_s": summarize([r["cpu_s"] * r["speed"] for r in timed]),
            "sim_work_per_s": summarize([units / w for w in walls]),
            "peak_rss_mb": summarize([r["peak_rss_mb"] for r in timed]),
            "setup_s": summarize([r["setup_s"] * CALIB_REF_S
                                  / r["calib_before_s"] for r in timed]),
        }
        # raw seconds = reported seconds / host_speed
        out["host_speed"] = summarize([r["speed"] for r in timed])
    if not trace or not timed:
        return out

    traced = child("traced", trace=True)
    if traced is None:
        return out
    counts = traced["counts"]
    if traced["coverage"] < MIN_COVERAGE:
        fail(f"traced: layers cover {traced['coverage']:.1%} of traced wall")
    if spec.work_count is not None:
        name, factor = spec.work_count
        counted = counts[name] * factor
        if golden is None and spec.work_formula is None:
            out["work_units"] = counted
        if ((spec.work_formula or seed == DEFAULT_SEED)
                and counted != out["work_units"]):
            fail(f"traced: {factor} x {name} = {counted}, "
                 f"work units say {out['work_units']}")
    serial_wall = 0.0
    if spec.serial is not None:
        serial = child("serial", serial=True)
        if serial is None:
            return out
        serial_wall = serial["wall_s"] * serial["speed"]
    out["per_layer"] = ledger(traced, timed, serial_wall,
                              out["end_to_end"]["wall_s"]["median"])
    out["traced_wall_s"] = traced["wall_s"] * traced["speed"]
    out["coverage"] = traced["coverage"]
    return out


def ledger(traced: Dict[str, Any], timed: List[Dict[str, Any]],
           serial_wall: float, wall: float) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric of one workload, times calibrated.

    ``serial_wall`` is the untraced single-process wall of a workload
    that forks (0 otherwise): the traced run is compared against it, and
    it is the base of the fork speed-up.
    """
    units = per_layer_units()
    values = {f"{layer}.{field}": traced["layers"][layer][field]
              for layer in LAYERS for field in LAYER_FIELDS}
    values.update(traced["counts"])
    for name, unit in units.items():
        if unit in ("s", "us", "ns"):
            values[name] = values.get(name, 0.0) * traced["speed"]
    traced_wall = traced["wall_s"] * traced["speed"]
    values["trace.overhead_frac"] = traced_wall / (serial_wall or wall) - 1.0
    values["runner.fork_speedup"] = serial_wall / wall
    for name in ("enodeb.tti_p50_us", "enodeb.tti_p99_us"):
        values[name] = statistics.median(
            r["extras"].get(name, 0.0) * r["speed"] for r in timed)
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in units.items()}


# -- reporting ---------------------------------------------------------------

def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):,}"
    return f"{value:,.4g}" if abs(value) >= 100 else f"{value:.4g}"


def print_workload(name: str, result: Dict[str, Any],
                   contract: Dict[str, Any]) -> None:
    print(f"\n== {name}  (seed {result['seed']}, {result['attempted']} runs, "
          f"{result['failed']} failed, {_fmt(result.get('work_units', 0))} "
          f"{result['work_unit']})")
    for error in result["errors"]:
        print(f"   FAILED {error}")
    if "end_to_end" in result:
        print(f"   {'metric':<16}{'unit':<8}{'n':>3}{'median':>11}{'q1':>11}"
              f"{'q3':>11}{'min':>11}{'max':>11}")
        units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
        for metric, s in result["end_to_end"].items():
            print(f"   {metric:<16}{units[metric]:<8}{s['n']:>3}"
                  + "".join(f"{_fmt(s[k]):>11}"
                            for k in ("median", "q1", "q3", "min", "max")))
    if "per_layer" in result:
        per = result["per_layer"]
        print(f"   traced once: wall {result['traced_wall_s']:.3f} s, layers "
              f"cover {result['coverage']:.1%} (n = 1 per value)")
        ranked = sorted(LAYERS, key=lambda l: -per[f"{l}.share"]["value"])
        for layer in ranked:
            if per[f"{layer}.calls"]["value"] or per[f"{layer}.self_s"]["value"]:
                print(f"   {layer + '.self_s':<24}"
                      f"{per[f'{layer}.self_s']['value']:>9.4f} s   "
                      f"{layer}.share {per[f'{layer}.share']['value']:>6.1%}   "
                      f"{layer}.calls {_fmt(per[f'{layer}.calls']['value'])}")
        for metric, entry in per.items():
            if metric.split(".")[1] not in LAYER_FIELDS:
                print(f"   {metric:<32}{_fmt(entry['value']):>14} "
                      f"{entry['unit']}")


def run_all(opts: argparse.Namespace, contract: Dict[str, Any],
            golden: Dict[str, Any], sets: int = 1) -> List[Dict[str, Any]]:
    """Measure every workload ``sets`` times, alternating the sets per
    workload so that a drift of the box lands on all of them alike."""
    load = os.getloadavg()[0]
    reports: List[Dict[str, Any]] = [{
        "seed": opts.seed, "scale": "smoke" if opts.smoke else "full",
        "comparable": not opts.smoke,
        # a busy box inflates every timing: judge nothing from this report
        "noisy": load > (os.cpu_count() or 1),
        "host": {"nproc": os.cpu_count(), "loadavg_1m": load},
        "workloads": {},
    } for _ in range(sets)]
    for name in (w["name"] for w in contract["workloads"]):
        for index, report in enumerate(reports):
            result = measure(WORKLOADS[name], opts.seed, opts.smoke,
                             0.0 if opts.smoke else opts.seconds,
                             1 if opts.smoke else MIN_TIMED, True, golden)
            report["host"].update(python=result.pop("python", None),
                                  numpy=result.pop("numpy", None))
            report["workloads"][name] = result
            label = f"{name}  [set {'AB'[index]}]" if sets > 1 else name
            print_workload(label, result, contract)
    for report in reports:
        attempted = sum(r["attempted"] for r in report["workloads"].values())
        failed = sum(r["failed"] for r in report["workloads"].values())
        report["failed_frac"] = failed / attempted
        print(f"\nfailed_frac {failed}/{attempted} = "
              f"{report['failed_frac']:.3f}   (few samples per timing: read "
              f"the median against the quartiles; no tail percentile is "
              f"claimed)")
    if reports[0]["noisy"]:
        print(f"NOISY: 1-min load average {load:.2f} exceeds "
              f"{os.cpu_count()} cores; timings are not comparable")
    return reports


def compare_aa(a: Dict[str, Any], b: Dict[str, Any],
               contract: Dict[str, Any]) -> bool:
    """Print A/B deltas; True when two sets of runs of one tree agree."""
    ok = a["failed_frac"] == 0 and b["failed_frac"] == 0
    print("\n== A/A: two sets of runs of the same tree")
    for name, ra in a["workloads"].items():
        rb = b["workloads"][name]
        for metric in contract["end_to_end"]:
            ma = ra["end_to_end"][metric["name"]]["median"]
            mb = rb["end_to_end"][metric["name"]]["median"]
            delta = mb / ma - 1.0
            within = abs(delta) <= metric["bound"]
            ok &= within
            print(f"   {name:<20}{metric['name']:<16}A {_fmt(ma):>10}  "
                  f"B {_fmt(mb):>10}  {delta:+7.2%}  bound "
                  f"{metric['bound']:.0%}  {'ok' if within else 'DISAGREE'}")
        exact = [f"{layer}.calls" for layer in LAYERS] + list(EXACT_COUNTS)
        moved = [m for m in exact if ra["per_layer"][m]["value"]
                 != rb["per_layer"][m]["value"]]
        if ra["digest"] != rb["digest"]:
            moved.append("digest")
        ok &= not moved
        print(f"   {name:<20}{len(exact) + 1} exact counts and digest: "
              + (f"DIFFER: {', '.join(moved)}" if moved else "identical"))
    print(f"A/A {'agrees' if ok else 'DISAGREES'}")
    return ok


def write_json(path: str, payload: Dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def update_golden(contract: Dict[str, Any]) -> int:
    golden: Dict[str, Any] = {"seed": DEFAULT_SEED}
    for smoke in (True, False):
        golden["smoke" if smoke else "full"] = entries = {}
        for name, spec in WORKLOADS.items():
            result = measure(spec, DEFAULT_SEED, smoke, 0.0, 2, True, None)
            print_workload(name, result, contract)
            if result["failed"]:
                print("golden.json not written", file=sys.stderr)
                return 1
            entries[name] = {"digest": result["digest"],
                             "work_units": result["work_units"]}
    write_json(GOLDEN_PATH, golden)
    print(f"\nwrote {GOLDEN_PATH}")
    return 0


def run_for_driver(opts: argparse.Namespace, contract: Dict[str, Any],
                   golden: Dict[str, Any]) -> int:
    """``--workload``: one result line, as BENCHMARK.json's command is run."""
    result = measure(WORKLOADS[opts.workload], opts.seed, opts.smoke,
                     0.0 if opts.trace else opts.seconds,
                     TRACE_UNTRACED if opts.trace else MIN_TIMED,
                     bool(opts.trace), golden)
    for error in result["errors"]:
        print(f"FAILED {error}", file=sys.stderr)
    if opts.trace:
        metrics = result.get("per_layer")
    elif "end_to_end" in result:
        units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
        metrics = {name: {"value": s["median"], "unit": units[name]}
                   for name, s in result["end_to_end"].items()}
    else:
        metrics = None
    if not metrics:
        return 1
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def run_report(opts: argparse.Namespace, contract: Dict[str, Any],
               golden: Dict[str, Any]) -> int:
    """``--all`` / ``--aa``: the printed report and its JSON."""
    reports = run_all(opts, contract, golden, sets=2 if opts.aa else 1)
    report = reports[0]
    ok = report["failed_frac"] == 0
    if opts.aa:
        ok = compare_aa(reports[0], reports[1], contract)
        report = {"a": reports[0], "b": reports[1], "agrees": ok}
    out = opts.out or os.path.join(
        RESULTS_DIR, f"report{'-smoke' if opts.smoke else ''}.json")
    write_json(out, report)
    print(f"wrote {out}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="keep starting timed children until this much "
                             f"time has passed (never fewer than {MIN_TIMED})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny arguments, 1 timed run: exercises the "
                             "harness in seconds, numbers not comparable")
    parser.add_argument("--aa", action="store_true",
                        help="run the set twice; exit 1 unless both agree")
    parser.add_argument("--out", help="report path (default: "
                        "benchmarks/e2e/results/report[-smoke].json)")
    parser.add_argument("--update-golden", action="store_true",
                        help="record golden.json at the default seed")
    opts = parser.parse_args(argv)
    if not (opts.all or opts.aa or opts.workload or opts.update_golden):
        parser.error("give --all, --aa, --update-golden or --workload NAME")
    if not os.path.isfile(os.path.join(REPO, "src", "repro", "__init__.py")):
        print(f"no src/repro under {REPO}: nothing to measure",
              file=sys.stderr)
        return 2

    # two harnesses on one tree would time each other's children
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, ".lock"), "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            print("another run_benchmark.py is measuring this tree; "
                  "refusing to run concurrently", file=sys.stderr)
            return 2
        contract = load_contract()
        if opts.update_golden:
            return update_golden(contract)
        if opts.workload:
            return run_for_driver(opts, contract, load_golden())
        return run_report(opts, contract, load_golden())


if __name__ == "__main__":
    sys.exit(main())
