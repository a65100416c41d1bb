"""Import-closure gates: a process imports what it runs — counted, not timed.

Package ``__init__``s re-export lazily (``repro._lazy``) and
``ALL_EXPERIMENTS`` imports an experiment on ``[]``, so what a process
loads is decided by what it asks for. Two laws hold that in place:

* importing an experiment module loads everything its ``run()`` executes
  — the set of ``repro.*`` names in ``sys.modules`` is the same before
  and after the call, in the parent and in every forked worker;
* asking for one thing does not load its siblings.

Every probe is a fresh interpreter (``sys.modules`` of the pytest
process says nothing) that prints one JSON object on its last line.
"""

import functools
import inspect
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

_PRELUDE = """
import json, sys
def mods():
    return sorted(m for m in sys.modules
                  if m == "repro" or m.startswith("repro."))
"""


def _probe(script: str) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", _PRELUDE + script],
                            capture_output=True, text=True, timeout=180,
                            env=env)
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.strip().splitlines()[-1])


def _under(modules, *packages):
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in packages)]


# -- (c) run() imports nothing: the benchmark's smoke arguments -------------

SMOKE_ARGS = {
    "E3": {},
    "E5": {"n_aps": 2, "ue_per_ap": 8},
    "E6": {"dwells_s": [0.5]},
    "E17": {"intensities": (1, 4), "horizon_s": 6.0},
    "E18": {"loads": (4.0,), "ue_per_ap": 2, "settle_s": 2.0,
            "warmup_s": 0.5, "measure_s": 1.0},
    "E19": {"n_cells": 12, "ue_per_cell": 2, "background_per_cell": 20,
            "shards": 2, "mode": "fork", "horizon_s": 3.0},
}


#: E19 only: every shard worker reports what it holds at harvest. The
#: patch is applied before the fork, so the workers inherit it.
_SHIP_WORKER_MODULES = """
from repro.simcore.sharded import ShardHost
from repro.telemetry.hub import HUB
stats = ShardHost.stats
def stats_with_modules(host):
    return dict(stats(host), modules=mods())
ShardHost.stats = stats_with_modules
HUB.start_run()
"""


@functools.lru_cache(maxsize=None)
def _run_probe(exp_id: str) -> dict:
    """Import one experiment, then run it: module sets before and after."""
    forks = SMOKE_ARGS[exp_id].get("mode") == "fork"
    return _probe(f"""
from repro.experiments import ALL_EXPERIMENTS
module = ALL_EXPERIMENTS[{exp_id!r}]
{_SHIP_WORKER_MODULES if forks else ""}
before = mods()
module.run(**{SMOKE_ARGS[exp_id]!r})
out = {{"before": before, "after": mods()}}
if {forks}:
    out["shards"] = [entry["modules"]
                     for entry in HUB.finish_run().shard_stats]
print(json.dumps(out))
""")


@pytest.mark.parametrize("exp_id", sorted(SMOKE_ARGS))
def test_run_imports_nothing_once_the_module_is_imported(exp_id):
    out = _run_probe(exp_id)
    assert out["after"] == out["before"]


def test_shard_workers_import_nothing_after_the_fork():
    out = _run_probe("E19")
    assert len(out["shards"]) == 6      # 2 shards x (2 arms + the radio)
    for held in out["shards"]:
        assert held == out["before"]


# -- (b) asking for one experiment does not load the others' layers ---------

def test_e3_is_pure_phy():
    loaded = _run_probe("E3")["after"]
    assert "repro.experiments.e3_range" in loaded
    assert _under(loaded, "repro.epc", "repro.net", "repro.transport",
                  "repro.core", "repro.coordination",
                  "repro.runner.worker") == []


def test_e5_loads_no_dataplane_core_or_chaos_layer():
    loaded = _run_probe("E5")["after"]
    assert "repro.enodeb.cell" in loaded
    assert _under(loaded, "repro.transport", "repro.core", "repro.faults",
                  "repro.invariants") == []


def test_an_unarmed_storm_loads_no_invariants_module():
    # what is audited is decided in the constructors, behind one
    # ``sim.checker is not None``: neither the chaos experiments nor the
    # kernel import the package
    for exp_id in ("E17", "E18", "E19"):
        assert _under(_run_probe(exp_id)["after"], "repro.invariants") == []
    assert _under(_run_probe("E3")["after"], "repro.invariants") == []


def test_derive_seed_loads_runner_seeds_only():
    loaded = _probe("""
from repro.runner import derive_seed
assert derive_seed(2026, "radio_dense") == derive_seed(2026, "radio_dense")
print(json.dumps(mods()))
""")
    assert loaded == ["repro", "repro._lazy", "repro.runner",
                      "repro.runner.seeds"]


def test_only_a_profiled_run_loads_the_profiler():
    loaded = _probe("""
import repro.simcore.simulator
from repro.telemetry.hub import HUB
PROFILER = ("cProfile", "pstats", "_lsprof")
before = [m for m in PROFILER if m in sys.modules]
HUB.start_run(profile=True)
HUB.finish_run()
print(json.dumps([before, [m for m in PROFILER if m in sys.modules]]))
""")
    before, after = loaded
    assert before == [] and "cProfile" in after


# -- (a), (c), (d) the CLI ---------------------------------------------------

def _experiment_modules(loaded):
    return sorted(m.rsplit(".", 1)[1] for m in loaded
                  if m.startswith("repro.experiments."))


def test_importing_the_cli_loads_no_experiment_and_no_network_layer():
    loaded = _probe("""
import repro.__main__
print(json.dumps(mods()))
""")
    assert "repro.experiments" in loaded
    assert _experiment_modules(loaded) == []
    assert _under(loaded, "repro.transport", "repro.core", "repro.epc") == []


_CLI_SUITE = ("T1", "E3", "E12", "E16")

_CLI_PROBE = """
import contextlib, io
import repro.__main__ as cli
marks = {}
"""


def test_cli_resolves_exactly_the_requested_ids_before_running():
    out = _probe(_CLI_PROBE + f"""
run_experiment = cli.run_experiment
def marking_run_experiment(*args, **kwargs):
    marks.setdefault("resolved", mods())    # first call: ids just resolved
    return run_experiment(*args, **kwargs)
cli.run_experiment = marking_run_experiment
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(list({_CLI_SUITE!r}))
print(json.dumps({{"code": code, "resolved": marks["resolved"],
                  "after": mods()}}))
""")
    assert out["code"] == 0
    assert out["after"] == out["resolved"]
    assert _experiment_modules(out["resolved"]) == [
        "e12_deployment_cost", "e16_resilience", "e3_range",
        "t1_design_space"]


def _jobs_probe(flags):
    """``--jobs 2`` over the suite: what every worker held, start and end."""
    out = _probe(_CLI_PROBE + f"""
parallel_map, run_captured = cli.parallel_map, cli._run_captured
def reporting_task(task):
    at_start = mods()
    text = run_captured(task)
    return text + "\\0" + json.dumps([at_start, mods()])
def marking_map(fn, tasks, **kwargs):
    marks["forking"] = mods()
    texts = parallel_map(reporting_task, tasks, **kwargs)
    marks.setdefault("workers", []).extend(
        json.loads(text.split("\\0")[1]) for text in texts)
    return [text.split("\\0")[0] for text in texts]
cli.parallel_map = marking_map
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(list({_CLI_SUITE!r}) + ["--jobs", "2"] + {flags!r})
print(json.dumps(dict(marks, code=code, after=mods())))
""")
    assert out["code"] == 0
    assert len(out["workers"]) == len(_CLI_SUITE)
    assert out["after"] == out["forking"]
    for at_start, at_end in out["workers"]:
        assert at_start == out["forking"]
        assert at_end == out["forking"]
    return out["forking"]


def test_jobs_workers_import_nothing_after_the_fork():
    assert _under(_jobs_probe([]), "repro.invariants") == []


def test_armed_jobs_workers_import_nothing_after_the_fork():
    # --invariants imports the package at the top of main(): every
    # forked child is born holding it
    assert "repro.invariants.arming" in _jobs_probe(["--invariants"])


def test_invariants_flag_imports_the_package_before_anything_runs():
    out = _probe(_CLI_PROBE + """
run_experiment = cli.run_experiment
def marking_run_experiment(*args, **kwargs):
    marks.setdefault("resolved", mods())
    return run_experiment(*args, **kwargs)
cli.run_experiment = marking_run_experiment
with contextlib.redirect_stdout(io.StringIO()):
    unarmed = cli.main(["E17", "--exp-arg", "intensities=(1,)"])
    marks["unarmed"] = mods()
    marks.pop("resolved")
    armed = cli.main(["E17", "--exp-arg", "intensities=(1,)",
                      "--invariants"])
print(json.dumps(dict(marks, codes=[unarmed, armed], after=mods())))
""")
    assert out["codes"] == [0, 0]
    assert _under(out["unarmed"], "repro.invariants") == []
    assert "repro.invariants.arming" in out["resolved"]
    assert out["after"] == out["resolved"]      # run() imported nothing


def test_unknown_id_is_rejected_without_importing_an_experiment():
    out = _probe("""
import contextlib, io
import repro.__main__ as cli
with contextlib.redirect_stderr(io.StringIO()) as err:
    code = cli.main(["E3", "E99"])
print(json.dumps({"code": code, "err": err.getvalue(), "mods": mods()}))
""")
    assert out["code"] == 2
    assert "E99" in out["err"]
    assert _experiment_modules(out["mods"]) == []


# -- the lazy tables themselves ----------------------------------------------

def _packages():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            yield import_module(info.name)


@pytest.mark.parametrize("package", list(_packages()),
                         ids=lambda package: package.__name__)
def test_every_exported_name_resolves_and_is_listed(package):
    listed = dir(package)
    for name in package.__all__:
        value = getattr(package, name)
        assert name in listed
        # a re-exported class or function is its defining submodule's own
        if inspect.isclass(value) or inspect.isfunction(value):
            assert getattr(import_module(value.__module__), name) is value
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name


def test_registry_membership_imports_nothing():
    out = _probe("""
from repro.experiments import ALL_EXPERIMENTS
facts = ["E3" in ALL_EXPERIMENTS, "E99" in ALL_EXPERIMENTS,
         len(ALL_EXPERIMENTS), list(ALL_EXPERIMENTS)[:2]]
print(json.dumps({"facts": facts, "mods": mods()}))
""")
    assert out["facts"] == [True, False, 19, ["T1", "F1"]]
    assert out["mods"] == ["repro", "repro._lazy", "repro.experiments"]


def test_registry_is_read_only():
    from repro.experiments import ALL_EXPERIMENTS
    with pytest.raises(TypeError):
        ALL_EXPERIMENTS["E20"] = repro
    with pytest.raises(KeyError):
        ALL_EXPERIMENTS["E99"]


def test_lazy_reexports_pickle_by_their_defining_module(tmp_path):
    from repro.geo import Point
    from repro.metrics import ResultTable
    from repro.phy import Radio
    from repro.runner import TaskFailure

    assert Radio.__module__ == "repro.phy.linkbudget"
    assert ResultTable.__module__ == "repro.metrics.tables"
    assert TaskFailure.__module__ == "repro.runner.worker"
    table = ResultTable("t", ["a", "b"])
    table.add_row(a=1, b=2.5)
    failure = TaskFailure(label="exp:E3", slot=1, attempt=2, kind="crash",
                          detail="boom", elapsed_s=0.5)
    path = tmp_path / "objects.pickle"
    path.write_bytes(pickle.dumps(
        (Radio(Point(1.0, 2.0), tx_power_dbm=23.0), table, failure)))
    out = _probe(f"""
import pickle
with open({str(path)!r}, "rb") as handle:
    radio, table, failure = pickle.load(handle)
print(json.dumps({{"x": radio.position.x, "tx": radio.tx_power_dbm,
                  "table": table.render(), "label": failure.label,
                  "mods": mods()}}))
""")
    assert (out["x"], out["tx"], out["label"]) == (1.0, 23.0, "exp:E3")
    assert out["table"] == table.render()
    # loaded by reference to the defining submodules — not the world
    assert _under(out["mods"], "repro.core", "repro.epc",
                  "repro.experiments") == []
