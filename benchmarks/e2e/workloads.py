"""The seven benchmark workloads: what each child process runs.

Every workload is a fixed amount of simulated work (closed loop, batch):
``prepare`` builds the inputs from the seed (this is the tail of
``setup_s``), ``run`` does the work and returns the rendered table text
whose SHA-256 the harness compares between repeats, traced/untraced,
fork/serial and — at the default seed — ``golden.json``.

Sizes are the issue's configurations with simulated horizons shortened
so that one child is ~1.5 s on the 2-core reference box (the driver's
time cap allows ~20 s per run of 1 warm-up + 5 timed children, and the
box is at times 30% slower than that); the
``smoke`` arguments only exercise the harness and are not comparable.
Importing this module imports nothing from ``repro`` — the child times
that import as part of ``setup_s``.
"""

from __future__ import annotations

import contextlib
import io
import re
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

#: Root seed of ``--all`` when none is given; ``golden.json`` is keyed to it.
DEFAULT_SEED = 2026

_DONE_LINE = re.compile(r"^\[\w+ done in [0-9.]+ s\]$", re.MULTILINE)


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``sim_work_per_s`` divides a constant number of work units by
    ``wall_s``: ``work_formula(args)`` where the arguments fix it, else
    the count recorded in ``golden.json`` at the default seed.
    ``work_count`` names the traced run's counter (and a factor) that
    must reproduce that constant.
    ``serial`` holds argument overrides for the single-process variant
    (``city_fork2`` only): the traced run and the cross-mode digest use it.
    """

    name: str
    why: str
    work_unit: str
    full: Dict[str, Any]
    smoke: Dict[str, Any]
    prepare: Callable[[Dict[str, Any], int], Dict[str, Any]]
    run: Callable[[Dict[str, Any]], Tuple[str, Dict[str, Any]]]
    work_formula: Optional[Callable[[Dict[str, Any]], float]] = None
    work_count: Optional[Tuple[str, int]] = None
    serial: Optional[Dict[str, Any]] = None
    seeded: bool = True

    def args(self, smoke: bool) -> Dict[str, Any]:
        return dict(self.smoke if smoke else self.full)


def _render(result: Any) -> str:
    if isinstance(result, (tuple, list)):
        return "\n\n".join(_render(item) for item in result)
    return result.render() if hasattr(result, "render") else str(result)


def _experiment(exp_id: str) -> Dict[str, Callable]:
    """``prepare``/``run`` for ``ALL_EXPERIMENTS[exp_id].run(**args, seed=)``."""

    def prepare(args: Dict[str, Any], seed: int) -> Dict[str, Any]:
        from repro.experiments import ALL_EXPERIMENTS
        return {"fn": ALL_EXPERIMENTS[exp_id].run,
                "kwargs": dict(args, seed=seed)}

    def run(inputs: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
        return _render(inputs["fn"](**inputs["kwargs"])), {}

    return {"prepare": prepare, "run": run}


# -- radio_mobile: bench-owned driver over the public Cell API --------------

def _mobile_prepare(args: Dict[str, Any], seed: int) -> Dict[str, Any]:
    import numpy as np
    import repro.enodeb.cell  # noqa: F401  (imports are part of setup_s)
    import repro.metrics.stats  # noqa: F401
    import repro.metrics.tables  # noqa: F401
    import repro.phy.bands  # noqa: F401
    import repro.phy.propagation  # noqa: F401

    rng = np.random.default_rng(seed)
    n = args["n_cells"] * args["ue_per_cell"]
    strip = (args["n_cells"] - 1) * args["spacing_m"]
    speed = rng.uniform(1.0, 30.0, n)       # walking to highway, m/s
    heading = rng.uniform(0.0, 2.0 * np.pi, n)
    return {
        "args": args,
        "x": rng.uniform(-200.0, strip + 200.0, n).tolist(),
        "y": rng.uniform(50.0, 400.0, n).tolist(),
        # metres per 1 ms TTI
        "dx": (speed * np.cos(heading) * 1e-3).tolist(),
        "dy": (speed * np.sin(heading) * 1e-3).tolist(),
    }


def _mobile_run(inputs: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """Two mutually interfering PF cells, every UE moving every TTI.

    Each TTI writes a new ``radio.position`` on every UE, so every arena
    row is dirty and the PHY refresh (link budget, exact path loss) runs
    in full — the opposite regime to ``radio_dense``'s static UEs.
    """
    from repro.enodeb.cell import Cell, UeRadioContext
    from repro.geo.points import Point
    from repro.metrics.stats import jain_fairness
    from repro.metrics.tables import ResultTable
    from repro.phy.bands import get_band
    from repro.phy.linkbudget import LinkBudget, Radio
    from repro.phy.propagation import model_for_frequency

    args = inputs["args"]
    n_cells, per_cell, ttis = (args["n_cells"], args["ue_per_cell"],
                               args["ttis"])
    band = get_band("lte5")
    budget = LinkBudget(model_for_frequency(band.dl_mhz), band.dl_mhz,
                        band.bandwidth_hz)
    cells = [Cell(f"cell{i}", band, Point(i * args["spacing_m"], 0), budget)
             for i in range(n_cells)]
    for cell in cells:
        cell.interferers = [c for c in cells if c is not cell]
    xs, ys = list(inputs["x"]), list(inputs["y"])
    dxs, dys = inputs["dx"], inputs["dy"]
    radios = []
    for k in range(n_cells * per_cell):
        radio = Radio(Point(xs[k], ys[k]), tx_power_dbm=23, height_m=1.5)
        radios.append(radio)
        cells[k % n_cells].add_ue(UeRadioContext(ue_id=f"u{k}", radio=radio))

    downlink = [[] for _ in cells]
    uplink = [[] for _ in cells]
    dl_call_s = []
    clock = time.perf_counter
    for _ in range(ttis):
        for k, radio in enumerate(radios):
            xs[k] += dxs[k]
            ys[k] += dys[k]
            radio.position = Point(xs[k], ys[k])
        for i, cell in enumerate(cells):
            t0 = clock()
            downlink[i].append(cell.schedule_tti())
            dl_call_s.append(clock() - t0)
            uplink[i].append(cell.schedule_uplink_tti())

    table = ResultTable(
        f"radio_mobile: {n_cells} PF cells x {per_cell} moving UEs, "
        f"{ttis} TTIs",
        ["cell", "dl_mbps", "dl_jain", "dl_served", "ul_mbps", "ul_jain",
         "ul_served"])
    for i, cell in enumerate(cells):
        dl = cell.throughput_bps(downlink[i])
        ul = cell.throughput_bps(uplink[i])
        table.add_row(cell=cell.name,
                      dl_mbps=sum(dl.values()) / 1e6,
                      dl_jain=jain_fairness(list(dl.values())),
                      dl_served=len(dl),
                      ul_mbps=sum(ul.values()) / 1e6,
                      ul_jain=jain_fairness(list(ul.values())),
                      ul_served=len(ul))
    dl_call_s.sort()
    n = len(dl_call_s)
    return table.render(), {
        "enodeb.tti_p50_us": dl_call_s[n // 2] * 1e6,
        "enodeb.tti_p99_us": dl_call_s[min(n - 1, (n * 99) // 100)] * 1e6,
        "enodeb.tti_samples": n,
    }


# -- paper_suite: what a user types ------------------------------------------

def _suite_prepare(args: Dict[str, Any], seed: int) -> Dict[str, Any]:
    from repro.__main__ import main
    return {"main": main, "ids": list(args["ids"])}


def _suite_run(inputs: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = inputs["main"](inputs["ids"])
    if code != 0:
        raise RuntimeError(f"python -m repro exited {code}")
    # the CLI prints host wall time per experiment; everything else is
    # the published tables and must be byte-identical
    return _DONE_LINE.sub("[done]", out.getvalue()), {}


def _e5_ue_ttis(args: Dict[str, Any]) -> int:
    # 4 LTE arms of E5's 300 TTIs each; asymmetric load adds ue_per_ap
    # hot-spot UEs. Every traced run checks this against mac.ue_ttis.
    return 4 * 300 * (args["n_aps"] + 1) * args["ue_per_ap"]


_SUITE_IDS = ("T1", "F1", "E3", "E4", "E9", "E10", "E11", "E12", "E13", "E14",
              "E15", "E16", "E19")

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "radio_dense",
        "E5.run(n_aps=2, ue_per_ap=64): static UEs, no event loop - batch "
        "TTI engine with a hot PHY cache; telemetry and mac dominate, "
        "net/transport/epc idle",
        "UE*TTI",
        full={"n_aps": 2, "ue_per_ap": 64},
        smoke={"n_aps": 2, "ue_per_ap": 8},
        **_experiment("E5"),
        work_formula=_e5_ue_ttis, work_count=("mac.ue_ttis", 1)),
    Workload(
        "radio_mobile",
        "bench driver: 2 interfering PF cells x 128 UEs, 400 DL+UL TTIs, "
        "every UE moved each TTI - same mac/enodeb code with every arena "
        "row dirty, so phy is on the path",
        "UE*TTI",
        full={"n_cells": 2, "ue_per_cell": 128, "ttis": 400,
              "spacing_m": 500.0},
        smoke={"n_cells": 2, "ue_per_cell": 8, "ttis": 40,
               "spacing_m": 500.0},
        prepare=_mobile_prepare, run=_mobile_run,
        work_formula=lambda a: 2 * a["ttis"] * a["n_cells"] * a["ue_per_cell"],
        work_count=("mac.ue_ttis", 2)),  # uplink TTIs observe no SINR
    Workload(
        "dataplane_overload",
        "E18.run(loads=(4.0,), measure_s=5.0): managed links (CoDel+ECN, "
        "byte ledger), router, TCP/QUIC under loss, QoS policer; mac/phy "
        "idle",
        "link-delivered packets",
        full={"loads": (4.0,), "measure_s": 5.0},
        smoke={"loads": (4.0,), "ue_per_ap": 2, "settle_s": 2.0,
               "warmup_s": 0.5, "measure_s": 1.0},
        **_experiment("E18"),
        work_count=("net.packets_delivered", 1)),
    Workload(
        "dataplane_mobility",
        "E6.run(dwells_s=[1.2,0.8]): the same net/simcore/transport layers "
        "on unmanaged drop-tail links with reconnect churn and RTO timers",
        "link-delivered packets",
        full={"dwells_s": [1.2, 0.8]},
        smoke={"dwells_s": [0.5]},
        **_experiment("E6"),
        work_count=("net.packets_delivered", 1)),
    Workload(
        "control_storm",
        "E17.run(intensities=(1,8,32)): attach storm on both cores - "
        "control agents, NAS back-off, shedding, P2 SLA quantiles; no TTI "
        "engine, almost no links",
        "NAS attach attempts",
        full={"intensities": (1, 8, 32)},
        smoke={"intensities": (1, 4), "horizon_s": 6.0},
        **_experiment("E17"),
        work_count=("epc.attach_attempts", 1)),
    Workload(
        "city_fork2",
        "E19.run(200 cells x (8+492) UEs, shards=2, mode=fork, "
        "horizon_s=4): the only workload with fork, pickle and window "
        "barriers on the blocking path",
        "simulated UE*s",
        full={"n_cells": 200, "ue_per_cell": 8, "background_per_cell": 492,
              "shards": 2, "mode": "fork", "horizon_s": 4.0},
        smoke={"n_cells": 12, "ue_per_cell": 2, "background_per_cell": 20,
               "shards": 2, "mode": "fork", "horizon_s": 3.0},
        **_experiment("E19"),
        work_formula=lambda a: (a["n_cells"] * a["horizon_s"]
                                * (a["ue_per_cell"]
                                   + a["background_per_cell"])),
        serial={"mode": "serial"}),
    Workload(
        "paper_suite",
        "python -m repro T1 F1 E3 E4 E9 E10-E16 E19 in-process at "
        "published defaults: CLI, table rendering and the layers no other "
        "workload isolates; largest setup_s share",
        "experiments",
        full={"ids": _SUITE_IDS},
        smoke={"ids": ("T1", "E3", "E12", "E16")},
        prepare=_suite_prepare, run=_suite_run,
        work_formula=lambda a: len(a["ids"]),
        seeded=False),
)}
