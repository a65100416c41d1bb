"""E5 — §4.3 "Out-of-Band Coordination": the coordination-mode ladder.

N AP sites in one RF contention domain, each with UEs demanding
saturation downlink. Five arms:

* **legacy WiFi** — independent APs contending via CSMA (collisions +
  backoff waste airtime);
* **dLTE uncoordinated** — LTE cells all using the full grid (co-channel
  interference crushes SINR);
* **dLTE fair-sharing** — the default mode: disjoint equal slices;
* **dLTE cooperative** — best-AP assignment + demand-weighted fusion;
* **ICIC reuse-3** — the static reference.

Reported: aggregate goodput and Jain fairness across UEs. The paper's
claim: fair sharing reaches a WiFi-like equilibrium without contention
losses, and cooperation buys more by exploiting load asymmetry.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.coordination.cooperative import CooperativeCluster
from repro.coordination.fair_sharing import compute_weighted_partition
from repro.coordination.icic import reuse_partition
from repro.enodeb.cell import Cell, UeRadioContext
from repro.geo.points import Point
from repro.mac.csma import CsmaNode, CsmaSimulation
from repro.metrics.stats import jain_fairness
from repro.metrics.tables import ResultTable
from repro.phy.bands import get_band
from repro.phy.linkbudget import LinkBudget, Radio
from repro.phy.mcs import wifi_rate_for_snr
from repro.phy.propagation import model_for_frequency

#: overlapping coverage: AP sites a few hundred meters apart, one town
AP_SPACING_M = 500.0
TTIS = 300


def _build_cells(n_aps: int, ue_per_ap: int, seed: int,
                 asymmetric_load: bool) -> Tuple[List[Cell], Dict[str, Radio]]:
    """One genuinely shared contention domain.

    UEs are spread uniformly over the whole strip (many sit at cell
    edges, between APs), then attached to the strongest cell — except in
    the asymmetric case, where the first AP is additionally loaded with
    extra close-in users to create the demand skew cooperative mode
    exploits.
    """
    band = get_band("lte5")
    budget = LinkBudget(model_for_frequency(band.dl_mhz), band.dl_mhz,
                        band.bandwidth_hz)
    rng = np.random.default_rng(seed)
    cells: List[Cell] = [
        Cell(f"cell{i}", band, Point(i * AP_SPACING_M, 0), budget)
        for i in range(n_aps)]
    ue_radios: Dict[str, Radio] = {}

    def attach(ue_id: str, radio: Radio, cell: Cell) -> None:
        ue_radios[ue_id] = radio
        cell.add_ue(UeRadioContext(ue_id=ue_id, radio=radio))

    n_spread = n_aps * ue_per_ap
    strip = (n_aps - 1) * AP_SPACING_M
    for k in range(n_spread):
        x = float(rng.uniform(-200.0, strip + 200.0))
        y = float(rng.uniform(50.0, 400.0))
        radio = Radio(Point(x, y), tx_power_dbm=23, height_m=1.5)
        best = max(cells, key=lambda c: (c.rsrp_to(radio), c.name))
        attach(f"u{best.name}_{k}", radio, best)
    if asymmetric_load:
        for j in range(ue_per_ap):
            radio = Radio(Point(float(rng.uniform(-100, 100)),
                                float(rng.uniform(50, 200))),
                          tx_power_dbm=23, height_m=1.5)
            attach(f"uhot_{j}", radio, cells[0])
    return cells, ue_radios


def _lte_arm(cells: List[Cell], mode: str) -> Dict[str, float]:
    """Run the radio phase under one coordination mode."""
    names = [c.name for c in cells]
    n_prbs = cells[0].grid.n_prbs
    if mode == "none":
        for cell in cells:
            cell.allowed_prbs = cell.grid.all_prbs
            cell.interferers = [c for c in cells if c is not cell]
    elif mode == "fair":
        partition = compute_weighted_partition(
            n_prbs, {n: 1.0 for n in names})
        for cell in cells:
            cell.allowed_prbs = partition[cell.name]
            cell.interferers = []
    elif mode == "reuse3":
        partition = reuse_partition(names, n_prbs, reuse_factor=3)
        for cell in cells:
            cell.allowed_prbs = partition[cell.name]
            cell.interferers = [c for c in cells
                                if c is not cell
                                and partition[c.name] & partition[cell.name]]
    elif mode == "cooperative":
        cluster = CooperativeCluster()
        for cell in cells:
            cluster.join(cell)
        cluster.optimize()
        for cell in cells:
            cell.interferers = []
    else:
        raise ValueError(f"unknown mode {mode!r}")

    results = {c.name: [] for c in cells}
    for _ in range(TTIS):
        for cell in cells:
            results[cell.name].append(cell.schedule_tti())
    throughput: Dict[str, float] = {}
    for cell in cells:
        throughput.update(cell.throughput_bps(results[cell.name]))
    return throughput


def _wifi_arm(n_aps: int, ue_per_ap: int, seed: int,
              asymmetric_load: bool) -> Dict[str, float]:
    """Legacy WiFi: same geometry, all APs in one collision domain."""
    band = get_band("wifi2g4")
    budget = LinkBudget(model_for_frequency(band.dl_mhz), band.dl_mhz,
                        band.bandwidth_hz)
    rng = np.random.default_rng(seed)
    everyone = frozenset(f"ap{i}" for i in range(n_aps))
    nodes = [CsmaNode(f"ap{i}", hears=everyone - {f"ap{i}"})
             for i in range(n_aps)]
    result = CsmaSimulation(nodes, np.random.default_rng(seed),
                            frame_slots=50).run(150_000)
    ap_radios = [Radio(Point(i * AP_SPACING_M, 0), tx_power_dbm=23,
                       antenna_gain_dbi=13, height_m=30)
                 for i in range(n_aps)]
    clients: Dict[int, List[Radio]] = {i: [] for i in range(n_aps)}
    strip = (n_aps - 1) * AP_SPACING_M
    for _k in range(n_aps * ue_per_ap):
        radio = Radio(Point(float(rng.uniform(-200.0, strip + 200.0)),
                            float(rng.uniform(50.0, 400.0))),
                      tx_power_dbm=20)
        best = max(range(n_aps),
                   key=lambda i: budget.rx_power_dbm(ap_radios[i], radio))
        clients[best].append(radio)
    if asymmetric_load:
        for _j in range(ue_per_ap):
            clients[0].append(Radio(
                Point(float(rng.uniform(-100, 100)),
                      float(rng.uniform(50, 200))), tx_power_dbm=20))
    throughput: Dict[str, float] = {}
    for i in range(n_aps):
        if not clients[i]:
            continue
        share = result.delivered[f"ap{i}"] * 50 / result.slots
        for j, ue_radio in enumerate(clients[i]):
            phy = wifi_rate_for_snr(budget.snr_db(ap_radios[i], ue_radio),
                                    band.bandwidth_hz)
            throughput[f"u{i}_{j}"] = phy * share * 0.7 / len(clients[i])
    return throughput


def gbr_protection(n_aps: int = 2, seed: int = 3) -> ResultTable:
    """§4.3 extension: "QoS aware joint flow scheduling between APs".

    A video bearer with a guaranteed bit rate competes with a crowd of
    bulk users. Cooperative mode (which installs the QoS-aware
    scheduler) must hold the guarantee as load grows; a plain PF cell
    lets the video rate dilute; WiFi has no bearer concept at all.
    """
    GBR_BPS = 3e6
    table = ResultTable(
        "E5 extension: a 3 Mbps GBR video bearer under growing load",
        ["bulk_users", "coop_video_mbps", "pf_video_mbps",
         "guarantee_held"])
    for n_bulk in (2, 8, 16, 32):
        rates = {}
        for mode in ("cooperative", "fair"):
            cells, _radios = _build_cells(n_aps, 1, seed,
                                          asymmetric_load=False)
            video = UeRadioContext(
                "video", Radio(Point(100, 120), tx_power_dbm=23),
                gbr_bps=GBR_BPS, priority=1)
            cells[0].add_ue(video)
            rng = np.random.default_rng(seed + n_bulk)
            for b in range(n_bulk):
                cells[0].add_ue(UeRadioContext(
                    f"bulk{b}",
                    Radio(Point(float(rng.uniform(-300, 300)),
                                float(rng.uniform(60, 400))),
                          tx_power_dbm=23)))
            throughput = _lte_arm(cells, mode)
            rates[mode] = throughput.get("video", 0.0)
        table.add_row(bulk_users=n_bulk,
                      coop_video_mbps=rates["cooperative"] / 1e6,
                      pf_video_mbps=rates["fair"] / 1e6,
                      guarantee_held=("yes" if rates["cooperative"]
                                      >= 0.95 * GBR_BPS else "no"))
    return table


def run(n_aps: int = 4, ue_per_ap: int = 4, seed: int = 2,
        asymmetric_load: bool = True) -> ResultTable:
    """Aggregate goodput + fairness per coordination arm."""
    table = ResultTable(
        f"E5: coordination modes ({n_aps} APs, shared domain)",
        ["arm", "aggregate_mbps", "jain_fairness", "min_ue_mbps"])
    arms = [
        ("legacy WiFi (CSMA)",
         _wifi_arm(n_aps, ue_per_ap, seed, asymmetric_load)),
    ]
    for mode, label in (("none", "dLTE uncoordinated"),
                        ("fair", "dLTE fair-sharing"),
                        ("cooperative", "dLTE cooperative"),
                        ("reuse3", "ICIC reuse-3 (static)")):
        cells, _radios = _build_cells(n_aps, ue_per_ap, seed, asymmetric_load)
        arms.append((label, _lte_arm(cells, mode)))
    for label, tput in arms:
        values = list(tput.values())
        table.add_row(arm=label,
                      aggregate_mbps=sum(values) / 1e6,
                      jain_fairness=jain_fairness(values),
                      min_ue_mbps=min(values) / 1e6)
    return table
