"""Micro-benchmarks: the hot paths of the simulation substrate.

Unlike the experiment benches (run-once macro results), these measure
raw component throughput with pytest-benchmark's normal multi-round
statistics — regressions here slow every experiment above.
"""

import numpy as np
import pytest

from repro.enodeb.cell import Cell, UeRadioContext
from repro.geo import Point
from repro.mac.csma import CsmaNode, CsmaSimulation
from repro.mac.schedulers import ProportionalFairScheduler, SchedulableUser
from repro.metrics.stats import summarize
from repro.phy import LinkBudget, OkumuraHata, Radio, get_band
from repro.phy.propagation import model_for_frequency
from repro.simcore import Simulator
from repro.telemetry import MetricsRegistry

# repo root on sys.path: run as ``python -m pytest benchmarks/...`` from it
from tests.reference import scalar_tti


def test_kernel_event_throughput(benchmark):
    """Schedule+dispatch 10k timer events."""

    def run():
        sim = Simulator(0)
        for i in range(10_000):
            sim.schedule(i * 1e-4, lambda: None)
        sim.run()
        return sim.events_executed

    assert benchmark(run) == 10_000


def test_process_switch_throughput(benchmark):
    """Two processes ping-ponging through 2k timeouts."""

    def run():
        sim = Simulator(0)
        count = [0]

        def worker():
            for _ in range(1000):
                yield sim.timeout(0.001)
                count[0] += 1

        sim.process(worker())
        sim.process(worker())
        sim.run()
        return count[0]

    assert benchmark(run) == 2000


def test_pf_scheduler_tti_rate(benchmark):
    """One PF TTI over 20 users and 100 PRBs."""
    users = [SchedulableUser(f"u{i}", float(5 + i)) for i in range(20)]
    prbs = frozenset(range(100))
    sched = ProportionalFairScheduler()

    def tti():
        return sched.allocate(users, prbs)

    grants = benchmark(tti)
    assert sum(len(g) for g in grants.values()) == 100


def test_cell_tti_rate(benchmark):
    """A full cell TTI: link budgets + MCS + HARQ for 10 UEs."""
    band = get_band("lte5")
    budget = LinkBudget(OkumuraHata(environment="open"), band.dl_mhz,
                        band.bandwidth_hz)
    cell = Cell("bench", band, Point(0, 0), budget)
    rng = np.random.default_rng(0)
    for i in range(10):
        cell.add_ue(UeRadioContext(
            f"u{i}", Radio(Point(float(rng.uniform(100, 3000)),
                                 float(rng.uniform(-500, 500))),
                           tx_power_dbm=23)))

    delivered = benchmark(cell.schedule_tti)
    assert delivered


def _massed_cell(n_ues: int) -> Cell:
    """One cell, PF downlink, ``n_ues`` randomly placed UEs."""
    band = get_band("lte5")
    budget = LinkBudget(OkumuraHata(environment="open"), band.dl_mhz,
                        band.bandwidth_hz)
    cell = Cell("bench", band, Point(0, 0), budget,
                scheduler=ProportionalFairScheduler())
    rng = np.random.default_rng(42)
    for i in range(n_ues):
        cell.add_ue(UeRadioContext(
            f"u{i:04d}", Radio(Point(float(rng.uniform(100, 4000)),
                                     float(rng.uniform(-2000, 2000))),
                               tx_power_dbm=23)))
    return cell


@pytest.mark.parametrize("n_ues", [64, 256, 1024])
def test_cell_tti_ue_scaling(benchmark, n_ues):
    """UE-count scaling of one steady-state TTI.

    The arena amortizes the PHY into cached arrays where a per-UE walk
    is O(n) Python objects per TTI. Before timing, the first TTI is
    checked against the scalar oracle on a twin cell: byte-identical
    delivered maps at this scale (the contract PERFORMANCE.md
    documents)."""
    cell = _massed_cell(n_ues)
    first = cell.schedule_tti()
    expected = scalar_tti.schedule_tti(_massed_cell(n_ues))
    assert first == expected and list(first) == list(expected)

    delivered = benchmark(cell.schedule_tti)
    assert delivered


def _ring_hearing(n, reach):
    """Node i hears the ``reach`` nodes on either side of it on a ring:
    every node has neighbours it defers to and hidden nodes it cannot
    sense (E8's regime once ``n`` is well above ``2 * reach``)."""
    ids = [f"s{i}" for i in range(n)]
    return {ids[i]: frozenset(ids[(i + d) % n]
                              for d in range(-reach, reach + 1) if d)
            for i in range(n)}


@pytest.mark.parametrize("hears", [
    pytest.param(_ring_hearing(6, 3), id="6-connected"),
    pytest.param(_ring_hearing(24, 4), id="24-partly-hidden"),
])
def test_csma_slot_rate(benchmark, hears):
    """50k CSMA slots: one 6-node contention domain, and 24 nodes that
    each sense 8 of the other 23."""

    def run():
        nodes = [CsmaNode(i, hears=peers) for i, peers in hears.items()]
        sim = CsmaSimulation(nodes, np.random.default_rng(1), frame_slots=50)
        return sim.run(50_000)

    result = benchmark(run)
    assert result.slots == 50_000
    assert result.total_delivered > 0


def test_summarize_ndarray_fast_path(benchmark):
    """summarize() on a 100k-sample ndarray: no copies, one sort."""
    samples = np.random.default_rng(7).exponential(2.0, size=100_000)

    summary = benchmark(summarize, samples)
    assert summary["count"] == 100_000
    assert summary["median"] <= summary["p95"]


def test_path_loss_vectorized_vs_scalar(benchmark):
    """The E3/E4 grid path: one ``path_loss_db_many`` call over a
    4k-point distance grid, bit-identical to the scalar model per
    point."""
    freq = 881.5
    model = model_for_frequency(freq)
    distances = np.linspace(50.0, 30_000.0, 4096)

    losses = benchmark(model.path_loss_db_many, distances, freq)
    scalar = [model.path_loss_db(float(d), freq) for d in distances]
    assert losses.tolist() == scalar


def test_link_budget_cached_snr(benchmark):
    """LinkBudget's distance memo + cached noise floor: repeated SNR
    evaluations of a stationary link collapse to dict hits, and agree
    with a fresh (cold-cache) budget to 1e-9 dB."""
    band = get_band("lte5")
    model = OkumuraHata(environment="open")
    budget = LinkBudget(model, band.dl_mhz, band.bandwidth_hz)
    ap = Radio(Point(0, 0), tx_power_dbm=43, antenna_gain_dbi=15,
               height_m=30.0)
    ues = [Radio(Point(100.0 * (i + 1), 0), tx_power_dbm=23) for i in range(16)]

    def hot_loop():
        total = 0.0
        for _ in range(1000):
            for ue in ues:
                total += budget.snr_db(ap, ue)
        return total

    total = benchmark(hot_loop)
    cold = LinkBudget(model, band.dl_mhz, band.bandwidth_hz)
    expected = 1000 * sum(cold.snr_db(ap, ue) for ue in ues)
    assert abs(total - expected) < 1e-9 * abs(expected)


@pytest.mark.parametrize("mode", ["drop-tail", "codel", "red"])
def test_link_pump_rate(benchmark, mode):
    """10k packets through one link: plain drop-tail vs AQM.

    Every row runs the one admission path; the ``drop-tail`` row has no
    discipline installed, so both AQM hooks are skipped, and it is the
    row every link of F1/E6/E7/E13/E15-E17/E19 pays. Its byte ledger is
    closed (asserted below). The ``codel``/``red`` rows price the
    hooks."""
    from repro.net.aqm import make_aqm
    from repro.net.links import Link
    from repro.net.packet import Packet

    def run():
        sim = Simulator(0)
        link = Link(sim, rate_bps=float("inf"), delay_s=0.0, name="pump")
        aqm = make_aqm(mode)
        if aqm is not None:
            link.set_aqm(aqm)
        link.connect(lambda p: None)
        packet = Packet(src=None, dst=None, size_bytes=1200)
        for i in range(10_000):
            sim.schedule(i * 1e-5, link.send, packet)
        sim.run()
        return link

    link = benchmark(run)
    assert link.delivered == 10_000
    if mode == "drop-tail":
        assert link.offered_bytes == link.delivered_bytes == 10_000 * 1200


def test_metrics_hot_path_rate(benchmark):
    """The per-event telemetry cost: cached counter inc + histogram
    observe, the pattern every instrumented component uses."""
    registry = MetricsRegistry()
    counter = registry.counter("net.link.delivered", link="bench")
    hist = registry.histogram("phy.sinr_db", cell="bench")

    def hot_loop():
        for i in range(10_000):
            counter.inc()
            hist.observe(float(i % 40))
        return counter.value

    assert benchmark(hot_loop) > 0
