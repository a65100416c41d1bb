"""E19 city experiment: the architecture contrast and partition logic.

Shard-count and mode invariance of the table — the sharded
engine's headline determinism claim — is a cell of the determinism
matrix (``tests/test_determinism.py``).
"""

import collections
import inspect

import pytest

from repro.deploy.partition import ShardPlan
from repro.enodeb.cell import Cell
from repro.experiments import e19_city
from repro.geo.partition import stripe_partition
from repro.geo.points import Point
from repro.invariants import armed
from repro.phy.bands import get_band
from repro.phy.linkbudget import LinkBudget
from repro.phy.propagation import model_for_frequency
from repro.telemetry.hub import HUB
from repro.workloads.fluid import FluidCellLoad
from repro.workloads.topology import CityGrid

# one small city, reused by every run in this module
_CFG = dict(n_cells=6, ue_per_cell=2, background_per_cell=18,
            horizon_s=4.0, seed=7)


def test_e19_invariants_hold_with_traffic_in_flight_at_horizon():
    # a horizon that cuts mid-storm leaves cross-shard packets pending;
    # the conservation audit must account for withheld records, and the
    # truncated run must still be shard-count invariant
    short = dict(_CFG, horizon_s=1.05)
    with armed():
        a = e19_city.run(shards=2, **short).render()
        b = e19_city.run(shards=3, **short).render()
    assert a == b


def test_e19_architecture_contrast():
    with armed():
        table = e19_city.run(shards=2, **_CFG)
    rows = {row["architecture"]: row for row in table.rows}
    cent = rows["centralized EPC"]
    dlte = rows["dLTE stubs"]
    assert cent["failures"] == dlte["failures"] == 0
    assert cent["attached"] == dlte["attached"] == 12
    # local breakout: attach never rides the WAN, and does better for it
    assert dlte["wan_ctl_mb"] == 0.0
    assert dlte["mean_attach_ms"] <= cent["mean_attach_ms"]
    # the fluid tier is independent of the control-plane architecture
    assert dlte["bg_served_mbit"] == cent["bg_served_mbit"]


def test_an_unknown_mode_is_refused_before_anything_is_built(monkeypatch):
    def build_a_city(*args, **kwargs):
        raise AssertionError("E19 laid out a city for an unknown mode")

    monkeypatch.setattr(e19_city, "CityGrid", build_a_city)
    with pytest.raises(ValueError, match="'bogus'"):
        e19_city.run(mode="bogus", **_CFG)


# -- the radio pass ---------------------------------------------------------

#: ``run()``'s keyword arguments for ``_CFG``: what a shard spec carries
_PARAMS = dict({name: arg.default for name, arg
                in inspect.signature(e19_city.run).parameters.items()},
               **_CFG)


def _spec(plan, shard, **extra):
    return {"shard": shard, "n_shards": plan.n_shards,
            "assignment": plan.assignment, "params": _PARAMS, **extra}


def test_radio_pass_matches_the_fluid_tier_embedded_in_an_arm():
    # the old embedding: every cell's fluid load on its arm's simulator,
    # interleaved with the attach storm and the data trains
    p = _PARAMS
    positions = CityGrid(n_cells=p["n_cells"],
                         spacing_m=p["cell_spacing_m"]).cell_positions()
    plan = ShardPlan.stripes(positions, 2)
    band = get_band("lte5")
    budget = LinkBudget(model_for_frequency(band.dl_mhz), band.dl_mhz,
                        band.bandwidth_hz)
    for shard in range(plan.n_shards):
        arm = e19_city._build_shard(_spec(plan, shard, arch="dLTE stubs"))
        embedded = {}
        sites = [i for i, home in enumerate(plan.assignment) if home == shard]
        for i in sites:
            fluid = FluidCellLoad(
                arm.sim, Cell(f"cell{i}", band, positions[i], budget),
                p["background_per_cell"], p["demand_bps_per_ue"],
                epoch_s=p["epoch_s"], jitter=p["jitter"])
            fluid.start(p["horizon_s"])
            embedded[i] = fluid
        arm.advance(p["horizon_s"], final=True)
        assert arm.sim.events_executed > sum(f.epochs
                                             for f in embedded.values())

        radio = e19_city._build_radio(_spec(plan, shard))
        radio.advance(p["horizon_s"], final=True)
        harvest = radio.harvest()
        assert [entry[0] for entry in harvest] == sites
        for i, offered, served, epochs in harvest:
            fluid = embedded[i]
            assert epochs > 0
            assert (offered, served, epochs) == (
                fluid.offered_bits, fluid.served_bits, fluid.epochs)


def test_each_cell_radio_is_simulated_once(monkeypatch):
    loads = {}
    epoch = FluidCellLoad._epoch

    def counted(self):
        loads.setdefault(id(self), [self, 0])[1] += 1
        epoch(self)

    monkeypatch.setattr(FluidCellLoad, "_epoch", counted)
    HUB.start_run()
    try:
        e19_city.run(shards=2, **_CFG)
    except BaseException:
        HUB.abort_run()
        raise
    ttis = collections.Counter()
    for row in HUB.finish_run().metrics_rows():
        if row["name"] == "mac.cell.ttis":
            ttis[row["labels"]["cell"]] += row["value"]
    n_cells = _CFG["n_cells"]
    # one fluid load per cell, not one per architecture arm
    assert sorted(fluid.cell.name for fluid, _ in loads.values()) == \
        sorted(f"cell{i}" for i in range(n_cells))
    (epochs,) = {fluid.epochs for fluid, _ in loads.values()}
    assert 0 < epochs <= _PARAMS["horizon_s"] / _PARAMS["epoch_s"] + 1
    assert sum(calls for _, calls in loads.values()) == n_cells * epochs
    # one representative TTI per epoch, and no other TTI on the cell
    assert ttis == {f"cell{i}": epochs for i in range(n_cells)}


# -- partitioning ----------------------------------------------------------


def test_stripe_partition_is_contiguous_and_balanced():
    positions = [Point(float(x), 0.0) for x in (5, 1, 3, 0, 4, 2, 6)]
    assignment = stripe_partition(positions, 3)
    # sorted by x: 0,1,2 | 3,4,5 | 6 -> sizes 3,2,2
    assert assignment == [2, 0, 1, 0, 1, 0, 2]
    counts = [assignment.count(s) for s in range(3)]
    assert sorted(counts) == [2, 2, 3]


def test_stripe_partition_validations():
    with pytest.raises(ValueError):
        stripe_partition([Point(0.0, 0.0)], 0)
    with pytest.raises(ValueError):
        stripe_partition([], 2)


def test_shard_plan_accessors():
    positions = [Point(float(x), 0.0) for x in range(5)]
    plan = ShardPlan.stripes(positions, 2)
    assert plan.n_shards == 2
    assert plan.counts == [3, 2]
    assert plan.assignment == (0, 0, 0, 1, 1)


def test_shard_plan_rejects_bad_assignment():
    with pytest.raises(ValueError):
        ShardPlan(2, (0, 2))  # shard index out of range
