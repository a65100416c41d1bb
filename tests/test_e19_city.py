"""E19 city experiment: shard-count invariance and partition logic.

The headline determinism claim of the sharded engine: the E19 table is
a function of the scenario parameters only — shard count and execution
mode (serial/fork) change the schedule, never a digit of the output.
"""

import pytest

from repro.deploy.partition import ShardPlan
from repro.experiments import e19_city
from repro.geo.partition import stripe_partition
from repro.geo.points import Point
from repro.invariants import armed
from repro.telemetry.hub import HUB

# one small city, reused by every invariance test in this module
_CFG = dict(n_cells=6, ue_per_cell=2, background_per_cell=18,
            horizon_s=4.0, seed=7)


def _render(shards, mode="serial", **overrides):
    cfg = dict(_CFG, shards=shards, mode=mode, **overrides)
    return e19_city.run(**cfg).render()


def test_e19_output_is_byte_identical_across_shard_counts():
    reference = _render(shards=1)
    assert _render(shards=2) == reference
    assert _render(shards=4) == reference


def test_e19_fork_matches_serial():
    assert _render(shards=2, mode="fork") == _render(shards=2)


def _metrics_rows(mode):
    HUB.start_run()
    try:
        e19_city.run(**dict(_CFG, shards=2, mode=mode))
    except BaseException:
        HUB.abort_run()
        raise
    # per-simulator rows: the runner's own lifecycle and the ambient
    # registry (one per process, so tagged per worker) are the two
    # families whose shape legitimately follows the execution mode
    return [row for row in HUB.finish_run().metrics_rows()
            if row["sim"] != "runner" and not row["sim"].startswith("shared")]


def test_e19_fork_ships_the_rows_a_serial_run_reads():
    # a shard worker's registry crosses the pipe as a reading: the
    # mirrored link / channel / agent counters arrive materialised and
    # equal to what the in-process shards export, row for row
    rows = _metrics_rows("fork")
    assert rows == _metrics_rows("serial")
    assert any(row["name"] == "net.link.delivered" and row["value"] > 0
               for row in rows)


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
    assert plan.sites_of(0) == [0, 1, 2]
    assert plan.shard_of(4) == 1
    assert plan.imbalance >= 1.0


def test_shard_plan_rejects_bad_assignment():
    with pytest.raises(ValueError):
        ShardPlan(2, (0, 2))  # shard index out of range
