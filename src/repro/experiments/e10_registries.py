"""E10 — §4.3: the three registry designs, measured.

"The dLTE architecture does not require a particular license paradigm,
as long as the registry is open and accurately reports which access
points operate in each region."

Three designs (SAS, federated, blockchain) under the same join/discover
workload, plus failure injection halfway through. Expected shape: SAS
fastest but fully dark when down; federated nearly as fast with only
regional darkness; blockchain orders-of-magnitude slower to *join* but
instant to read and impossible to take down.
"""

from __future__ import annotations

from typing import Dict, List

from repro.geo.placement import uniform_disk_placement
from repro.metrics.stats import summarize
from repro.metrics.tables import ResultTable
from repro.phy.bands import get_band
from repro.simcore.simulator import Simulator
from repro.spectrum.blockchain import BlockchainRegistry
from repro.spectrum.federated import FederatedRegistry
from repro.spectrum.grants import ApRecord
from repro.spectrum.sas import SasRegistry

import numpy as np


def _records(n_aps: int, seed: int) -> List[ApRecord]:
    rng = np.random.default_rng(seed)
    band = get_band("lte5")
    positions = uniform_disk_placement(rng, n_aps, 30_000.0)
    return [ApRecord(f"ap{i}", pos, band, 58.0)
            for i, pos in enumerate(positions)]


def _measure(registry_name: str, make_registry, n_aps: int,
             seed: int) -> Dict[str, float]:
    sim = Simulator(seed)
    registry = make_registry(sim)
    records = _records(n_aps, seed)
    join_latency: Dict[str, float] = {}
    join_requested: Dict[str, float] = {}

    def join(record: ApRecord) -> None:
        join_requested[record.ap_id] = sim.now
        registry.request_grant(
            record,
            lambda grant, ap=record.ap_id: (
                join_latency.__setitem__(ap, sim.now - join_requested[ap])
                if grant is not None else None))

    # APs join over the first 10 s
    for i, record in enumerate(records):
        sim.schedule(10.0 * i / n_aps, join, record)
    sim.run(until=600.0)

    # discovery latency from a sample of joined APs
    discover_latency: List[float] = []
    sample = [r.ap_id for r in records if r.ap_id in join_latency][:10]
    for ap_id in sample:
        t0 = sim.now
        registry.discover_neighbors(
            ap_id, lambda lst, t=t0: discover_latency.append(sim.now - t))
        sim.run(until=sim.now + 5.0)

    joins = list(join_latency.values())
    return {
        "join_mean_s": (sum(joins) / len(joins)) if joins else float("nan"),
        "join_p95_s": (summarize(joins)["p95"] if joins else float("nan")),
        "joined": float(len(joins)),
        "discover_mean_ms": (1e3 * sum(discover_latency)
                             / len(discover_latency)
                             if discover_latency else float("nan")),
    }


def run(n_aps: int = 40, seed: int = 6) -> ResultTable:
    """Join and discovery latency per registry design."""
    table = ResultTable(
        f"E10: registry designs ({n_aps} APs joining)",
        ["registry", "join_mean_s", "join_p95_s", "joined",
         "discover_mean_ms"])
    designs = [
        ("SAS (centralized)", lambda sim: SasRegistry(sim)),
        ("federated (DNS-like)", lambda sim: FederatedRegistry(sim)),
        ("blockchain (PoW)", lambda sim: BlockchainRegistry(
            sim, block_interval_s=10.0, confirmations=2)),
    ]
    for name, factory in designs:
        stats = _measure(name, factory, n_aps, seed)
        table.add_row(registry=name, join_mean_s=stats["join_mean_s"],
                      join_p95_s=stats["join_p95_s"],
                      joined=stats["joined"],
                      discover_mean_ms=stats["discover_mean_ms"])
    return table


def service_continuity_under_outage(n_aps: int = 10, lease_s: float = 60.0,
                                    outage_at_s: float = 100.0,
                                    horizon_s: float = 400.0,
                                    seed: int = 8) -> ResultTable:
    """CBRS leases make a SAS outage silence *running* APs.

    CBRS grants are heartbeat-renewed leases: an AP that cannot reach
    the SAS must stop transmitting when its lease lapses. A permanent
    outage therefore takes the whole federation off the air within one
    lease, while lease-free designs (perpetual grants) keep running —
    the availability story of E10 extended from the control plane into
    the *service* plane.
    """
    table = ResultTable(
        f"E10: service continuity through a registry outage at "
        f"t={outage_at_s:g}s (lease {lease_s:g}s)",
        ["registry", "aps_running_before", "aps_running_after",
         "mean_time_to_silence_s"])

    # -- SAS with CBRS leases ---------------------------------------------------
    sim = Simulator(seed)
    sas = SasRegistry(sim, lease_s=lease_s)
    grants: Dict[str, object] = {}
    silenced_at: Dict[str, float] = {}
    records = _records(n_aps, seed)

    def keep_alive(record):
        """Heartbeat every lease/3; go silent when the lease lapses."""
        while True:
            yield sim.timeout(lease_s / 3.0)
            done = sim.event()
            sas.heartbeat(record.ap_id,
                          lambda g, d=done: d.succeed(g))
            renewed = yield done
            if renewed is not None:
                grants[record.ap_id] = renewed
                continue
            # renewal failed: keep transmitting until the current lease
            # lapses, then go dark (the CBRS mandate)
            grant = grants.get(record.ap_id)
            lapse = (grant.expires_at if grant is not None
                     and grant.expires_at is not None else sim.now)
            silenced_at[record.ap_id] = max(lapse, sim.now)
            return

    for record in records:
        def on_grant(g, r=record):
            if g is not None:
                grants[r.ap_id] = g
                sim.process(keep_alive(r))
        sas.request_grant(record, on_grant)
    sim.schedule(outage_at_s, sas.fail)
    sim.run(until=horizon_s)
    running_after = n_aps - len(silenced_at)
    mean_silence = (sum(t - outage_at_s for t in silenced_at.values())
                    / len(silenced_at)) if silenced_at else float("nan")
    table.add_row(registry="SAS (CBRS leases)",
                  aps_running_before=len(grants),
                  aps_running_after=running_after,
                  mean_time_to_silence_s=mean_silence)

    # -- lease-free designs: grants are perpetual, outage changes nothing --------
    for name, factory, fail in (
            ("federated (perpetual grants)",
             lambda s: FederatedRegistry(s),
             lambda reg: reg.fail_region((0, 0))),
            ("blockchain (perpetual grants)",
             lambda s: BlockchainRegistry(s, block_interval_s=5.0,
                                          confirmations=1),
             lambda reg: None)):
        sim2 = Simulator(seed)
        registry = factory(sim2)
        joined = {"n": 0}
        for record in _records(n_aps, seed):
            registry.request_grant(
                record, lambda g: joined.__setitem__(
                    "n", joined["n"] + (1 if g else 0)))
        sim2.schedule(outage_at_s, fail, registry)
        sim2.run(until=horizon_s)
        table.add_row(registry=name, aps_running_before=joined["n"],
                      aps_running_after=joined["n"],
                      mean_time_to_silence_s=float("nan"))
    return table


def availability_under_failure(n_aps: int = 30, seed: int = 6
                               ) -> ResultTable:
    """Inject failure mid-join; count how many joins still succeed.

    SAS: total outage. Federated: only the failed region refuses.
    Blockchain: nothing to fail (mining is distributed).
    """
    table = ResultTable(
        "E10: join success with a failure injected at t=5s",
        ["registry", "joined", "refused_or_lost", "availability_pct"])

    def run_design(name, factory, fail):
        sim = Simulator(seed)
        registry = factory(sim)
        records = _records(n_aps, seed)
        outcomes: List[bool] = []
        for i, record in enumerate(records):
            sim.schedule(10.0 * i / n_aps,
                         lambda r=record: registry.request_grant(
                             r, lambda g: outcomes.append(g is not None)))
        sim.schedule(5.0, fail, registry)
        sim.run(until=600.0)
        joined = sum(outcomes)
        table.add_row(registry=name, joined=joined,
                      refused_or_lost=n_aps - joined,
                      availability_pct=100.0 * joined / n_aps)

    run_design("SAS (centralized)", lambda sim: SasRegistry(sim),
               lambda reg: reg.fail())
    run_design("federated (DNS-like)", lambda sim: FederatedRegistry(sim),
               lambda reg: reg.fail_region((0, 0)))
    run_design("blockchain (PoW)",
               lambda sim: BlockchainRegistry(sim, block_interval_s=10.0,
                                              confirmations=2),
               lambda reg: None)  # nothing to fail
    return table
