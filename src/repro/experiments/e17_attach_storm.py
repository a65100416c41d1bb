"""E17 (extension) — overload: the attach storm, with protection armed.

E7 measures attach *latency* while every queue is unbounded — overload
shows up as patience, never as failure. E17 asks the operational
question instead: when a stadium-scale flash crowd storms the attach
procedure, **who actually gets on the network**, and how gracefully does
each architecture shed what it cannot serve?

Both arms run the full packet-level builds (so chaos scenarios and the
invariant layer compose — a storm *during* a flapping backhaul is one
flag away), with bounded control queues and T3346-style admission
control (:mod:`repro.epc.overload`) on the bottleneck agents:

* **Centralized LTE** — every AttachRequest from every site funnels into
  one serial MME; under storm its admission control refuses the excess
  with ``AttachReject(cause=congestion, backoff_s=T)`` and the crowd
  retries in decaying, jittered waves.
* **dLTE (federated)** — each site's stub absorbs only its own cell's
  share of the storm; the same protection is installed but rarely fires.

Reported per (architecture x storm intensity): attach-success rate,
time-to-attach P50/P99/P99.9 (streaming P² quantiles — demand-to-service
time, including every reject, backoff, and retry), congestion rejects,
total messages shed, and the deepest control queue. The graceful-
degradation claim (§4.1) is the *shape*: stubs sustain at least the
centralized success rate at every intensity, and the gap widens as the
storm grows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.network import (CentralizedLTENetwork, DLTENetwork,
                                iter_control_agents)
from repro.epc.overload import OverloadPolicy
from repro.epc.ue import UeState
from repro.faults import FaultInjector, compose_scenario, prepare_scenario
from repro.metrics.tables import ResultTable
from repro.runner import parallel_map
from repro.workloads.topology import RuralTown
from repro.workloads.traffic import FlashCrowdAttachSource

#: every UE demands the network inside this window (stadium lets out)
STORM_WINDOW_S = 0.5

#: supervised-attach policy for storm UEs: few, fast attempts — a
#: handset gives up long before the eighth try at a dead network
RETRY_KWARGS = dict(max_attempts=4, timeout_s=2.0, base_backoff_s=0.5,
                    max_backoff_s=4.0, jitter_frac=0.5)

#: bounded-queue + admission policy installed on the bottleneck agents
#: (the MME / each stub): Paging, ServiceRequest and context release
#: outrank a flood of fresh AttachRequests, and refused attaches carry
#: a 2 s T3346 backoff
DEFAULT_POLICY = dict(queue_limit=24, admission_limit=16,
                      congestion_backoff_s=2.0)

#: time-to-attach quantiles (P50/P95/P99/P99.9 via streaming P²)
QUANTILES = (0.5, 0.95, 0.99, 0.999)


def _bottleneck_agents(net) -> List:
    """The serial processors an attach storm concentrates on."""
    aps = getattr(net, "aps", None)
    if aps:
        return [aps[ap_id].stub for ap_id in sorted(aps)]
    return [net.epc.mme]


def _settle_dlte(net: DLTENetwork) -> None:
    """License + peer + monitors — the pre-storm control phase."""
    net.license_and_peer()
    for ap in net.aps.values():
        ap.start_peer_monitor(heartbeat_s=1.0)


def _run_cell(task: Tuple) -> Dict[str, float]:
    """One (architecture, intensity) cell; picklable for parallel_map."""
    (arch, intensity, n_aps, ue_per_ap, seed, scenario, chaos_at_s,
     horizon_s) = task
    n_ues = n_aps * ue_per_ap * intensity
    town = RuralTown(radius_m=2500.0, n_ues=n_ues, n_aps=n_aps, seed=seed)
    if arch == "dlte":
        net = DLTENetwork.build(town, seed=seed)
    else:
        net = CentralizedLTENetwork.build(town, seed=seed)
    sim = net.sim
    if scenario:
        prepare_scenario(scenario, net)
    policy = OverloadPolicy(**DEFAULT_POLICY)
    for agent in _bottleneck_agents(net):
        agent.configure_overload(policy)
    if arch == "dlte":
        _settle_dlte(net)

    t0 = sim.now
    ues = [net.ues[name] for name in sorted(net.ues)]
    storm = FlashCrowdAttachSource(sim, ues, window_s=STORM_WINDOW_S,
                                   name="flash-crowd",
                                   retry_kwargs=dict(RETRY_KWARGS))
    storm.start()
    until = t0 + horizon_s
    if scenario:
        injector = FaultInjector(sim)
        plan = compose_scenario(scenario, net, injector, t0 + chaos_at_s)
        until = max(until, plan.end_s + 10.0)
    sim.run(until=until)

    # harvest: who got on, how long demand-to-service took, what was shed
    attached = [ue for ue in ues if ue.state is UeState.ATTACHED]
    latency = sim.metrics.histogram("nas.time_to_attach_s",
                                    quantiles=QUANTILES)
    for ue in attached:
        if ue.attach_completed_at is not None:
            latency.observe(ue.attach_completed_at
                            - storm.demand_at[ue.ue_id])
    agents = iter_control_agents(net)
    empty = latency.count == 0
    return {
        "storm_ues": n_ues,
        "attach_success": len(attached) / max(1, len(ues)),
        "p50_s": 0.0 if empty else latency.quantile(0.5),
        "p99_s": 0.0 if empty else latency.quantile(0.99),
        "p999_s": 0.0 if empty else latency.quantile(0.999),
        "congestion_rejects": sum(
            a.shed_by_cause.get("congestion", 0) for a in agents),
        "shed_total": sum(a.shed for a in agents),
        "peak_queue": max(a.peak_queue_depth for a in agents),
    }


_ARCHITECTURES = (("Centralized LTE", "cent"), ("dLTE stubs", "dlte"))


def run(intensities: Optional[Sequence[int]] = None, n_aps: int = 3,
        ue_per_ap: int = 8, seed: int = 7, scenario: str = "",
        chaos_at_s: float = 1.0, horizon_s: float = 15.0) -> ResultTable:
    """Attach-success and shed accounting across storm intensities.

    ``intensities`` scales the crowd: each cell storms
    ``n_aps * ue_per_ap * intensity`` UEs inside ``STORM_WINDOW_S``.
    ``scenario`` overlays a named chaos storm (``repro.faults``) at
    ``chaos_at_s`` after the crowd starts (``--invariants`` audits
    every cell, in whichever process it runs).
    """
    if intensities is None:
        intensities = (1, 8, 64)
    cells = [(arch_key, intensity, n_aps, ue_per_ap, seed, scenario,
              chaos_at_s, horizon_s)
             for intensity in intensities
             for _label, arch_key in _ARCHITECTURES]
    results = parallel_map(_run_cell, cells,
                           costs=[cell[1] for cell in cells])

    suffix = f" under {scenario!r}" if scenario else ""
    table = ResultTable(
        f"E17: attach storm{suffix} — graceful degradation, protected",
        ["arch", "storm_ues", "attach_success", "p50_s", "p99_s", "p999_s",
         "congestion_rejects", "shed_total", "peak_queue"])
    labels = [label for intensity in intensities
              for label, _key in _ARCHITECTURES]
    for label, row in zip(labels, results):
        table.add_row(arch=label, **row)
    return table
