"""Wire an :class:`InvariantChecker` onto whole simulated networks.

The checker itself audits individual components; experiments build
hundreds of them. These walkers discover everything worth watching:

* :func:`watch_topology` — breadth-first walk of the packet graph from
  a set of root nodes, following each link's receive callback to its
  owning node: every :class:`~repro.net.links.Link` gets the
  conservation check, every :class:`~repro.net.nat.NatRouter` the NAT
  accounting check, and every node carrying a
  :class:`~repro.net.tunnel.TunnelEndpoint` joins the aggregate GTP
  conservation law.
* :func:`watch_federation` — spectrum-layer laws over a dLTE
  federation: registry grant sanity (per-AP uniqueness, ordered lease
  windows, density admission honored) and PRB-slice non-overlap per
  band between alive, contending APs whose coordinators have converged.
* :func:`watch_network` — everything above plus the clock and every
  UE's NAS legality, for any of the :mod:`repro.core.network` builds
  (dLTE, centralized, WiFi).
"""

from __future__ import annotations

from typing import Any, Iterable, List

from repro.invariants.checks import InvariantChecker
from repro.net.nat import NatRouter
from repro.net.nodes import Router
from repro.spectrum.grants import in_contention

__all__ = ["iter_control_agents", "watch_federation", "watch_network",
           "watch_topology"]


def iter_control_agents(net: Any) -> List[Any]:
    """Every ControlAgent a built network owns, deterministically ordered.

    Covers both architectures: UEs, per-AP stubs and eNB relays (dLTE),
    and the centralized core's MME/HSS/S-GW/P-GW plus its eNB relays —
    the population the control-plane conservation law audits and E17's
    shed accounting sums over.
    """
    agents: List[Any] = []
    for name in sorted(getattr(net, "ues", {})):
        agents.append(net.ues[name])
    aps = getattr(net, "aps", None)
    if aps:
        for ap_id in sorted(aps):
            ap = aps[ap_id]
            for attr in ("stub", "enb"):
                agent = getattr(ap, attr, None)
                if agent is not None:
                    agents.append(agent)
    epc = getattr(net, "epc", None)
    if epc is not None:
        for attr in ("mme", "hss", "sgw", "pgw"):
            agent = getattr(epc, attr, None)
            if agent is not None:
                agents.append(agent)
    relays = getattr(net, "enb_relays", None)
    if relays:
        for name in sorted(relays):
            agents.append(relays[name])
    return agents


def _iter_nodes(roots: Iterable[Any]) -> List[Any]:
    """BFS over the packet graph: follow links to their receiving nodes."""
    seen: List[Any] = []
    seen_ids = set()
    frontier = [node for node in roots if node is not None]
    while frontier:
        node = frontier.pop()
        if id(node) in seen_ids:
            continue
        seen_ids.add(id(node))
        seen.append(node)
        for link in getattr(node, "links", {}).values():
            neighbor = getattr(link.receiver, "__self__", None)
            if neighbor is not None and id(neighbor) not in seen_ids:
                frontier.append(neighbor)
    return seen


def watch_topology(checker: InvariantChecker, roots: Iterable[Any]) -> int:
    """Watch every link/NAT/tunnel reachable from ``roots``.

    Returns the number of nodes discovered.
    """
    nodes = _iter_nodes(roots)
    for node in nodes:
        for link in getattr(node, "links", {}).values():
            checker.watch_link(link)
        if isinstance(node, Router):
            checker.watch_router(node)
        if isinstance(node, NatRouter):
            checker.watch_nat(node)
        tunnels = getattr(node, "tunnels", None)
        if tunnels is not None and hasattr(tunnels, "encapsulated"):
            checker.watch_tunnel(tunnels)
    return len(nodes)


def watch_federation(checker: InvariantChecker, aps: dict,
                     registry: Any = None) -> None:
    """Spectrum laws over a dLTE federation (and its registry).

    * registry sanity: at most one active grant per AP (per band), and
      every grant's lease window is ordered (``granted_at <= expires``);
    * density admission: when the registry enforces
      ``max_density_per_domain``, the active population of any AP's
      contention domain never exceeds it;
    * PRB non-overlap: two *alive* APs holding active grants on the
      same band, inside one RF contention domain, whose coordinators
      have both converged on a proper slice, must own disjoint PRBs —
      the §4.3 fair-sharing contract the peer monitor is supposed to
      restore after every crash and rejoin.
    """

    def registry_check() -> List[str]:
        problems = []
        grants = getattr(registry, "_grants", None)
        if grants is None:
            return problems
        # SAS keeps {ap_id: grant}; the federated registry nests the
        # same shape per region — flatten either into one view.
        flat: dict = {}
        for key, value in grants.items():
            if isinstance(value, dict):
                flat.update(value)
            else:
                flat[key] = value
        now = checker.sim.now
        active = {ap_id: grant for ap_id, grant in flat.items()
                  if grant.active_at(now)}
        for ap_id, grant in active.items():
            if grant.record.ap_id != ap_id:
                problems.append(
                    f"grant {grant.grant_id} filed under {ap_id!r} but "
                    f"names {grant.record.ap_id!r}")
            if (grant.expires_at is not None
                    and grant.expires_at < grant.granted_at):
                problems.append(
                    f"grant {grant.grant_id}: lease window inverted "
                    f"({grant.granted_at} .. {grant.expires_at})")
        density = getattr(registry, "max_density_per_domain", None)
        if density is not None:
            for ap_id, grant in active.items():
                crowd = sum(
                    1 for other in active.values()
                    if in_contention(other.record, grant.record))
                if crowd > density:
                    problems.append(
                        f"{ap_id}'s contention domain holds {crowd} "
                        f"active grants > admission cap {density}")
        return problems

    if registry is not None:
        checker.register("spectrum-registry",
                         type(registry).__name__, registry_check)

    def slice_check() -> List[str]:
        problems = []
        eligible = []
        for ap in aps.values():
            if not getattr(ap, "alive", True) or not ap.grant_active:
                continue
            cell = ap.cell
            if cell.allowed_prbs == cell.grid.all_prbs:
                continue  # coordinator not (re)converged yet
            eligible.append(ap)
        for i, a in enumerate(eligible):
            for b in eligible[i + 1:]:
                if a.band.name != b.band.name:
                    continue
                if not in_contention(a.record, b.record):
                    continue
                overlap = a.cell.allowed_prbs & b.cell.allowed_prbs
                if overlap:
                    problems.append(
                        f"{a.ap_id} and {b.ap_id} share {len(overlap)} "
                        f"PRBs on band {a.band.name} inside one "
                        f"contention domain")
        return problems

    checker.register("spectrum-non-overlap", "federation", slice_check)


def watch_network(net: Any, checker: InvariantChecker = None,
                  period_s: float = 0.5) -> InvariantChecker:
    """Watch everything in a built network; arms the periodic sweep.

    Works for :class:`~repro.core.network.DLTENetwork`,
    :class:`CentralizedLTENetwork`, and :class:`WiFiNetwork` — anything
    exposing the `_BaseNetwork` surface (``sim``, ``internet``,
    ``ue_hosts``) plus optional ``aps``/``ues``/``spectrum_registry``.
    """
    if checker is None:
        checker = InvariantChecker(net.sim)
    checker.watch_clock()
    roots = [net.internet, getattr(net, "server", None),
             getattr(net, "server_edge", None),
             getattr(net, "epc_data", None),
             getattr(net, "epc_router", None)]
    roots.extend(net.ue_hosts.values())
    aps = getattr(net, "aps", None)
    if aps:
        roots.extend(ap.router for ap in aps.values())
    enb_data = getattr(net, "enb_data", None)
    if enb_data:
        roots.extend(enb_data.values())
    watch_topology(checker, roots)
    for ue in getattr(net, "ues", {}).values():
        checker.watch_ue(ue)
    for agent in iter_control_agents(net):
        checker.watch_agent(agent)
    if aps:
        watch_federation(checker, aps,
                         registry=getattr(net, "spectrum_registry", None))
    checker.arm(period_s)
    return checker
