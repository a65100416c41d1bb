"""The one network-level law: spectrum sanity over a dLTE federation.

Every other law belongs to one component, which registers itself where
it is built. This one quantifies over a *set* of APs, so the one place
that knows the set registers it: ``DLTENetwork.build``, through
``sim.checker.watch_federation(aps, registry)``.
"""

from __future__ import annotations

from typing import Any, List

from repro.spectrum.grants import in_contention

__all__ = ["watch_federation"]


def watch_federation(checker: Any, aps: dict,
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
