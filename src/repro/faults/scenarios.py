"""Chaos scenarios: named, deterministic multi-fault schedules.

A single outage (E16's original shape) exercises one failure domain;
real deployments die in *compound* ways — a backhaul that flaps instead
of failing clean, sites cascading down one after another, the spectrum
registry vanishing exactly when leases need renewing. Each scenario
here composes several :class:`~repro.faults.FaultInjector` primitives
into one named schedule with a known envelope, so experiments can run
"the same storm" over different architectures and seeds.

Determinism: scenarios take only the built network and a start time;
every offset below is a fixed constant and every victim choice is a
sorted/deterministic pick, so a scenario's fault schedule is a pure
function of ``(scenario name, network, start_s)``.

Scenarios degrade honestly across architectures: a centralized arm has
no core stubs to cascade and no SAS to lose, so those scenarios map to
their closest single-point analogue (EPC-site outage) or to an empty
plan — an empty plan is a *finding* (the fault class cannot hurt this
architecture), not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.injector import FaultInjector

__all__ = ["ChaosScenario", "SCENARIOS", "ScenarioPlan", "busiest_ap",
           "compose_scenario", "get_scenario", "list_scenarios",
           "prepare_scenario"]

#: Lease used by :data:`sas-outage-during-lease-renewal` (seconds). The
#: renewal loop heartbeats at half this (margin_frac=0.5), so an outage
#: longer than the lease is guaranteed to straddle at least one renewal
#: tick *and* lapse at least one lease.
SCENARIO_LEASE_S = 6.0


@dataclass(frozen=True)
class ScenarioPlan:
    """The composed schedule: what was injected and when it is over.

    Attributes:
        scenario: the scenario name.
        start_s: absolute simulated time the first fault fires.
        end_s: absolute time by which every fault has healed/restored —
            the earliest moment recovery measurement makes sense.
        faults: injector fault names scheduled (empty = this scenario
            cannot touch this architecture).
        victims: AP ids whose service the scenario directly attacks
            (empty when the blast radius is network-wide or zero).
    """

    scenario: str
    start_s: float
    end_s: float
    faults: Tuple[str, ...] = ()
    victims: Tuple[str, ...] = ()

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class ChaosScenario:
    """A named scenario: optional build-time prep + schedule composer."""

    name: str
    description: str
    compose: Callable[..., ScenarioPlan]
    #: called after build, *before* the control phase (registration /
    #: attach), for scenarios needing build-time state such as leases
    prepare: Optional[Callable[..., None]] = None


def busiest_ap(net) -> str:
    """The AP serving the most clients (deterministic tie-break)."""
    counts: Dict[str, int] = {ap_id: 0 for ap_id in net.aps}
    for serving in net._serving_ap.values():
        counts[serving] += 1
    return max(sorted(counts), key=lambda ap_id: counts[ap_id])


def _backhaul_pair(net, router) -> list:
    """Both directional links between ``router`` and the Internet core."""
    return [net.internet.links[router.name],
            router.links[net.internet.name]]


# -- flapping backhaul ------------------------------------------------------

FLAP_DOWN_S = 0.8
FLAP_UP_S = 1.2
FLAP_CYCLES = 4


def _flapping_backhaul(net, injector: FaultInjector,
                       start_s: float) -> ScenarioPlan:
    """The busiest site's fiber flaps: 4 x (0.8 s down, 1.2 s up).

    Unlike a clean cut, a flap repeatedly tears down mid-flight traffic
    and lures retries into the next down-phase; the dLTE victim is the
    busiest AP's backhaul, the centralized victim the EPC site's uplink
    (through which *every* site's traffic hairpins).
    """
    victims: Tuple[str, ...] = ()
    if getattr(net, "aps", None):
        victim = busiest_ap(net)
        router = net.aps[victim].router
        victims = (victim,)
    else:
        router = net.epc_router
    faults = [
        injector.link_flap(link, start_s, FLAP_DOWN_S, FLAP_UP_S,
                           FLAP_CYCLES, name=f"flap:{link.name}")
        for link in _backhaul_pair(net, router)]
    end_s = start_s + FLAP_CYCLES * (FLAP_DOWN_S + FLAP_UP_S)
    return ScenarioPlan(scenario="flapping-backhaul", start_s=start_s,
                        end_s=end_s, faults=tuple(faults), victims=victims)


# -- cascading stub crashes -------------------------------------------------

CASCADE_STEP_S = 2.0
CASCADE_OUTAGE_S = 6.0


def _cascading_stub_crashes(net, injector: FaultInjector,
                            start_s: float) -> ScenarioPlan:
    """Sites fall like dominoes: each AP (stub and all) crashes 2 s
    after the previous one, each staying dark 6 s.

    With the default stagger the outage windows overlap, so the
    federation is rebalancing spectrum around one corpse when the next
    appears — the worst case for the §4.3 peer monitor. On a
    centralized arm there are no per-site stubs; the closest analogue
    is the EPC site dark for the same overall envelope.
    """
    faults: List[str] = []
    victims: Tuple[str, ...] = ()
    if getattr(net, "aps", None):
        victims = tuple(sorted(net.aps))
        for k, ap_id in enumerate(sorted(net.aps)):
            faults.append(injector.outage(
                lambda ap_id=ap_id: net.crash_ap(ap_id),
                lambda ap_id=ap_id: net.restart_ap(ap_id),
                at_s=start_s + k * CASCADE_STEP_S,
                duration_s=CASCADE_OUTAGE_S,
                name=f"cascade-crash:{ap_id}"))
        end_s = (start_s + (len(net.aps) - 1) * CASCADE_STEP_S
                 + CASCADE_OUTAGE_S)
    else:
        n_sites = len(getattr(net, "enb_data", {})) or 1
        end_s = start_s + (n_sites - 1) * CASCADE_STEP_S + CASCADE_OUTAGE_S
        faults.append(injector.outage(
            net.fail_epc, net.restore_epc, at_s=start_s,
            duration_s=end_s - start_s, name="cascade-crash:epc-site"))
    return ScenarioPlan(scenario="cascading-stub-crashes", start_s=start_s,
                        end_s=end_s, faults=tuple(faults), victims=victims)


# -- SAS outage during lease renewal ----------------------------------------

SAS_OUTAGE_S = 8.0


def _prepare_sas_leases(net) -> None:
    """Arm short CBRS leases before registration so every grant issued
    in the control phase expires unless heartbeat-renewed."""
    registry = getattr(net, "spectrum_registry", None)
    if registry is None or not hasattr(registry, "lease_s"):
        return
    registry.lease_s = SCENARIO_LEASE_S
    registry.start_expiry_sweep()


def _sas_outage_during_renewal(net, injector: FaultInjector,
                               start_s: float) -> ScenarioPlan:
    """The SAS goes dark for longer than one lease (8 s > 6 s lease).

    Every AP's heartbeat fails during the outage, its lease lapses
    (CBRS: it must cease transmission), and on restore it has to
    re-*register*, not merely renew — the single-point-of-failure cost
    of centralized spectrum access measured against running service.
    Centralized LTE holds licensed spectrum and no SAS dependency, so
    its plan is empty by construction.
    """
    registry = getattr(net, "spectrum_registry", None)
    if registry is None or not hasattr(registry, "fail"):
        return ScenarioPlan(scenario="sas-outage-during-lease-renewal",
                            start_s=start_s, end_s=start_s, faults=())
    fault = injector.registry_outage(registry, at_s=start_s,
                                     duration_s=SAS_OUTAGE_S,
                                     name="sas-outage")
    return ScenarioPlan(scenario="sas-outage-during-lease-renewal",
                        start_s=start_s, end_s=start_s + SAS_OUTAGE_S,
                        faults=(fault,))


# -- registry ---------------------------------------------------------------

SCENARIOS: Dict[str, ChaosScenario] = {
    scenario.name: scenario for scenario in (
        ChaosScenario(
            name="flapping-backhaul",
            description="busiest site's backhaul fiber flaps "
                        f"{FLAP_CYCLES}x ({FLAP_DOWN_S:g}s down / "
                        f"{FLAP_UP_S:g}s up)",
            compose=_flapping_backhaul),
        ChaosScenario(
            name="cascading-stub-crashes",
            description="every site crashes in a rolling cascade "
                        f"({CASCADE_STEP_S:g}s apart, "
                        f"{CASCADE_OUTAGE_S:g}s dark each)",
            compose=_cascading_stub_crashes),
        ChaosScenario(
            name="sas-outage-during-lease-renewal",
            description="spectrum registry dark longer than one lease "
                        f"({SAS_OUTAGE_S:g}s outage vs "
                        f"{SCENARIO_LEASE_S:g}s lease)",
            compose=_sas_outage_during_renewal,
            prepare=_prepare_sas_leases),
    )
}


def list_scenarios() -> List[str]:
    """All scenario names, sorted."""
    return sorted(SCENARIOS)


def get_scenario(name: str) -> ChaosScenario:
    """Look up a scenario; ValueError names the catalog on a miss."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(f"unknown chaos scenario {name!r}; "
                         f"available: {', '.join(list_scenarios())}") from None


def prepare_scenario(name: str, net) -> None:
    """Run a scenario's build-time prep (no-op for most scenarios)."""
    scenario = get_scenario(name)
    if scenario.prepare is not None:
        scenario.prepare(net)


def compose_scenario(name: str, net, injector: FaultInjector,
                     start_s: float) -> ScenarioPlan:
    """Schedule ``name``'s faults on ``injector`` starting at ``start_s``."""
    return get_scenario(name).compose(net, injector, start_s)
