"""Tests for the deterministic chaos-schedule composer (repro.faults).

Scenarios must be pure functions of (name, network, start time): same
inputs, same fault schedule. Each storm is exercised on a small dLTE
federation with the invariant layer armed — the simulation must stay
internally consistent while being broken on purpose.
"""

import pytest

from repro.core.network import CentralizedLTENetwork, DLTENetwork
from repro.faults import (
    FaultInjector,
    SCENARIOS,
    compose_scenario,
    get_scenario,
    list_scenarios,
    prepare_scenario,
)
from repro.faults.scenarios import (
    CASCADE_OUTAGE_S,
    CASCADE_STEP_S,
    FLAP_CYCLES,
    FLAP_DOWN_S,
    FLAP_UP_S,
    SAS_OUTAGE_S,
    SCENARIO_LEASE_S,
)
from repro.invariants import armed
from repro.workloads import RuralTown

TOWN = RuralTown(radius_m=1500, n_ues=6, n_aps=2, seed=5)


def _dlte(scenario=None):
    net = DLTENetwork.build(TOWN, seed=5)
    if scenario:
        prepare_scenario(scenario, net)
    return net, FaultInjector(net.sim)


# -- catalog ------------------------------------------------------------------------


def test_catalog_lists_all_three_storms():
    assert list_scenarios() == ["cascading-stub-crashes",
                                "flapping-backhaul",
                                "sas-outage-during-lease-renewal"]
    for name in list_scenarios():
        scenario = get_scenario(name)
        assert scenario.name == name
        assert scenario.description


def test_unknown_scenario_names_the_catalog():
    with pytest.raises(ValueError, match="cascading-stub-crashes"):
        get_scenario("meteor-strike")


# -- determinism --------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_schedule_is_a_pure_function_of_inputs(name):
    plans = []
    for _ in range(2):
        net, injector = _dlte(scenario=name)
        plans.append(compose_scenario(name, net, injector, start_s=4.0))
    assert plans[0] == plans[1]
    assert plans[0].start_s == 4.0
    assert plans[0].end_s >= plans[0].start_s


# -- flapping backhaul --------------------------------------------------------------


def test_flapping_backhaul_hits_busiest_ap_both_directions():
    net, injector = _dlte()
    plan = compose_scenario("flapping-backhaul", net, injector, start_s=2.0)
    assert len(plan.faults) == 2  # uplink and downlink of one backhaul
    assert len(plan.victims) == 1
    assert plan.victims[0] in net.aps
    assert plan.duration_s == pytest.approx(
        FLAP_CYCLES * (FLAP_DOWN_S + FLAP_UP_S))
    victim_router = net.aps[plan.victims[0]].router
    link = net.internet.links[victim_router.name]
    net.sim.run(until=plan.start_s + FLAP_DOWN_S / 2)
    assert not link.up  # first down-phase
    net.sim.run(until=plan.end_s + 0.1)
    assert link.up  # healed after the last cycle


def test_flapping_backhaul_on_centralized_attacks_epc_uplink():
    net = CentralizedLTENetwork.build(TOWN, seed=5)
    injector = FaultInjector(net.sim)
    plan = compose_scenario("flapping-backhaul", net, injector, start_s=2.0)
    assert len(plan.faults) == 2
    assert plan.victims == ()  # every site hairpins: blast radius is global


# -- cascading stub crashes ---------------------------------------------------------


def test_cascade_staggers_every_ap_with_overlap():
    net, injector = _dlte()
    plan = compose_scenario("cascading-stub-crashes", net, injector,
                            start_s=3.0)
    assert plan.victims == tuple(sorted(net.aps))
    assert len(plan.faults) == len(net.aps)
    # the stagger is shorter than the outage: windows overlap by design
    assert CASCADE_STEP_S < CASCADE_OUTAGE_S
    assert plan.end_s == pytest.approx(
        3.0 + (len(net.aps) - 1) * CASCADE_STEP_S + CASCADE_OUTAGE_S)


def test_cascade_runs_clean_under_invariants():
    # the hard case that exposed the rejoin split-brain bugs: crash the
    # sites in a rolling wave, let them restart, and demand the
    # federation reconverges with every conservation law intact
    with armed():  # verifies on the way out
        net, injector = _dlte()
        plan = compose_scenario("cascading-stub-crashes", net, injector,
                                start_s=4.0)
        net.run(duration_s=plan.end_s + 20.0)
    assert all(ap.alive for ap in net.aps.values())


# -- SAS outage during lease renewal ------------------------------------------------


def test_sas_outage_lapses_and_recovers_leases():
    with armed():
        net, injector = _dlte(scenario="sas-outage-during-lease-renewal")
    assert net.spectrum_registry.lease_s == SCENARIO_LEASE_S
    plan = compose_scenario("sas-outage-during-lease-renewal", net,
                            injector, start_s=4.0)
    assert plan.faults == ("sas-outage",)
    assert plan.duration_s == pytest.approx(SAS_OUTAGE_S)
    # registration happens at t~0, well before the outage at t=4; the
    # outage outlives the lease, so every grant must lapse mid-storm ...
    net.run(duration_s=plan.end_s - 1.0)
    assert not any(ap.grant_active for ap in net.aps.values())
    # ... and re-registration restores service after the registry returns
    net.sim.run(until=plan.end_s + 2 * SCENARIO_LEASE_S)
    assert all(ap.grant_active for ap in net.aps.values())
    net.sim.checker.verify()


def test_sas_outage_is_empty_plan_on_centralized():
    # licensed spectrum, no SAS dependency: the empty plan is the finding
    net = CentralizedLTENetwork.build(TOWN, seed=5)
    prepare_scenario("sas-outage-during-lease-renewal", net)
    injector = FaultInjector(net.sim)
    plan = compose_scenario("sas-outage-during-lease-renewal", net,
                            injector, start_s=4.0)
    assert plan.faults == ()
    assert plan.duration_s == 0.0
