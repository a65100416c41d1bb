"""Fault injection: deterministic, schedulable failure scenarios (E16).

The subsystem that makes the paper's robustness claims *measurable*:
link cuts and flaps, probabilistic loss, AP crash/restart, core and
registry outages — all named, logged, and reproducible from
``(seed, schedule)``. :mod:`repro.faults.scenarios` composes the
primitives into named chaos scenarios (flapping backhaul, cascading
stub crashes, SAS outage during lease renewal) with deterministic
schedules and known recovery envelopes; see ROBUSTNESS.md for the
catalog.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "injector": ("FaultInjector", "FaultRecord"),
    "scenarios": (
        "SCENARIOS", "ChaosScenario", "ScenarioPlan", "compose_scenario",
        "get_scenario", "list_scenarios", "prepare_scenario"),
})
