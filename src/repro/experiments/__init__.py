"""The experiment harness: every table, figure, and quantified claim.

One module per experiment id (see DESIGN.md §3). Each exposes a ``run``
function returning one or more :class:`repro.metrics.ResultTable`
objects; ``python -m repro`` prints the rows recorded in EXPERIMENTS.md
and ``tests/test_paper_claims.py`` asserts the shape each claim rests on.
"""

from repro._lazy import LazyModules

#: id -> experiment module; the module is imported by ``[]`` (and by
#: ``.values()`` / ``.items()``), never by ``in``, ``len`` or iteration.
ALL_EXPERIMENTS = LazyModules(__name__, {
    "T1": "t1_design_space",
    "F1": "f1_path_comparison",
    "E3": "e3_range",
    "E4": "e4_weak_signal",
    "E5": "e5_coordination",
    "E6": "e6_mobility",
    "E7": "e7_core_scaling",
    "E8": "e8_hidden_terminal",
    "E9": "e9_x2_bandwidth",
    "E10": "e10_registries",
    "E11": "e11_mesh_backhaul",
    "E12": "e12_deployment_cost",
    "E13": "e13_idle_paging",
    "E14": "e14_nr_upgrade",
    "E15": "e15_reachability",
    "E16": "e16_resilience",
    "E17": "e17_attach_storm",
    "E18": "e18_sustained_overload",
    "E19": "e19_city",
})

__all__ = ["ALL_EXPERIMENTS"]
