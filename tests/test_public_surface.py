"""Public-surface gate: every public name in ``src/repro`` is run by something.

A public top-level ``def`` or ``class`` (its name does not start with
``_``) in a ``src/repro`` module must be referenced, outside its own
body, by an identifier — a ``Name``, an ``Attribute`` or an import alias
— in ``src/repro`` (package ``__init__`` code included), ``examples/`` or
``benchmarks/e2e/``. Tests are not consumers. A string is not a
reference, so a lazy-export table entry or an ``__all__`` entry keeps
nothing alive.

Liveness runs to a fixed point: a reference made from inside the body of
a dead top-level name does not count, so a helper that only a dead name
called is dead too. Names are matched by identifier, not resolved to
their module — a reference to ``run`` keeps every ``run`` alive — which
errs on the side of keeping.

``ALLOWED`` is the only way to keep a name that nothing runs. Each entry
carries its reason, and an entry that no longer names a defined,
otherwise-unreferenced name fails the gate: the list can only shrink.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent

_CLAIMS = ("called only by tests/test_paper_claims.py; ROADMAP item 2a "
           "makes the CLI print it")
_HANDOVER = ("called only by the mobility tests; ROADMAP item 6 wires it "
             "into E6 or deletes it")
_STATIONARY = ("the stationary case of the fluid-tier oracle in "
               "tests/test_fluid_traffic.py, also run by the arena twins and "
               "tests/reference/scalar_tti.py")

#: ``repro.<module>.<name>`` -> why it stays although nothing in the
#: consumer trees runs it.
ALLOWED: Dict[str, str] = {
    "repro.experiments.e3_range.range_summary": _CLAIMS,
    "repro.experiments.e4_weak_signal.harq_retx_ablation": _CLAIMS,
    "repro.experiments.e4_weak_signal.link_death_sinrs": _CLAIMS,
    "repro.experiments.e5_coordination.gbr_protection": _CLAIMS,
    "repro.experiments.e6_mobility.make_before_break": _CLAIMS,
    "repro.experiments.e6_mobility.quic_0rtt_ablation": _CLAIMS,
    "repro.experiments.e8_hidden_terminal.classic_three_node": _CLAIMS,
    "repro.experiments.e8_hidden_terminal.sensing_ablation": _CLAIMS,
    "repro.experiments.e9_x2_bandwidth.backhaul_fit": _CLAIMS,
    "repro.experiments.e9_x2_bandwidth.handover_burst_bytes": _CLAIMS,
    "repro.experiments.e10_registries.availability_under_failure": _CLAIMS,
    "repro.experiments.e10_registries.service_continuity_under_outage":
        _CLAIMS,
    "repro.experiments.e11_mesh_backhaul.aggregation_gain": _CLAIMS,
    "repro.experiments.e12_deployment_cost.bom_table": _CLAIMS,
    "repro.experiments.e12_deployment_cost.under_paper_budget": _CLAIMS,
    "repro.experiments.e14_nr_upgrade.latency_ladder": _CLAIMS,
    "repro.experiments.e14_nr_upgrade.range_summary": _CLAIMS,
    "repro.experiments.f1_path_comparison.local_breakout_ablation": _CLAIMS,
    "repro.experiments.t1_design_space.dlte_quadrant_is_unique": _CLAIMS,
    "repro.mobility.handover.A3HandoverTrigger": _HANDOVER,
    "repro.mobility.models.LinearMover": _HANDOVER,
    "repro.mobility.models.RandomWaypointMover": _HANDOVER,
    "repro.mac.schedulers.RoundRobinScheduler": _STATIONARY,
    "repro.mac.schedulers.MaxCiScheduler": _STATIONARY,
}

#: (identifier, owner) — ``owner`` is the qualified top-level name whose
#: body holds the reference, or None for module-level and consumer code.
_Ref = Tuple[str, Optional[str]]


def _python_files(roots: Iterable[Path]) -> List[Path]:
    return sorted(path for root in roots if root.exists()
                  for path in root.rglob("*.py"))


def _alias_names(alias: ast.alias) -> Set[str]:
    return set(alias.name.split(".")) | ({alias.asname} - {None})


def _identifiers(node: ast.AST) -> Set[str]:
    found: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif isinstance(child, ast.alias):
            found |= _alias_names(child)
    return found


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scan(path: Path, qualifier: Optional[str]
          ) -> Tuple[Dict[str, str], List[_Ref]]:
    """``({qualified: identifier}, refs)`` for one file.

    ``qualifier`` is the module's dotted name when the file is in the
    gated package, None for a consumer whose names are not gated. In a
    gated module other than a package ``__init__``, a top-level import
    is not a reference by itself: whoever uses the binding references
    the imported names, so a cascade runs across modules.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    follow_imports = qualifier is not None and path.stem != "__init__"
    defined: Dict[str, str] = {}
    refs: List[_Ref] = []
    bindings: Dict[str, Set[str]] = {}
    for stmt in tree.body:
        owner = None
        if follow_imports and isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                binding = alias.asname or alias.name.split(".")[0]
                bindings.setdefault(binding, set()).update(
                    _alias_names(alias))
            continue
        if qualifier is not None and isinstance(stmt, _DEFS):
            owner = f"{qualifier}.{stmt.name}"
            defined[owner] = stmt.name
        refs.extend((ident, owner) for ident in _identifiers(stmt))
    return defined, [(name, owner) for ident, owner in refs
                     for name in bindings.get(ident, set()) | {ident}]


def surface_violations(package: Path, consumers: Iterable[Path],
                       allowed: Mapping[str, str]
                       ) -> Tuple[List[str], List[str]]:
    """``(unreferenced, stale)`` for the package rooted at ``package``.

    ``unreferenced`` lists public top-level names that nothing alive
    references and ``allowed`` does not hold; ``stale`` lists ``allowed``
    entries that are not defined or are referenced after all.
    """
    base = package.parent
    defined: Dict[str, str] = {}
    refs: List[_Ref] = []
    for path in _python_files([package]):
        parts = path.relative_to(base).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names, found = _scan(path, ".".join(parts))
        defined.update(names)
        refs.extend(found)
    for path in _python_files(consumers):
        refs.extend(_scan(path, None)[1])

    def is_public(qualified: str) -> bool:
        return not defined[qualified].startswith("_")

    # every top-level name, private ones included, starts alive and dies
    # when no live owner other than itself references it; allowed names
    # are roots
    alive = set(defined)
    owners: Dict[str, List[Optional[str]]] = {}
    for ident, owner in refs:
        owners.setdefault(ident, []).append(owner)

    def referenced(qualified: str) -> bool:
        return any(owner != qualified and (owner is None or owner in alive)
                   for owner in owners.get(defined[qualified], ()))

    changed = True
    while changed:
        dead = {q for q in alive if q not in allowed and not referenced(q)}
        alive -= dead
        changed = bool(dead)
    unreferenced = sorted(q for q in defined
                          if q not in alive and is_public(q))
    stale = sorted(q for q in allowed
                   if q not in defined or referenced(q))
    return unreferenced, stale


def test_every_public_name_is_run_by_something():
    unreferenced, stale = surface_violations(
        ROOT / "src" / "repro",
        [ROOT / "examples", ROOT / "benchmarks" / "e2e"], ALLOWED)
    assert unreferenced == []
    assert stale == []
    assert all(reason.strip() for reason in ALLOWED.values())


# -- the gate on a synthetic tree --------------------------------------------

_LIB = """
from pkg.util import helper


def used():
    return helper()


def unused():
    return 1
"""


def _violations(tmp_path, files, allowed=None):
    """The gate over ``src/pkg`` (with ``util.helper``) and ``examples``."""
    files = {"src/pkg/__init__.py": "",
             "src/pkg/util.py": "def helper():\n    return 0\n", **files}
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return surface_violations(tmp_path / "src" / "pkg",
                              [tmp_path / "examples"], allowed or {})


def test_gate_flags_an_unreferenced_def(tmp_path):
    unreferenced, _ = _violations(tmp_path, {
        "src/pkg/lib.py": _LIB,
        "src/pkg/app.py": "from pkg.lib import used\n\nused()\n"})
    assert unreferenced == ["pkg.lib.unused"]


def test_gate_counts_a_reference_from_examples(tmp_path):
    unreferenced, _ = _violations(tmp_path, {
        "src/pkg/lib.py": _LIB,
        "examples/demo.py": "import pkg.lib\n\npkg.lib.used()\n"
                            "pkg.lib.unused()\n"})
    assert unreferenced == []


def test_gate_ignores_string_mentions(tmp_path):
    unreferenced, _ = _violations(tmp_path, {
        "src/pkg/__init__.py":
            "from pkg._lazy import lazy_exports\n"
            "__getattr__, __dir__, __all__ = lazy_exports(__name__, "
            "{'lib': ('used', 'unused')})\n",
        "src/pkg/_lazy.py": "def lazy_exports(name, table):\n"
                            "    return None, None, []\n",
        "src/pkg/lib.py": _LIB + "\n__all__ = ['used', 'unused']\n",
        "examples/demo.py": "from pkg.lib import used\n\nused()\n"})
    assert unreferenced == ["pkg.lib.unused"]


def test_gate_runs_to_a_fixed_point_across_modules(tmp_path):
    # nothing calls ``used`` now, so ``helper``, which only it called
    # through a module-level import, is dead too
    unreferenced, _ = _violations(tmp_path, {"src/pkg/lib.py": _LIB})
    assert unreferenced == ["pkg.lib.unused", "pkg.lib.used",
                            "pkg.util.helper"]


def test_allowed_names_are_roots(tmp_path):
    unreferenced, stale = _violations(
        tmp_path, {"src/pkg/lib.py": _LIB},
        {"pkg.lib.used": "kept", "pkg.lib.unused": "kept"})
    assert (unreferenced, stale) == ([], [])


def test_a_stale_allowlist_entry_fails(tmp_path):
    files = {"src/pkg/lib.py": _LIB,
             "examples/demo.py": "from pkg.lib import used\n\nused()\n"}
    _, stale = _violations(tmp_path, files, {
        "pkg.lib.unused": "kept",          # still unreferenced: fine
        "pkg.lib.used": "kept",            # referenced after all
        "pkg.lib.deleted": "kept"})        # no longer defined
    assert stale == ["pkg.lib.deleted", "pkg.lib.used"]
