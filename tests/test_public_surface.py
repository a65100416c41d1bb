"""Public-surface gate: every public name in ``src/repro`` is run by something.

A public top-level ``def`` or ``class`` (its name does not start with
``_``) in a ``src/repro`` module must be referenced, outside its own
body, by an identifier — a ``Name``, an ``Attribute`` or an import alias
— in ``src/repro`` (package ``__init__`` code included), ``examples/`` or
``benchmarks/e2e/``. Tests are not consumers. A string is not a
reference, so a lazy-export table entry or an ``__all__`` entry keeps
nothing alive. Neither is a name that only names a type: one inside an
annotation, or the class (or tuple of classes) that ``isinstance`` tests
against. A class that only ever appears there is never constructed, so
a ``handle`` branch that tests for it keeps nothing alive either.

Class members are gated the same way. Every non-dunder ``def`` in the
body of a top-level class (a method, a property, a class, static or
abstract method) is named ``repro.<module>.<Class>.<member>`` and must be
referenced by its identifier; a literal name, or the literal prefix of
an f-string, passed to ``getattr`` or ``hasattr`` counts as a reference,
so ``getattr(self, f"_on_{kind}")`` keeps every ``_on_*`` member. The
rest of a class body (bases, decorators, attributes, dunder methods)
belongs to the class, and a member of a dead class is dead. Private
members take part in the fixed point but, like private top-level names,
are not reported.

Liveness runs to a fixed point: a reference made from inside the body of
a dead name does not count, so a helper that only a dead name called is
dead too. Names are matched by identifier, not resolved to their module
or class — a reference to ``run`` keeps every ``run`` alive, so an
abstract method and its overrides live or die together — which errs on
the side of keeping.

``ALLOWED`` is the only way to keep a name that nothing runs; the members
of an allowed class are kept with it. Each entry carries its reason,
which names the open ROADMAP item that decides the name's fate
(``ROADMAP item <n>``), and an entry that no longer names a defined
name, or names one that something runs without the allowlist's help,
fails the gate: the list can only shrink.

Imports are gated per file, in ``src/``, ``tests/`` and ``examples/``
alike: a name a module imports must be read by that module — by a
``Name`` anywhere in it, by a quoted annotation, or by an ``__all__``
entry. There is no allowlist.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional, Set,
                    Tuple)

ROOT = Path(__file__).resolve().parent.parent

_CLAIMS = ("called only by tests/test_paper_claims.py; ROADMAP item 2a "
           "makes the CLI print it")
_STATIONARY = ("a scheduler no experiment installs: the arena twins, "
               "tests/reference/scalar_tti.py and the stationary case of "
               "the fluid-tier oracle in tests/test_fluid_traffic.py run "
               "it; ROADMAP item 14's scheduler axis makes E5 run it")

#: ``repro.<module>.<name>`` or ``repro.<module>.<Class>.<member>`` -> why
#: it stays although nothing in the consumer trees runs it.
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
    "repro.mac.schedulers.RoundRobinScheduler": _STATIONARY,
    "repro.mac.schedulers.MaxCiScheduler": _STATIONARY,
}

#: (identifier, owner) — ``owner`` is the qualified top-level name or
#: member whose body holds the reference, or None for module-level and
#: consumer code.
_Ref = Tuple[str, Optional[str]]


def _python_files(roots: Iterable[Path]) -> List[Path]:
    return sorted(path for root in roots if root.exists()
                  for path in root.rglob("*.py"))


def _alias_names(alias: ast.alias) -> Set[str]:
    return set(alias.name.split(".")) | ({alias.asname} - {None})


def _dynamic_name(call: ast.Call) -> Optional[str]:
    """The member a ``getattr``/``hasattr`` call names, if it is literal.

    A literal name is returned as is; an f-string that starts with
    literal text is returned as that prefix followed by ``*``.
    """
    if not (isinstance(call.func, ast.Name)
            and call.func.id in ("getattr", "hasattr")
            and len(call.args) >= 2):
        return None
    name = call.args[1]
    if isinstance(name, ast.JoinedStr) and name.values:
        name = name.values[0]
        suffix = "*"
    else:
        suffix = ""
    if isinstance(name, ast.Constant) and isinstance(name.value, str):
        return name.value + suffix
    return None


def _names_a_type(node: ast.AST) -> bool:
    return isinstance(node, (ast.Name, ast.Attribute)) or (
        isinstance(node, ast.Tuple) and all(map(_names_a_type, node.elts)))


def _type_operands(node: ast.AST) -> Iterator[ast.AST]:
    """The parts of ``node`` that only name a type: an annotation, or a
    class (or tuple of classes) passed as ``isinstance``'s second
    argument."""
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        yield node.annotation
    elif isinstance(node, _FUNCS):
        yield node.returns
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and _names_a_type(node.args[1])):
        yield node.args[1]


def _walk(*nodes: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` without the subtrees that only name a type."""
    todo = list(nodes)
    while todo:
        node = todo.pop()
        yield node
        skip = {id(operand) for operand in _type_operands(node)}
        todo.extend(child for child in ast.iter_child_nodes(node)
                    if id(child) not in skip)


def _identifiers(*nodes: ast.AST) -> Set[str]:
    found: Set[str] = set()
    for child in _walk(*nodes):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif isinstance(child, ast.alias):
            found |= _alias_names(child)
        elif isinstance(child, ast.Call):
            found |= {_dynamic_name(child)} - {None}
    return found


_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCS + (ast.ClassDef,)


def _is_member(node: ast.stmt) -> bool:
    return isinstance(node, _FUNCS) and not (
        node.name.startswith("__") and node.name.endswith("__"))


def _scan(path: Path, qualifier: Optional[str]
          ) -> Tuple[Dict[str, str], Dict[str, str], List[_Ref]]:
    """``({qualified: identifier}, {member: class}, refs)`` for one file.

    ``qualifier`` is the module's dotted name when the file is in the
    gated package, None for a consumer whose names are not gated. A
    non-dunder ``def`` in the body of a top-level class is a member
    named ``<class>.<member>`` that owns the references in its own body;
    the rest of the class (bases, decorators, attributes, dunder
    methods) belongs to the class. In a gated module other than a
    package ``__init__``, a top-level import is not a reference by
    itself: whoever uses the binding references the imported names, so
    a cascade runs across modules.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    follow_imports = qualifier is not None and path.stem != "__init__"
    defined: Dict[str, str] = {}
    classes: Dict[str, str] = {}
    refs: List[_Ref] = []
    bindings: Dict[str, Set[str]] = {}
    for stmt in tree.body:
        if follow_imports and isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                binding = alias.asname or alias.name.split(".")[0]
                bindings.setdefault(binding, set()).update(
                    _alias_names(alias))
            continue
        if qualifier is None or not isinstance(stmt, _DEFS):
            refs.extend((ident, None) for ident in _identifiers(stmt))
            continue
        owner = f"{qualifier}.{stmt.name}"
        defined[owner] = stmt.name
        if not isinstance(stmt, ast.ClassDef):
            refs.extend((ident, owner) for ident in _identifiers(stmt))
            continue
        for node in filter(_is_member, stmt.body):
            member = f"{owner}.{node.name}"
            defined[member] = node.name
            classes[member] = owner
            refs.extend((ident, member) for ident in _identifiers(node))
        rest = [node for node in stmt.body if not _is_member(node)]
        refs.extend((ident, owner) for ident in _identifiers(
            *stmt.decorator_list, *stmt.bases, *stmt.keywords, *rest))
    return defined, classes, [(name, owner) for ident, owner in refs
                              for name in bindings.get(ident, set()) | {ident}]


def surface_violations(package: Path, consumers: Iterable[Path],
                       allowed: Mapping[str, str]
                       ) -> Tuple[List[str], List[str]]:
    """``(unreferenced, stale)`` for the package rooted at ``package``.

    ``unreferenced`` lists public top-level names and class members that
    nothing alive references and ``allowed`` does not hold; ``stale``
    lists ``allowed`` entries that are not defined or that something
    runs without the allowlist's help.
    """
    base = package.parent
    defined: Dict[str, str] = {}
    classes: Dict[str, str] = {}
    refs: List[_Ref] = []
    for path in _python_files([package]):
        parts = path.relative_to(base).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names, members, found = _scan(path, ".".join(parts))
        defined.update(names)
        classes.update(members)
        refs.extend(found)
    for path in _python_files(consumers):
        refs.extend(_scan(path, None)[2])

    # a ``getattr`` prefix ``_on_*`` references every identifier that
    # starts with ``_on_``
    owners: Dict[str, List[Optional[str]]] = {}
    for ident, owner in refs:
        owners.setdefault(ident, []).append(owner)
    prefixes = [(ident[:-1], found) for ident, found in owners.items()
                if ident.endswith("*")]

    def referrers_of(qualified: str, ident: str) -> List[Optional[str]]:
        found = list(owners.get(ident, ()))
        for prefix, prefixed in prefixes:
            if ident.startswith(prefix):
                found.extend(prefixed)
        return [owner for owner in found if owner != qualified]

    referrers = {q: referrers_of(q, ident) for q, ident in defined.items()}

    def referenced(qualified: str, alive: Set[str]) -> bool:
        return any(owner is None or owner in alive
                   for owner in referrers[qualified])

    def settle(roots: Set[str]) -> Set[str]:
        # every name, private ones included, starts alive and dies when
        # no live owner other than itself references it, or, for a
        # member, when its class dies
        alive = set(defined)
        while True:
            dead = {q for q in alive if q not in roots and (
                classes.get(q, q) not in alive or not referenced(q, alive))}
            if not dead:
                return alive
            alive -= dead

    # allowed names, and the members of an allowed class, are roots; an
    # entry is stale when something runs it without the allowlist's help
    alive = settle({q for q in defined
                    if q in allowed or classes.get(q) in allowed})
    unreferenced = sorted(q for q in defined if q not in alive
                          and not defined[q].startswith("_"))
    free = settle(set())
    stale = sorted(q for q in allowed
                   if q not in defined or referenced(q, free))
    return unreferenced, stale


def test_every_public_name_is_run_by_something():
    unreferenced, stale = surface_violations(
        ROOT / "src" / "repro",
        [ROOT / "examples", ROOT / "benchmarks" / "e2e"], ALLOWED)
    assert unreferenced == []
    assert stale == []


def uncited(allowed: Mapping[str, str]) -> List[str]:
    """``allowed`` entries whose reason names no ROADMAP item."""
    return sorted(name for name, reason in allowed.items()
                  if not re.search(r"\bROADMAP item \d+", reason))


def test_every_allowance_cites_a_roadmap_item():
    assert uncited(ALLOWED) == []
    assert uncited({"pkg.kept": "only the tests call it",
                    "pkg.owned": "ROADMAP item 2a makes the CLI run it"}) == [
        "pkg.kept"]


def _quoted_names(node: ast.AST) -> Set[str]:
    """Names a quoted annotation inside ``node`` reads (``cell: "Cell"``)."""
    found: Set[str] = set()
    for operand in _type_operands(node):
        for child in ast.walk(operand or ast.Pass()):
            if isinstance(child, ast.Constant) and isinstance(child.value, str):
                try:
                    quoted = ast.parse(child.value, mode="eval")
                except SyntaxError:  # a ``Literal["..."]`` value
                    continue
                found |= {name.id for name in ast.walk(quoted)
                          if isinstance(name, ast.Name)}
    return found


def unused_imports(roots: Iterable[Path]) -> List[str]:
    """``<path>:<line> <name>`` for every name a module imports and never
    reads (see the module docstring); ``from __future__`` is not a
    binding."""
    found = []
    for path in _python_files(roots):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported: Dict[str, int] = {}
        read: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    binding = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(binding, node.lineno)
            elif isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Store):
                    read.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                read |= {entry.value for entry in ast.walk(node.value)
                         if isinstance(entry, ast.Constant)}
            read |= _quoted_names(node)
        found.extend(f"{path}:{line} {name}"
                     for name, line in imported.items() if name not in read)
    return found


def test_every_import_is_read():
    assert unused_imports(
        [ROOT / "src", ROOT / "tests", ROOT / "examples"]) == []


def test_import_gate_on_a_synthetic_tree(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "import numpy as np\n"
        "from typing import TYPE_CHECKING, Literal, Optional\n"
        "from pkg.other import exported, unread\n"
        "if TYPE_CHECKING:\n"
        "    from pkg.cell import Cell\n"
        "__all__ = ['exported']\n"
        "def area(r, cell: 'Cell') -> float:\n"
        "    import json\n"
        "    return math.pi * r * r\n"
        "np = None\n"
        "def pick(mode: Literal['fast path']) -> None:\n"
        "    pass\n")
    assert unused_imports([tmp_path]) == [
        f"{tmp_path / 'pkg' / 'mod.py'}:{line} {name}"
        for line, name in ((2, "os"), (3, "np"), (4, "Optional"),
                           (5, "unread"), (10, "json"))]


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


def test_a_type_test_or_annotation_is_not_a_reference(tmp_path):
    # ``Legacy`` is only tested for and ``Shape`` only annotated: nothing
    # builds either, so both die, and ``describe`` with its class
    msgs = """
from typing import Optional


class Legacy:
    def describe(self):
        return "legacy"


class Current:
    pass


class Shape:
    pass


def handle(message: Shape) -> Optional[Shape]:
    last: Shape = message
    if isinstance(message, (Legacy, Current)):
        return None
    return last
"""
    unreferenced, _ = _violations(tmp_path, {
        "src/pkg/msgs.py": msgs,
        "examples/demo.py": "from pkg.msgs import Current, handle\n\n"
                            "handle(Current())\n"})
    assert unreferenced == ["pkg.msgs.Legacy", "pkg.msgs.Legacy.describe",
                            "pkg.msgs.Shape", "pkg.util.helper"]


# -- class members on a synthetic tree ---------------------------------------

_CLASSES = """
from abc import ABC, abstractmethod


class Store:
    def __init__(self):
        self.items = []

    def add(self, item):
        self.items.append(item)

    def drop(self, item):
        self._forget(item)

    def _forget(self, item):
        self.compact()

    def compact(self):
        self.items = list(self.items)

    @property
    def size(self):
        return len(self.items)

    @property
    def empty(self):
        return not self.items


class Shape(ABC):
    @abstractmethod
    def area(self):
        ...

    @abstractmethod
    def perimeter(self):
        ...


class Square(Shape):
    def area(self):
        return 1.0

    def perimeter(self):
        return 4.0
"""

_USES_CLASSES = """from pkg.shapes import Square, Store

store = Store()
store.add(Square().area())
print(store.size)
"""


def _shapes(tmp_path, allowed=None, app=_USES_CLASSES):
    return _violations(tmp_path, {"src/pkg/shapes.py": _CLASSES,
                                  "src/pkg/app.py": app}, allowed)


def test_gate_flags_a_dead_method(tmp_path):
    unreferenced, _ = _shapes(tmp_path)
    assert "pkg.shapes.Store.drop" in unreferenced
    assert "pkg.shapes.Store.add" not in unreferenced


def test_gate_flags_a_method_only_a_dead_method_calls(tmp_path):
    # ``compact`` is called by ``_forget``, which only dead ``drop``
    # calls: all three die, and the public two are reported
    unreferenced, _ = _shapes(tmp_path)
    assert "pkg.shapes.Store.compact" in unreferenced
    assert not any(name.endswith("._forget") for name in unreferenced)


def test_gate_flags_a_dead_property(tmp_path):
    unreferenced, _ = _shapes(tmp_path)
    assert "pkg.shapes.Store.empty" in unreferenced
    assert "pkg.shapes.Store.size" not in unreferenced


def test_abstract_method_and_overrides_die_together(tmp_path):
    # nothing calls ``perimeter``: the abstract declaration and the
    # override go together, while ``area`` keeps both of its
    unreferenced, _ = _shapes(tmp_path)
    assert unreferenced == ["pkg.shapes.Shape.perimeter",
                            "pkg.shapes.Square.perimeter",
                            "pkg.shapes.Store.compact",
                            "pkg.shapes.Store.drop",
                            "pkg.shapes.Store.empty",
                            "pkg.util.helper"]


def test_a_dynamic_getattr_name_is_a_reference(tmp_path):
    conn = """
class Conn:
    def feed(self, kind):
        getattr(self, f"_on_{kind}")()
        if hasattr(self, "flush"):
            self.flush()

    def _on_ack(self):
        self.acked()

    def acked(self):
        return 1

    def flush(self):
        return 0

    def orphan(self):
        return self.acked()
"""
    unreferenced, _ = _violations(tmp_path, {
        "src/pkg/conn.py": conn,
        "examples/demo.py": "from pkg.conn import Conn\n\n"
                            "Conn().feed('ack')\n"})
    # ``_on_ack`` lives through the f-string prefix, so ``acked`` does
    # too; ``flush`` through the literal name
    assert unreferenced == ["pkg.conn.Conn.orphan", "pkg.util.helper"]


def test_members_of_an_allowed_class_are_roots(tmp_path):
    unreferenced, stale = _shapes(
        tmp_path, {"pkg.shapes.Store": "kept whole"}, app="")
    # Store and every member stay, and what they call stays with them;
    # the unreferenced shapes die
    assert unreferenced == ["pkg.shapes.Shape", "pkg.shapes.Shape.area",
                            "pkg.shapes.Shape.perimeter", "pkg.shapes.Square",
                            "pkg.shapes.Square.area",
                            "pkg.shapes.Square.perimeter", "pkg.util.helper"]
    assert stale == []


def test_a_stale_member_entry_fails(tmp_path):
    _, stale = _shapes(tmp_path, {
        "pkg.shapes.Store.drop": "kept",        # still unreferenced: fine
        "pkg.shapes.Store.add": "kept",         # referenced after all
        "pkg.shapes.Store.clear": "kept"})      # no longer defined
    assert stale == ["pkg.shapes.Store.add", "pkg.shapes.Store.clear"]
