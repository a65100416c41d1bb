"""Structural rules: design decisions the tree keeps, checked by pattern.

Each ``RULES`` row names a decision, the extended regular expression
(``grep -E`` syntax, matched line by line) whose appearance would undo
it, the paths it scans, the hits it exempts, and why it holds. A root
that ends in ``/`` scans every file under that directory; any other root
is a glob relative to the repository. ``__pycache__`` directories are not
part of the tree. An exemption is a regular expression searched in the
hit as ``grep -n`` prints it, ``path:line:text``.

``MUTANTS`` holds, per rule, one line written into a file of a temporary
tree that the rule must catch, and the rules are checked against
``grep -E`` itself: on this tree and on every mutant, Python's ``re`` and
``grep`` must report the same lines before exemptions.
"""

from __future__ import annotations

import re
import shutil
import subprocess
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent


class Rule(NamedTuple):
    name: str
    pattern: str
    roots: Tuple[str, ...]
    exempt: Tuple[str, ...]
    why: str


RULES: Tuple[Rule, ...] = (
    Rule("one-ledger-counter",
         "_m_delivered|_m_bytes|_m_drops|_m_marks|_m_messages|_m_dropped"
         "|_m_processed",
         ("src/repro/net/", "src/repro/epc/agents.py"), (),
         "net.link.*, epc.channel.* and epc.agent.processed are read off "
         "the attributes (MetricsRegistry.mirror); a cached Counter beside "
         "one of them is a second copy of a ledger counter"),
    Rule("lazy-package-exports",
         r"^(from|import) repro\.",
         ("src/repro/**/__init__.py",), (r"from repro\._lazy import ",),
         "every package __init__ lists its names in a repro._lazy table; "
         "an eager sibling import loads what the caller may never run "
         "(TYPE_CHECKING blocks are indented and do not match)"),
    Rule("no-topology-walker",
         r"watch_network|watch_topology|_iter_nodes|invariants(: bool)? *="
         r"|[(,] *invariants[,)]",
         ("src/repro/",), (),
         "what is audited is decided in the constructors (one "
         "`sim.checker is not None`) and --invariants is the only door; "
         "no walker and no per-experiment keyword"),
    # the pattern and its mutant are split so that this file, which the
    # rule scans, does not match itself
    Rule("one-harness-one-dependency",
         "import" " networkx|bench" "_runner",
         ("src/", "benchmarks/*.py", "tests/", "README.md",
          "EXPERIMENTS.md"), (),
         "BENCHMARK.json + benchmarks/e2e/ is the only measuring "
         "instrument and numpy the only dependency"),
    Rule("gc-in-two-places",
         r"gc\.(collect|freeze)",
         ("src/",),
         (r"^src/repro/(runner/supervisor|runner/worker|__main__)\.py:",),
         "each release point (between tasks of parallel_map's inline "
         "loop, after a worker sends a task's reply, after each "
         "experiment of the CLI) collects the finished task and then "
         "freezes the survivors, so later collections walk only what the "
         "next task builds; a collection anywhere else (a shard window, a "
         "hot loop) sits on a critical path"),
    Rule("no-per-message-queue-gauge",
         r"_m_queue|queue_depth.*\.set\(",
         ("src/repro/epc/", "src/repro/net/"), (),
         "epc.agent.queue_depth and net.link.queue_depth are read from "
         "their owner at export; a gauge set on every enqueue and dequeue "
         "was two calls per control message and per packet"),
    Rule("e9-computes-x2-rates",
         "Simulator|X2Endpoint",
         ("src/repro/experiments/e9_x2_bandwidth.py",), (),
         "every E9 cell is ticks * (n - 1) * LoadInformation.size_bytes / "
         "duration_s; the simulated mesh it replaced is the oracle in "
         "tests/reference/e9_reporting.py"),
    Rule("one-tti-path",
         "_assign_batch|allocate_batch|batch_mode|set_batch_default"
         "|REPRO_BATCH_TTI|scalar.tti|path_loss_db_exact_many",
         ("src/",), (),
         "the scalar twins live under tests/reference/ only; no twin, and "
         "no switch that selects one, in the package"),
    Rule("no-mirrored-column",
         r"arrays_stale|_backlog_stale|sinr_arr|eff_arr|b_arr|sinr_l\b"
         "|PacketPool|_SEGMENT_POOL",
         ("src/",), (),
         "every per-UE column is stored once (no list + array twins, no "
         "staleness flags to keep them in step) and a segment is a plain "
         "Packet(...)"),
    Rule("no-attached-set-scan",
         "_scan_rows",
         ("src/",), (),
         "a write to a Radio marks its own arena row; no per-TTI poll over "
         "every attached UE"),
    Rule("one-link-admission-path",
         "_managed|_enable_managed",
         ("src/",), (),
         "every link keeps the byte ledger on the one _admit/_advance; no "
         "mode flag that selects a twin"),
    Rule("one-event-per-arrival",
         r"post_keyed|ran_below|arrivals_parked|_admit_parked|_unpark\b"
         r"|\.parkers",
         ("src/",), (),
         "every control arrival is one heap event posted at send time, as "
         "tests/reference/control.py runs it; an arrival parked on a busy "
         "agent and admitted lazily is a second queue a reader can see"),
    Rule("grants-are-counts",
         r"frozenset\(|sorted\(prbs\)",
         ("src/repro/mac/schedulers.py", "src/repro/mac/uplink.py",
          "src/repro/mac/arena.py", "src/repro/enodeb/cell.py"), (),
         "a TTI grants PRB counts (SINR is wideband, so no reader needs "
         "which PRB a UE got); the PRB sets each policy implies are the "
         "oracle's, in tests/reference/scalar_tti.py"),
    Rule("queue-gauges-are-readings",
         r"StampedQueue|_share_gauge|_queue_min",
         ("src/repro/",), (),
         "a mirrored queue gauge reads (depth, 0, peak) off its owner and "
         "same-named owners fold in declaration order; no queue stamps "
         "its changes and no hot path keeps a refill flag for a row that "
         "only two live same-named owners could tell apart"),
    Rule("links-draw-no-randomness",
         r"\.rng\(|\.random\(",
         ("src/repro/net/",), (),
         "a hop's verdict depends on time and queue state alone: no random "
         "loss and no random early drop, so no per-link stream whose draw "
         "order a change to admission would have to keep"),
    Rule("a-ue-context-is-fixed-at-attach",
         "_context_written|demand_version|backlog_bits|harq_enabled"
         "|harq_max_retx",
         ("src/repro/",), (),
         "every UE is full-buffer with its demand fixed at attach: a "
         "UeRadioContext is frozen and a new demand is a detach plus an "
         "attach, and HARQ always runs at repro.phy.harq's default; no "
         "context watcher, demand version, backlog column or per-cell "
         "HARQ switch for a write that no experiment makes"),
    Rule("a-process-error-fails-the-run",
         r"ProcessKilled|EventCancelled|is_alive\b",
         ("src/repro/simcore/", "src/repro/workloads/"), (),
         "a process is a generator the simulator steps: an exception in "
         "its body propagates out of Simulator.run(), and no event is "
         "failed or cancelled and no process killed, so a loop that dies "
         "cannot leave the run printing tables computed without it"),
    Rule("one-shedding-rule",
         r"DetachRequest|DeleteSessionRequest|deadline_s|policy\.shed\b"
         "|\\bshed: str|\\bshed=[\"']",
         ("src/repro/",), (),
         "an agent's overload rule is priority eviction with a queue-full "
         "fallback, and no experiment runs a detach: no shedding-discipline "
         "field, no queue deadline and no NAS detach procedure for what "
         "only tests reached"),
    Rule("a-span-is-kept-where-it-is-read",
         r"_MAX_FINISHED|span_trackers|__enter__"
         r"|\b(categories|parent)(=|: Optional)",
         ("src/repro/telemetry/", "src/repro/simcore/",
          "src/repro/__main__.py"), (),
         "a finished span feeds its histogram, the tracker's post-mortem "
         "tail and, in a traced run, the tracer; no archive of every span "
         "per simulator, no span tracker shipped home or exported, no "
         "with-block or parent nesting that no procedure uses, and no "
         "record-time category filter in the tracer"),
)

#: rule name -> (path, line): a file holding the line must fail the rule
MUTANTS: Dict[str, Tuple[str, str]] = {
    "one-ledger-counter": (
        "src/repro/net/links.py",
        'self._m_delivered = metrics.counter("net.link.delivered")'),
    "lazy-package-exports": (
        "src/repro/net/__init__.py", "from repro.net.links import Link"),
    "no-topology-walker": (
        "src/repro/experiments/e16_chaos.py",
        "def run(seed: int = 3, invariants: bool = False):"),
    "one-harness-one-dependency": (
        "src/repro/coordination/mesh.py", "import" " networkx as nx"),
    "gc-in-two-places": (
        "src/repro/simcore/sharded.py", "gc.collect()"),
    "no-per-message-queue-gauge": (
        "src/repro/epc/agents.py", "self._m_queue.set(len(self._queue))"),
    "e9-computes-x2-rates": (
        "src/repro/experiments/e9_x2_bandwidth.py",
        "from repro.simcore.simulator import Simulator"),
    "one-tti-path": (
        "src/repro/enodeb/cell.py", "def _assign_batch(self, users):"),
    "no-mirrored-column": (
        "src/repro/mac/arena.py", "self.sinr_arr = np.array(self.sinr_l)"),
    "no-attached-set-scan": (
        "src/repro/enodeb/cell.py", "self._scan_rows()"),
    "one-link-admission-path": (
        "src/repro/net/links.py", "if self._managed:"),
    "one-event-per-arrival": (
        "src/repro/epc/agents.py",
        "self.sim.post_keyed(at, seq, self.enqueue, message)"),
    "grants-are-counts": (
        "src/repro/mac/schedulers.py",
        "result = {uid: frozenset(grants[uid]) for uid in grants}"),
    "queue-gauges-are-readings": (
        "src/repro/epc/agents.py",
        "self._queue = StampedQueue(self._queue, self.sim.seq.__next__)"),
    "links-draw-no-randomness": (
        "src/repro/net/links.py",
        "if self._loss_rng.random() < self.loss_rate:"),
    "a-ue-context-is-fixed-at-attach": (
        "src/repro/enodeb/cell.py",
        'backlog_bits: float = float("inf")'),
    "a-process-error-fails-the-run": (
        "src/repro/workloads/traffic.py",
        "if self._process is not None and self._process.is_alive:"),
    "one-shedding-rule": (
        "src/repro/epc/overload.py", '    shed: str = "drop-tail"'),
    "a-span-is-kept-where-it-is-read": (
        "src/repro/telemetry/spans.py", "_MAX_FINISHED = 100_000"),
}

#: (path, line number, text) of one line that matched a rule's pattern
_Hit = Tuple[str, int, str]


def _files(tree: Path, rule: Rule) -> List[str]:
    """The files ``rule`` scans in ``tree``, as sorted relative paths."""
    found = set()
    for root in rule.roots:
        pattern = root + "**/*" if root.endswith("/") else root
        found.update(path for path in tree.glob(pattern)
                     if path.is_file() and "__pycache__" not in path.parts)
    return sorted(str(path.relative_to(tree)) for path in found)


@lru_cache(maxsize=None)
def _lines(path: Path) -> Tuple[str, ...]:
    return tuple(path.read_bytes().decode("utf-8", "replace").split("\n"))


def _matches(tree: Path, rule: Rule) -> List[_Hit]:
    """Every line of the scanned files that the pattern matches."""
    regex = re.compile(rule.pattern)
    return [(rel, number, text) for rel in _files(tree, rule)
            for number, text in enumerate(_lines(tree / rel), 1)
            if regex.search(text)]


def _violations(tree: Path, rule: Rule) -> List[str]:
    hits = (f"{rel}:{number}:{text}"
            for rel, number, text in _matches(tree, rule))
    return [hit for hit in hits
            if not any(re.search(exempt, hit) for exempt in rule.exempt)]


def _grep(tree: Path, rule: Rule) -> List[Tuple[str, int]]:
    """``(path, line)`` of every line ``grep -E`` matches in the same files."""
    files = _files(tree, rule)
    if not files:
        return []
    out = subprocess.run(["grep", "-HnE", "-e", rule.pattern, "--", *files],
                         cwd=tree, capture_output=True)
    assert out.returncode in (0, 1), out.stderr
    hits = []
    for line in out.stdout.decode("utf-8", "replace").splitlines():
        rel, number, _ = line.split(":", 2)
        hits.append((rel, int(number)))
    return hits


def _mutant_tree(tmp_path: Path, rule: Rule) -> Path:
    rel, line = MUTANTS[rule.name]
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(line + "\n")
    return tmp_path


_IDS = [rule.name for rule in RULES]


def test_the_tree_keeps_every_rule():
    broken = {rule.name: _violations(ROOT, rule) for rule in RULES}
    assert {name: hits for name, hits in broken.items() if hits} == {}
    assert all(rule.why.strip() for rule in RULES)
    assert sorted(MUTANTS) == sorted(_IDS)


@pytest.mark.parametrize("rule", RULES, ids=_IDS)
def test_each_rule_catches_its_mutant(tmp_path, rule):
    assert _violations(_mutant_tree(tmp_path, rule), rule) != []


@pytest.mark.skipif(shutil.which("grep") is None, reason="needs grep")
@pytest.mark.parametrize("rule", RULES, ids=_IDS)
def test_re_matches_the_lines_grep_matches(tmp_path, rule):
    for tree in (ROOT, _mutant_tree(tmp_path, rule)):
        assert [hit[:2] for hit in _matches(tree, rule)] == \
            _grep(tree, rule)
