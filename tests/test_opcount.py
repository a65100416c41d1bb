"""``tools/opcount.py`` counts interpreter work, and the count repeats.

Two counts of one tree are equal to the unit. A copy of the tree with
one extra loop planted in a function the workload runs counts more. The
workload is ``radio_mobile`` at its smoke arguments (under a million
opcodes), read from the tree's own ``benchmarks/e2e/workloads.py``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "opcount.py"

#: appended to the copy's ``repro/enodeb/cell.py``: every downlink TTI
#: runs a hundred more loop iterations and changes nothing else
_PLANTED = '''

_schedule_tti = Cell.schedule_tti


def _padded_schedule_tti(self, *args, **kwargs):
    for _ in range(100):
        pass
    return _schedule_tti(self, *args, **kwargs)


Cell.schedule_tti = _padded_schedule_tti
'''


def _compare(parent, change):
    """``{field: (parent count, change count)}`` for ``radio_mobile``."""
    out = subprocess.run(
        [sys.executable, str(TOOL), "radio_mobile", "--smoke",
         "--tree", str(parent), "--tree", str(change)],
        check=True, capture_output=True, text=True, timeout=300).stdout
    header, row = (line.split("\t") for line in out.splitlines()[-2:])
    cells = dict(zip(header, row))
    return {field: tuple(int(cells[f"{field}[{i}]"].replace(",", ""))
                         for i in (0, 1))
            for field in ("opcodes", "lines", "calls")}


def _planted_copy(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src" / "repro", tree / "src" / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tree / "benchmarks" / "e2e").mkdir(parents=True)
    shutil.copy(ROOT / "benchmarks" / "e2e" / "workloads.py",
                tree / "benchmarks" / "e2e" / "workloads.py")
    cell = tree / "src" / "repro" / "enodeb" / "cell.py"
    cell.write_text(cell.read_text() + _PLANTED)
    return tree


def test_two_counts_of_one_tree_are_equal():
    counts = _compare(ROOT, ROOT)
    for field, (first, second) in counts.items():
        assert first == second > 0, field


def test_a_planted_loop_moves_the_count(tmp_path):
    counts = _compare(ROOT, _planted_copy(tmp_path))
    base, planted = counts["opcodes"]
    # 2 cells x 40 TTIs, each running the padded loop (>= 3 opcodes
    # per iteration) on top of its unchanged work
    assert planted - base >= 2 * 40 * 100 * 3
    assert counts["calls"][1] - counts["calls"][0] == 2 * 40
