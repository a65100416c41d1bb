"""``tools/line_census.py`` runs and tells run lines from unrun ones.

E3 sweeps range on the Okumura-Hata model through its vectorized
``path_loss_db_many`` and never builds a log-distance model, so the
census over E3 alone must list ``LogDistance.path_loss_db`` as never
called and must not say that of ``OkumuraHata.path_loss_db_many``. The
flags after ``--`` reach the CLI: under ``--invariants`` the arming
scope runs, and the header says so. ``--jobs`` above 1 is refused,
because forked workers are not traced.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _functions(report: str, rel: str):
    """``{function: line ranges}`` listed under ``## rel``."""
    section = report.split(f"\n## {rel}\n", 1)[1].split("\n## ", 1)[0]
    return dict(line.split(": ", 1) for line in section.splitlines()
                if line)


def _census(tmp_path, *args):
    out = tmp_path / "census.txt"
    subprocess.run([sys.executable, str(ROOT / "tools" / "line_census.py"),
                    "E3", "--no-examples", "--out", str(out), *args],
                   check=True, cwd=tmp_path, timeout=300)
    return out.read_text()


def test_census_over_e3_finds_the_unrun_model(tmp_path):
    report = _census(tmp_path)
    ran, total = (int(n.replace(",", "")) for n in
                  report.splitlines()[1].split()[1:4:2])
    assert 0 < ran < total
    listed = _functions(report, "repro/phy/propagation.py")
    assert "LogDistance.path_loss_db [never called]" in listed
    assert "OkumuraHata.path_loss_db_many [never called]" not in listed
    assert "armed [never called]" in _functions(
        report, "repro/invariants/arming.py")


def test_flags_after_the_separator_reach_the_cli(tmp_path):
    report = _census(tmp_path, "--", "--invariants")
    assert report.splitlines()[0].endswith("python -m repro E3 --invariants")
    listed = _functions(report, "repro/invariants/arming.py")
    assert "armed [never called]" not in listed


def test_a_forking_run_is_refused(tmp_path):
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "line_census.py"), "E3",
         "--no-examples", "--", "--jobs", "2"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 2
    assert "--jobs above 1" in run.stderr
