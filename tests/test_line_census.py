"""``tools/line_census.py`` runs and tells run lines from unrun ones.

E3 sweeps range on the Okumura-Hata model through its vectorized
``path_loss_db_many`` and never builds a log-distance model, so the
census over E3 alone must list ``LogDistance.path_loss_db`` as never
called and must not say that of ``OkumuraHata.path_loss_db_many``.
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


def test_census_over_e3_finds_the_unrun_model(tmp_path):
    out = tmp_path / "census.txt"
    subprocess.run([sys.executable, str(ROOT / "tools" / "line_census.py"),
                    "E3", "--no-examples", "--out", str(out)],
                   check=True, cwd=tmp_path, timeout=300)
    report = out.read_text()
    ran, total = (int(n.replace(",", "")) for n in
                  report.splitlines()[1].split()[1:4:2])
    assert 0 < ran < total
    listed = _functions(report, "repro/phy/propagation.py")
    assert "LogDistance.path_loss_db [never called]" in listed
    assert "OkumuraHata.path_loss_db_many [never called]" not in listed
