"""TTI engine vs scalar oracle: every experiment table is byte-identical.

The arena engine's acceptance contract is stronger than "numerically
close": every rendered experiment table must match the scalar walk in
``tests/reference/scalar_tti.py`` **byte for byte** — same floats, same
rounding, same row order. This reuses the small-but-real workloads from
``test_parallel_determinism.CASES`` (all 19 experiments) and runs each
once on production code and once with the oracle swapped in for
``Cell.schedule_tti`` / ``Cell.schedule_uplink_tti``.

Workers are forked, so a patched ``Cell`` in the parent governs
``--jobs`` runs too; a subset checks the production engine across the
real multiprocessing pool against the oracle run serially.
"""

import pytest

from repro.enodeb.cell import Cell
from repro.experiments import ALL_EXPERIMENTS

from tests.reference import scalar_tti
from tests.test_parallel_determinism import CASES, _render, _run_at

#: TTI-heavy experiments worth re-checking across the worker pool.
JOBS_SUBSET = [c for c in CASES if c[0] in ("E5", "E7", "E17", "E18")]


def _on_oracle(monkeypatch, run):
    """``run()`` with every cell on the scalar walk."""
    with monkeypatch.context() as patch:
        patch.setattr(Cell, "schedule_tti", scalar_tti.schedule_tti)
        patch.setattr(Cell, "schedule_uplink_tti",
                      scalar_tti.schedule_uplink_tti)
        return run()


@pytest.mark.parametrize("exp_id,kwargs", CASES,
                         ids=[c[0] for c in CASES])
def test_batch_tables_byte_identical(exp_id, kwargs, monkeypatch):
    def run():
        return _render(ALL_EXPERIMENTS[exp_id].run(**kwargs))
    assert run() == _on_oracle(monkeypatch, run)


@pytest.mark.parametrize("exp_id,kwargs", JOBS_SUBSET,
                         ids=[c[0] for c in JOBS_SUBSET])
def test_batch_tables_byte_identical_at_jobs_4(exp_id, kwargs, monkeypatch):
    parallel_production = _run_at(exp_id, kwargs, 4)
    serial_oracle = _on_oracle(monkeypatch,
                               lambda: _run_at(exp_id, kwargs, 1))
    assert parallel_production == serial_oracle
