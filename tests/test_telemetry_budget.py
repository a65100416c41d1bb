"""Deterministic telemetry overhead gate: counts calls, times nothing.

OBSERVABILITY.md budgets an always-on observation at a few adds and a
bisect. The cost that broke that budget was a streaming P² tracker
update per sample on histograms whose quantiles nobody read, so the
gate is on exactly that: a run that declares no quantile reader (E5,
the TTI loop) must make zero ``P2Quantile.observe`` calls, and a run
that declares one (E17's SLA histogram) must make some. A future
always-on tracker fails here, in tier-1, not in a noisy bench.
"""

import pytest

from repro.experiments import e5_coordination as E5
from repro.experiments import e17_attach_storm as E17
from repro.telemetry.registry import P2Quantile


@pytest.fixture
def p2_calls(monkeypatch):
    calls = [0]
    real = P2Quantile.observe

    def counting_observe(self, x):
        calls[0] += 1
        real(self, x)

    monkeypatch.setattr(P2Quantile, "observe", counting_observe)
    return calls


def test_tti_loop_pays_for_no_quantile_tracker(p2_calls):
    E5.run(n_aps=1, ue_per_ap=16)
    assert p2_calls[0] == 0


def test_declared_sla_reader_is_tracked(p2_calls):
    table = E17.run(intensities=(1,))
    assert p2_calls[0] > 0
    assert all(row["p99_s"] > 0.0 for row in table.rows)
