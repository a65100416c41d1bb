"""Deterministic CSMA step gate: counts ``_step`` executions, times nothing.

``CsmaSimulation.run`` advances by next event: it executes a slot
through ``_step`` only when a frame ends or starts in it, and applies
the quiet slots in between in bulk. So a run may execute at most one
``_step`` per frame boundary (plus one per ``run()`` call of slack),
however many slots it covers. A future change that falls back to
stepping every slot fails here, in tier-1, not in a noisy bench.
"""

import numpy as np
import pytest

from repro.experiments import e5_coordination as E5
from repro.experiments import e8_hidden_terminal as E8
from repro.mac.csma import CsmaNode, CsmaSimulation


@pytest.fixture
def csma_ledger(monkeypatch):
    """Count ``_step`` and ``run`` calls; remember every simulation run."""
    ledger = {"steps": 0, "runs": 0, "sims": []}
    real_step, real_run = CsmaSimulation._step, CsmaSimulation.run

    def counting_step(self):
        ledger["steps"] += 1
        real_step(self)

    def counting_run(self, slots):
        ledger["runs"] += 1
        ledger["sims"].append(self)
        return real_run(self, slots)

    monkeypatch.setattr(CsmaSimulation, "_step", counting_step)
    monkeypatch.setattr(CsmaSimulation, "run", counting_run)
    return ledger


def _frame_boundaries(ledger):
    """Frames started plus frames completed, over every simulation run."""
    return sum(n.sent + n.delivered + n.collided
               for sim in ledger["sims"] for n in sim.nodes.values())


def test_e5_wifi_arm_steps_only_at_frame_boundaries(csma_ledger):
    E5._wifi_arm(n_aps=2, ue_per_ap=4, seed=2, asymmetric_load=True)
    boundaries = _frame_boundaries(csma_ledger)
    assert boundaries > 0
    assert csma_ledger["steps"] <= boundaries + csma_ledger["runs"]


def test_e8_dense_field_steps_only_at_frame_boundaries(csma_ledger):
    _positions, hears = E8._field(24, 6000.0, seed=5)
    E8._csma_arm(hears, seed=5)
    boundaries = _frame_boundaries(csma_ledger)
    assert boundaries > 0
    assert csma_ledger["steps"] <= boundaries + csma_ledger["runs"]


def test_idle_domain_is_one_jump(csma_ledger):
    nodes = [CsmaNode("a", hears=frozenset({"b"}), saturated=False),
             CsmaNode("b", hears=frozenset({"a"}), saturated=False)]
    sim = CsmaSimulation(nodes, np.random.default_rng(0))
    result = sim.run(10**9)
    assert csma_ledger["steps"] <= 1
    assert (result.slots, result.busy_slots) == (10**9, 0)
