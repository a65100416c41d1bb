"""Differential test: ``CsmaSimulation.run`` against the bare slot loop.

``run(n)`` jumps from frame boundary to frame boundary; the oracle is
``_step()`` called ``n`` times on a twin built from the same inputs.
After every chunk the two must hold the same state — node counters,
in-flight overlap sets, busy slots, RNG position and telemetry — on
random hearing graphs that include what the experiments do not:
asymmetric hearing, hidden pairs, unsaturated receivers, backoffs that
start at 0, one-slot frames and ``run()`` split at arbitrary points.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac.csma import CsmaNode, CsmaSimulation
from repro.telemetry import MetricsRegistry


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    ids = [f"n{i}" for i in range(n)]
    specs = []
    for nid in ids:
        others = [o for o in ids if o != nid]
        hears = frozenset(draw(st.sets(st.sampled_from(others)))
                          if others else ())
        destination = (draw(st.one_of(st.none(), st.sampled_from(others)))
                       if others else None)
        specs.append((nid, hears, destination, draw(st.booleans())))
    return {
        "specs": specs,
        "frame_slots": draw(st.sampled_from([1, 2, 7, 50])),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        # nodes whose initial backoff is forced to 0 (a draw of 0 is rare)
        "zeroed": draw(st.sets(st.sampled_from(ids))),
        "chunks": draw(st.lists(st.integers(min_value=0, max_value=400),
                                min_size=1, max_size=6)),
    }


def _build(scenario):
    nodes = [CsmaNode(nid, hears=hears, destination=dest, saturated=sat)
             for nid, hears, dest, sat in scenario["specs"]]
    registry = MetricsRegistry()
    sim = CsmaSimulation(nodes, np.random.default_rng(scenario["seed"]),
                         frame_slots=scenario["frame_slots"],
                         metrics=registry)
    for nid in scenario["zeroed"]:
        sim.nodes[nid].backoff = 0
    return sim, registry


def _state(sim, registry):
    return {
        "nodes": {nid: (n.backoff, n.cw, n.tx_remaining,
                        n.sent, n.delivered, n.collided)
                  for nid, n in sim.nodes.items()},
        "overlaps": sim._overlaps,
        "busy_slots": sim.busy_slots,
        "rng": sim.rng.bit_generator.state,
        "instruments": registry.snapshot(),
        "backoff_buckets": registry.histogram(
            "mac.csma.backoff_slots").bucket_counts,
    }


@given(scenarios())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_run_equals_stepping_every_slot(scenario):
    fast, fast_registry = _build(scenario)
    oracle, oracle_registry = _build(scenario)
    total = 0
    for chunk in scenario["chunks"]:
        result = fast.run(chunk)
        for _ in range(chunk):
            oracle._step()
        total += chunk
        assert _state(fast, fast_registry) == _state(oracle, oracle_registry)
        assert result.slots == total
        assert result.busy_slots == oracle.busy_slots
        assert result.delivered == {nid: n.delivered
                                    for nid, n in oracle.nodes.items()}
        assert result.collided == {nid: n.collided
                                   for nid, n in oracle.nodes.items()}
