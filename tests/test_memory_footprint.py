"""Memory gates: what a sweep cell and an idle link leave resident.

Both are measured with ``tracemalloc`` (Python allocations only, so the
figures repeat from run to run and do not depend on the allocator's
arenas or on ``ru_maxrss``).

- A simulator graph is cyclic (a link or agent holds its simulator, and
  the simulator's registry holds the owners it mirrors), so a finished
  cell is garbage only a full collection frees. ``parallel_map``'s
  serial loop collects between tasks; without that, a sweep of equal
  cells peaks at the sum of the cells still waiting for a generation-2
  pass instead of at one cell.
- An idle link (an attach storm builds thousands that never carry a
  packet) has no queue, flight or offer buffer until its first send.
"""

import gc
import tracemalloc

from repro.experiments import e17_attach_storm as e17
from repro.net.links import Link
from repro.net.packet import Packet
from repro.runner import parallel_map
from repro.simcore import Simulator

#: one protected dLTE attach-storm cell at intensity 8 (192 UEs)
CELL = ("dlte", 8, 3, 8, 3, "", True, 1.0, 15.0)


def _traced_peak(fn):
    """Bytes ``fn()`` holds at its peak above what was live before."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_a_serial_sweep_peaks_at_one_cell_not_at_their_sum():
    one = _traced_peak(lambda: parallel_map(e17._run_cell, [CELL], jobs=1))
    three = _traced_peak(
        lambda: parallel_map(e17._run_cell, [CELL] * 3, jobs=1))
    assert three <= 1.1 * one, (
        f"three equal cells peaked at {three / 1e6:.1f} MB, one at "
        f"{one / 1e6:.1f} MB: a finished cell outlived its task")


def _receiver(packet):
    pass


def test_an_idle_link_costs_no_buffers():
    sim = Simulator(seed=1)
    Link(sim, 1e6, 1e-3, name="warm").connect(_receiver)
    n = 200
    links = []

    def build():
        for i in range(n):
            link = Link(sim, 1e6, 1e-3, name=f"idle{i}")
            link.connect(_receiver)
            links.append(link)

    per_link = _traced_peak(build) / n
    assert per_link <= 2800, f"an idle link costs {per_link:.0f} B"


def test_an_idle_link_reads_empty_and_opens_on_first_send():
    sim = Simulator(seed=1)
    got = []
    link = Link(sim, 8000.0, 0.0, name="lazy")
    link.connect(got.append)
    assert link.recall_offers(0.0) == []
    assert (link.in_flight, link.in_flight_bytes, link.queue_depth) == (0, 0, 0)
    link.set_up(False)
    link.set_up(True)
    for _ in range(2):
        link.send(Packet(src=None, dst=None, size_bytes=1000))
    assert link.queue_depth == 1
    sim.run()
    assert len(got) == 2 and link.in_flight == 0
