"""Memory gates: what a sweep cell, an idle link and a UE leave resident.

They are measured with ``tracemalloc`` (Python allocations only, so the
figures repeat from run to run and do not depend on the allocator's
arenas or on ``ru_maxrss``).

- A simulator graph is cyclic (a link or agent holds its simulator, and
  the simulator's registry holds the owners it mirrors), so a finished
  cell is garbage only a full collection frees. ``parallel_map``'s
  serial loop collects between tasks; without that, a sweep of equal
  cells peaks at the sum of the cells still waiting for a generation-2
  pass instead of at one cell.
- A worker collects and freezes the same way after each reply, so the
  task it runs next does not build beside its predecessor's graph.
- Each such release point (and the CLI's, after each experiment) then
  freezes what survives, so the next collection walks only what the
  next task builds. A graph alive at a freeze that dies later is never
  freed, so no task may leave one behind: not through the CLI's locals,
  the telemetry hub or an invariants scope.
- An idle link (an attach storm builds thousands that never carry a
  packet) has no queue, flight or offer buffer until its first send,
  and no queue-depth gauge until somebody reads one.
- CPython shares an instance dict's keys with its class only up to 30
  attributes; past that every instance carries a private ~1.6 kB dict.
  Classes with more fields (links, agents, UEs, connections, APs) keep
  them in ``__slots__``, and a walk of what built cells reach holds
  every other ``repro`` object under the limit.
"""

import contextlib
import gc
import io
import tracemalloc
import types

from repro.__main__ import run_experiment
from repro.epc.agents import ControlAgent
from repro.experiments import e6_mobility as e6
from repro.experiments import e17_attach_storm as e17
from repro.experiments import e18_sustained_overload as e18
from repro.net.links import Link
from repro.net.packet import Packet
from repro.runner import parallel_map
from repro.simcore import Simulator

#: one protected dLTE attach-storm cell at intensity 8 (192 UEs)
CELL = ("dlte", 8, 3, 8, 3, "", 1.0, 15.0)


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


def test_a_task_after_the_first_starts_with_nothing_to_walk():
    tracked = []

    def task(cell):
        tracked.append(len(gc.get_objects()))  # the frozen set not counted
        return e17._run_cell(cell)

    parallel_map(task, [CELL] * 3, jobs=1)
    assert max(tracked[1:]) <= 100, (
        f"tasks started with {tracked} objects a collection walks")


#: a two-intensity E17 on two APs: four cells through the serial loop
_SMALL_E17 = dict(intensities=(1, 2), n_aps=2, ue_per_ap=2, horizon_s=6.0)


def test_nothing_a_task_built_survives_its_release_point(tmp_path):
    from repro.invariants import armed

    gc.unfreeze()
    gc.collect()
    telemetry = dict(metrics_out=str(tmp_path / "m.csv"),
                     trace_out=str(tmp_path / "t.jsonl"))
    with contextlib.redirect_stdout(io.StringIO()):
        with armed():
            run_experiment("E17", exp_args=_SMALL_E17)
        run_experiment("E16", profile=True, **telemetry)
        run_experiment("E17", exp_args=_SMALL_E17, **telemetry)
    flags = gc.get_debug()
    gc.unfreeze()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        left = sorted({type(obj).__name__ for obj in gc.garbage
                       if isinstance(obj, (Simulator, Link, ControlAgent))})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert left == [], f"frozen alive, freed only by an unfreeze: {left}"


def _build_or_probe(item):
    """A worker task: run a storm cell and ship nothing of it home, or
    (``"probe"``) name the live graph objects a collection would walk."""
    if item != "probe":
        e17._run_cell(item)
        return None
    return sorted({type(obj).__name__ for obj in gc.get_objects()
                   if isinstance(obj, (Simulator, Link, ControlAgent))})


def test_a_worker_task_starts_with_nothing_of_its_predecessor_alive():
    # each worker's first task builds a cell, so every probe runs on a
    # worker that built one; the probe collects nothing itself
    probes = parallel_map(_build_or_probe, [CELL, CELL, "probe", "probe"],
                          jobs=2)[2:]
    assert probes == [[], []], (
        f"a worker kept its last task's graph into the next: {probes}")


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
    assert per_link <= 1000, f"an idle link costs {per_link:.0f} B"


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


def _held_at_harvest(intensity):
    """Bytes an E17 dLTE cell holds when its storm is over: read as the
    cell starts its harvest, with every UE, agent and link still live."""
    held = []
    harvest = e17.iter_control_agents

    def read_then_harvest(net):
        held.append(tracemalloc.get_traced_memory()[0])
        return harvest(net)

    e17.iter_control_agents = read_then_harvest
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        e17._run_cell(("dlte", intensity, *CELL[2:]))
    finally:
        tracemalloc.stop()
        e17.iter_control_agents = harvest
    return held[0] - base


def test_one_more_storm_ue_costs_under_10_kb():
    # a first cell pays the process's lazy imports and caches; charged
    # to the smaller cell they would hide ~7 kB of every UE
    _held_at_harvest(1)
    n_ues = CELL[2] * CELL[3]  # UEs per unit of intensity
    per_ue = (_held_at_harvest(8) - _held_at_harvest(4)) / (4 * n_ues)
    assert per_ue <= 10_000, f"one more E17 UE holds {per_ue:.0f} B"


#: types a walk does not enter: code, modules and classes reach the
#: whole interpreter, not the cell
_OPAQUE = (type, types.ModuleType, types.FunctionType, types.CodeType,
           types.BuiltinFunctionType)


def _reachable(roots):
    """Every object reachable from ``roots`` through instances and
    containers (a function contributes its closure, a frame its
    locals)."""
    seen = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ()
                         if cell.cell_contents is not None)
        elif isinstance(obj, types.FrameType):
            stack.extend(obj.f_locals.values())
        elif not isinstance(obj, _OPAQUE):
            stack.extend(gc.get_referents(obj))


def test_no_built_object_keeps_more_than_30_keys_in_its_dict(monkeypatch):
    built = []
    monkeypatch.setattr(Simulator, "arming", built.append)
    e6.run(dwells_s=[1.0])
    e17.run(intensities=(1, 4), n_aps=2, ue_per_ap=3, horizon_s=12.0)
    e18.run(loads=(0.5, 5.0), n_aps=1, ue_per_ap=3, settle_s=4.0,
            warmup_s=1.0, measure_s=8.0)
    widest = {}
    for obj in _reachable(built):
        cls = type(obj)
        if not cls.__module__.startswith("repro."):
            continue
        keys = len(getattr(obj, "__dict__", ()))
        widest[cls.__qualname__] = max(keys, widest.get(cls.__qualname__, 0))
    # the walk reached the classes that needed slots
    assert {"Link", "UserEquipment", "LocalCoreStub", "Mme",
            "TcpConnection", "QuicConnection",
            "DLTEAccessPoint"} <= set(widest)
    over = {name: keys for name, keys in widest.items() if keys > 30}
    assert not over, f"instance dicts past CPython's 30 shared keys: {over}"
