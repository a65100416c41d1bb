"""A link's queue gauge is read, not set: ``Link._queue_gauge``.

``net.link.queue_depth`` used to be a ``Gauge`` each link set after
every change to its egress queue. It is now declared with
``MetricsRegistry.mirror`` and read from the link at export: ``(depth
now, 0, deepest)`` once anything has queued, with same-named links
folded in declaration order. The property test drives random sends,
offers, cuts, CoDel drops and touches through a ``twin`` link and a
``solo`` one, beside the frozen eager-gauge links of
``tests/reference/eager_gauge_link.py`` on a second simulator. At a
drawn step both simulators run dry and a second ``twin`` is built, as
E6 re-attaches ``client->ap0`` once the old link went quiet; from then
on the first ``twin`` gets no steps. After every step each row's value
and max, with their types, are the oracle's, and min is 0 on every row
that has a reading (the eager gauge's min was 1 until its queue first
drained, a figure no reader used).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.aqm import CoDelDiscipline
from repro.net.links import Link
from repro.net.packet import ECN_ECT, ECN_NOT_ECT, Packet
from repro.simcore.simulator import Simulator
from tests.reference.eager_gauge_link import EagerGaugeLink

#: the first ``twin``, the ``solo`` link, then the second ``twin``
NAMES = ("twin", "solo", "twin")
_CODEL_KWARGS = {"target_s": 0.005, "interval_s": 0.05}
#: 0 is the live ``twin`` (the first, then its successor), 1 ``solo``
_which = st.sampled_from([0, 1])
_sizes = st.sampled_from([60, 400, 1500])
_ecn = st.sampled_from([ECN_NOT_ECT, ECN_ECT])
_gaps = st.sampled_from([0.0, 0.001, 0.03, 0.2, 1.0])

_steps = st.lists(st.one_of(
    st.tuples(st.just("send"), _which, st.sampled_from([1, 5, 12]), _sizes,
              _ecn),
    st.tuples(st.just("send_at"), _which, _gaps, _sizes, _ecn),
    st.tuples(st.just("set_up"), _which, st.booleans()),
    st.tuples(st.just("set_aqm"), _which, st.sampled_from(["codel", None]),
              st.booleans()),
    st.tuples(st.just("touch"), _which),
    st.tuples(st.just("run"), _gaps),
), min_size=8, max_size=40)


def _gauge_rows(sim):
    return [(row["labels"]["link"],
             *((row[k], type(row[k])) for k in ("value", "min", "max")))
            for row in sim.metrics.snapshot()
            if row["name"] == "net.link.queue_depth"]


def _link(cls, sim, name):
    link = cls(sim, rate_bps=80_000.0, delay_s=0.02, queue_packets=8,
               name=name)
    link.connect(lambda packet: None)
    return link


def _build(cls):
    sim = Simulator(seed=0)
    return sim, [_link(cls, sim, name) for name in NAMES[:2]]


def _reattach(cls, sim, links):
    """Run dry, then build the second ``twin`` in the first's place."""
    sim.run()
    links[0] = _link(cls, sim, NAMES[2])


def _assert_rows_match(sim, eager_sim, step):
    rows, eager_rows = _gauge_rows(sim), _gauge_rows(eager_sim)
    assert len(rows) == len(eager_rows), step
    for (name, value, low, high), (eager_name, eager_value, _low,
                                   eager_high) in zip(rows, eager_rows):
        assert (name, value, high) == (eager_name, eager_value,
                                       eager_high), step
        assert low == ((0, int) if high[0] else (0.0, float)), step


def _apply(sim, links, step, last_at):
    op, *args = step
    if op == "run":
        sim.run(until=sim.now + args[0])
        return
    which, *args = args
    link = links[which]
    if op == "send":
        count, size, ecn = args
        for _ in range(count):
            link.send(Packet(src=None, dst=None, size_bytes=size, ecn=ecn))
    elif op == "send_at":
        gap, size, ecn = args
        last_at[which] = max(last_at[which], sim.now + gap)
        link.send_at(last_at[which], Packet(src=None, dst=None,
                                            size_bytes=size, ecn=ecn))
    elif op == "set_aqm":
        kind, ecn = args
        link.set_aqm(None if kind is None
                     else CoDelDiscipline(ecn=ecn, **_CODEL_KWARGS))
    elif op == "touch":
        link.queue_depth
    else:
        getattr(link, op)(*args)


@given(_steps, st.integers(min_value=0, max_value=40))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_read_queue_gauge_rows_are_the_eager_rows_after_every_step(
        steps, reattach_at):
    sim, links = _build(Link)
    eager_sim, eager_links = _build(EagerGaugeLink)
    last_at = [0.0, 0.0]
    eager_last_at = [0.0, 0.0]
    _assert_rows_match(sim, eager_sim, "start")
    for index, step in enumerate(steps):
        if index == reattach_at:
            _reattach(Link, sim, links)
            _reattach(EagerGaugeLink, eager_sim, eager_links)
            _assert_rows_match(sim, eager_sim, "reattach")
        _apply(sim, links, step, last_at)
        _apply(eager_sim, eager_links, step, eager_last_at)
        _assert_rows_match(sim, eager_sim, step)
    sim.run()
    eager_sim.run()
    _assert_rows_match(sim, eager_sim, "end")
