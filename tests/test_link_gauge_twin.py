"""A link's queue gauge is read, not set: ``Link._queue_gauge``.

``net.link.queue_depth`` used to be a ``Gauge`` each link set after
every change to its egress queue. It is now declared with
``MetricsRegistry.mirror`` and read from the link at export; links that
share a name (E6 re-attaches ``client->ap0``) stamp their queue changes
so the shared row still takes its value from the link that changed
last. The property test drives random sends, offers, cuts, CoDel drops
and touches through two same-named links and one of their own,
beside the frozen eager-gauge links of
``tests/reference/eager_gauge_link.py`` on a second simulator, and
requires equal ``net.link.queue_depth`` rows, values and types, after
every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.aqm import CoDelDiscipline
from repro.net.links import Link
from repro.net.packet import ECN_ECT, ECN_NOT_ECT, Packet
from repro.simcore.simulator import Simulator
from tests.reference.eager_gauge_link import EagerGaugeLink

#: two links share a name, the third has its own
NAMES = ("twin", "twin", "solo")
_CODEL_KWARGS = {"target_s": 0.005, "interval_s": 0.05}
_which = st.sampled_from(range(len(NAMES)))
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


def _build(cls):
    sim = Simulator(seed=0)
    links = [cls(sim, rate_bps=80_000.0, delay_s=0.02, queue_packets=8,
                 name=name) for name in NAMES]
    for link in links:
        link.connect(lambda packet: None)
    return sim, links


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


@given(_steps)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_read_queue_gauge_rows_are_the_eager_rows_after_every_step(steps):
    sim, links = _build(Link)
    eager_sim, eager_links = _build(EagerGaugeLink)
    last_at = [0.0] * len(NAMES)
    eager_last_at = [0.0] * len(NAMES)
    assert _gauge_rows(sim) == _gauge_rows(eager_sim)
    for step in steps:
        _apply(sim, links, step, last_at)
        _apply(eager_sim, eager_links, step, eager_last_at)
        assert _gauge_rows(sim) == _gauge_rows(eager_sim), step
    sim.run()
    eager_sim.run()
    assert _gauge_rows(sim) == _gauge_rows(eager_sim)

