"""Differential test: proportional-fair selection against its oracle.

``ProportionalFairScheduler._fair_counts`` settles a TTI in one of two
ways. When more users are eligible than there are PRBs and no winner's
second-grant key sorts before the last winner's first-grant key, it
reads the single grants off one stable sort (the *sort* path); otherwise
it runs the per-PRB heap (the *loop* path). The scalar policies
``_proportional_fair`` and ``_qos_aware`` of
``tests/reference/scalar_tti.py`` are the per-PRB greedy both must
equal, to the grant and, through the front door, to the last bit of
every EWMA rate.

The sort path is exactly the case in which the greedy grants each
winner one PRB while users outnumber PRBs, so every call here also
asserts *which* path it took: sort if and only if the oracle granted
all ones with more eligible users than PRBs. A path is told by whether
the call built a heap.

The draws aim at where the two paths could part: keys that tie (a few
efficiencies and averages shared by many users, averages below the
1e3 floor), averages so large that a grant does not move the key
(``avg + inst == avg``), one user whose tiny average lets it win twice
among many, and a 64-UE cell's EWMA column evolved over 200 TTIs.
"""

import heapq
import types
from unittest import mock

from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

import repro.mac.schedulers as schedulers
from repro.mac.schedulers import ProportionalFairScheduler, QosAwareScheduler
from repro.phy.mcs import LTE_CQI_TABLE

from tests.reference import scalar_tti
from tests.reference.scalar_tti import SchedulableUser, pack

#: one SINR per CQI row (each exactly at its threshold), and one below
#: CQI 1 (ineligible)
SINRS = [e.min_sinr_db for e in LTE_CQI_TABLE] + [-30.0]

#: averages that tie, sit below the floor, or are so large that a grant
#: leaves ``avg + inst == avg``
AVERAGES = [0.0, 1.0, 999.0, 1e3, 2e3, 5e4, 1e5, 3e5, 1e6, 1e22, 1e30,
            1e300]

average = st.one_of(st.sampled_from(AVERAGES),
                    st.floats(min_value=0.0, max_value=1e9))


@st.composite
def cases(draw):
    """(cqi, average, gbr) per slot, a permutation for the ids, and a
    PRB count. CQIs and averages come from small drawn pools, so many
    users share a key."""
    n = draw(st.integers(min_value=1, max_value=160))
    cqi_pool = draw(st.lists(
        st.integers(min_value=0, max_value=len(SINRS) - 1),
        min_size=1, max_size=4))
    avg_pool = draw(st.lists(average, min_size=1, max_size=4))
    users = draw(st.lists(
        st.tuples(st.sampled_from(cqi_pool), st.sampled_from(avg_pool),
                  st.sampled_from([0.0, 0.0, 0.0, 2e5])),
        min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    n_prbs = draw(st.integers(min_value=1, max_value=100))
    return users, perm, n_prbs


def _build(case):
    """Users in slot order (ids a permutation of it) and their rates."""
    users, perm, _n_prbs = case
    built, rates = [], {}
    for slot, (cqi, avg, gbr) in enumerate(users):
        u = SchedulableUser(f"u{perm[slot]:03d}", SINRS[cqi], gbr_bps=gbr)
        rates[u.user_id] = avg
        built.append(u)
    return built, rates


def _fair_counts_and_path(cols, n_prbs):
    """``_fair_counts`` and the path it took ("sort" or "loop")."""
    heaps = []

    def heapify(entries):
        heaps.append(len(entries))
        heapq.heapify(entries)

    counting = types.SimpleNamespace(heapify=heapify,
                                     heapreplace=heapq.heapreplace)
    with mock.patch.object(schedulers, "heapq", counting):
        counts = ProportionalFairScheduler._fair_counts(cols, n_prbs)
    return counts, "loop" if heaps else "sort"


def _check_fair_counts(users, rates, n_prbs):
    """Hold ``_fair_counts`` to the oracle's PF on ``users`` and ``rates``
    and return the path it took; eligible users must exist."""
    eligible = [u for u in users if u.efficiency > 0]
    assert eligible
    cols = pack(users, rates)
    counts, path = _fair_counts_and_path(cols, n_prbs)
    got = {cols.ids[s]: n for s, n in counts.items()}
    want = {uid: len(prbs) for uid, prbs in scalar_tti._proportional_fair(
        None, eligible, list(range(n_prbs)), rates).items() if prbs}
    assert got == want
    single = len(eligible) > n_prbs and set(want.values()) == {1}
    assert path == ("sort" if single else "loop"), (path, want)
    return path


def _drawn_path(case):
    """``_check_fair_counts`` on a drawn case (None if nobody is
    eligible)."""
    users, rates = _build(case)
    if not any(u.efficiency > 0 for u in users):
        return None
    return _check_fair_counts(users, rates, case[2])


def _double_winner():
    """Six users on the same channel, four PRBs: ``u000`` is new (its
    average is below the floor), so it takes PRBs while the rest sit at
    1e6 — the sort's second-key check must send this to the loop."""
    return ([(9, 0.0, 0.0)] + [(9, 1e6, 0.0)] * 5, list(range(6)), 4)


def _huge_single():
    """One PRB among three users whose averages a grant cannot move: the
    last winner's second key equals its first, which still leaves it a
    single grant."""
    return ([(9, 1e30, 0.0), (12, 1e30, 0.0), (3, 1e30, 0.0)], [2, 0, 1], 1)


PLANTED = [
    _double_winner(),
    _huge_single(),
    ([(9, 1e3, 0.0)] * 8, list(range(7, -1, -1)), 5),  # all keys tie
    ([(9, 5e4, 0.0), (14, 5e4, 0.0)] * 3, list(range(6)), 10),  # PRBs > users
]


@given(cases())
@example(_double_winner())
@example(_huge_single())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_fair_counts_equal_the_scalar_policy(case):
    _drawn_path(case)


@given(cases(), st.sampled_from([ProportionalFairScheduler,
                                 QosAwareScheduler]),
       st.integers(min_value=1, max_value=3))
@example(_double_winner(), QosAwareScheduler, 2)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_the_front_door_equals_the_scalar_allocation(case, sched_cls,
                                                     rounds):
    """PF and QoS through ``allocate_columns``: grant counts to the key
    order, and every EWMA rate bit for bit, TTI after TTI."""
    users, rates = _build(case)
    prbs = frozenset(range(case[2]))
    sched = sched_cls()
    prod_rates, ref_rates = dict(rates), dict(rates)
    for tti in range(rounds):
        got = scalar_tti.allocate_packed(sched, users, prbs, prod_rates)
        want = scalar_tti.allocate(sched, users, prbs, ref_rates)
        assert (list(got.items())
                == list(scalar_tti.grant_counts(want).items())), tti
        assert prod_rates == ref_rates, tti


def _evolve(cqis, n_prbs, ttis=200):
    """A 64-UE cell from zero averages: each TTI, ``_fair_counts`` on the
    production EWMA column against the oracle's PF, then both EWMAs
    advance. Returns the path each TTI took."""
    users = [SchedulableUser(f"ue{i:03d}", SINRS[c])
             for i, c in enumerate(cqis)]
    prbs = frozenset(range(n_prbs))
    sched = ProportionalFairScheduler()
    prod_rates, ref_rates = {}, {}
    paths = []
    for tti in range(ttis):
        assert prod_rates == ref_rates, tti
        if any(u.efficiency > 0 for u in users):
            paths.append(_check_fair_counts(users, prod_rates, n_prbs))
        got = scalar_tti.allocate_packed(sched, users, prbs, prod_rates)
        want = scalar_tti.allocate(sched, users, prbs, ref_rates)
        assert got == scalar_tti.grant_counts(want), tti
    return paths


@given(st.lists(st.integers(min_value=0, max_value=len(SINRS) - 1),
                min_size=64, max_size=64),
       st.integers(min_value=1, max_value=100))
@settings(max_examples=8, deadline=None, derandomize=True)
def test_a_cells_ewma_evolution_matches_the_oracle(cqis, n_prbs):
    _evolve(cqis, n_prbs)


def test_both_paths_are_exercised():
    """The planted cases take both paths, and the double winner wins
    twice while users outnumber PRBs; the drawn cases reach both paths,
    and so does the evolved cell at two PRB counts."""
    paths = [_check_fair_counts(*_build(case), case[2]) for case in PLANTED]
    assert paths == ["loop", "sort", "sort", "loop"]
    users, rates = _build(_double_winner())
    want = scalar_tti._proportional_fair(None, users, list(range(4)), rates)
    assert max(len(prbs) for prbs in want.values()) >= 2
    search = settings(max_examples=300, database=None, derandomize=True,
                      phases=[Phase.generate])  # the first find will do
    for path in ("sort", "loop"):
        find(cases(), lambda case: _drawn_path(case) == path,
             settings=search)
    cqis = [7 + i % 9 for i in range(64)]
    assert set(_evolve(cqis, 25)) == {"sort"}
    assert set(_evolve(cqis, 60)) == {"loop"}
