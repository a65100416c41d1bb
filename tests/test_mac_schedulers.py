"""Unit tests for LTE PRB schedulers, driven through their one front
door, ``allocate_columns``, over columns the oracle's packer builds from
a user list (``tests/reference/scalar_tti.py``). Production grants PRB
counts; what a grant's PRB identities must satisfy is held on the
oracle's PRB sets, and production on the oracle's set sizes."""

from repro.mac import (
    MaxCiScheduler,
    ProportionalFairScheduler,
    QosAwareScheduler,
    RoundRobinScheduler,
)

from tests.reference import scalar_tti
from tests.reference.scalar_tti import SchedulableUser, allocate_packed


def _users(*sinrs, **kw):
    return [SchedulableUser(user_id=f"u{i}", sinr_db=s, **kw)
            for i, s in enumerate(sinrs)]


PRBS = frozenset(range(50))


def test_round_robin_even_split():
    sched = RoundRobinScheduler()
    counts = allocate_packed(sched, _users(10, 10, 10, 10, 10), PRBS)
    assert sum(counts.values()) == 50
    assert all(c == 10 for c in counts.values())


def test_round_robin_rotates_start():
    sched = RoundRobinScheduler()
    first = allocate_packed(sched, _users(10, 10, 10), frozenset(range(4)))
    second = allocate_packed(sched, _users(10, 10, 10), frozenset(range(4)))
    # 4 PRBs over 3 users: the extra PRB should rotate between calls
    def extra_user(result):
        return max(result, key=result.__getitem__)
    assert extra_user(first) != extra_user(second)


def test_each_prb_assigned_once():
    """The oracle's PRB sets are disjoint and inside the allowed set, and
    production grants their sizes."""
    for cls in (RoundRobinScheduler, ProportionalFairScheduler,
                MaxCiScheduler, QosAwareScheduler):
        users = _users(5, 10, 15)
        sets = scalar_tti.allocate(cls(), users, PRBS, {})
        all_prbs = [p for prbs in sets.values() for p in prbs]
        assert len(all_prbs) == len(set(all_prbs))
        assert set(all_prbs) <= PRBS
        assert (allocate_packed(cls(), users, PRBS)
                == scalar_tti.grant_counts(sets))


def test_unreachable_users_get_nothing():
    sched = RoundRobinScheduler()
    users = _users(-30, 10)  # u0 below CQI1
    result = allocate_packed(sched, users, PRBS)
    assert "u0" not in result
    assert result["u1"] == 50


def test_empty_inputs():
    sched = ProportionalFairScheduler()
    assert allocate_packed(sched, [], PRBS) == {}
    assert allocate_packed(sched, _users(10), frozenset()) == {}


def test_max_ci_takes_all():
    result = allocate_packed(MaxCiScheduler(), _users(3, 20, 10), PRBS)
    assert result == {"u1": 50}


def test_pf_spreads_within_single_tti():
    counts = allocate_packed(ProportionalFairScheduler(),
                             _users(15, 15, 15, 15), PRBS)
    assert len(counts) == 4
    assert max(counts.values()) - min(counts.values()) <= 2


def test_pf_long_run_fair_in_time_not_rate():
    """PF gives weaker users PRBs but not equal throughput."""
    sched = ProportionalFairScheduler()
    users = _users(0, 20)  # weak, strong
    rates = {}
    tallies = {"u0": 0, "u1": 0}
    for _ in range(300):
        for uid, n in allocate_packed(sched, users, PRBS, rates).items():
            tallies[uid] += n
    # both get meaningful airtime
    assert tallies["u0"] > 0.2 * tallies["u1"]
    # but the strong user ends with higher average rate
    assert rates["u1"] > rates["u0"]


def test_pf_average_rate_tracks_and_forgets():
    """The EWMA rises while a user is served and, once it drops below
    CQI 1, decays by ``1 - 1/PF_WINDOW_TTIS`` per TTI."""
    sched = ProportionalFairScheduler()
    rates = {}
    for _ in range(50):
        allocate_packed(sched, _users(15), PRBS, rates)
    served = rates["u0"]
    assert served > 0
    assert allocate_packed(sched, _users(-30), PRBS, rates) == {}
    assert rates["u0"] == served * (1 - 1 / sched.PF_WINDOW_TTIS)


def test_qos_gbr_served_first():
    sched = QosAwareScheduler()
    users = [
        SchedulableUser("video", sinr_db=5, gbr_bps=2e6, priority=1),
        SchedulableUser("bulk", sinr_db=25),
    ]
    result = allocate_packed(sched, users, PRBS)
    # video at 5 dB -> CQI6 eff 1.1758 -> ~212 bits/PRB; 2 Mbps needs
    # 2000 bits/TTI -> ~10 PRBs guaranteed despite bulk's better channel.
    assert result["video"] >= 9
    assert result["bulk"] >= 1


def test_qos_priority_order_between_gbr_users():
    sched = QosAwareScheduler()
    users = [
        SchedulableUser("low", sinr_db=0, gbr_bps=50e6, priority=5),
        SchedulableUser("high", sinr_db=0, gbr_bps=50e6, priority=1),
    ]
    # demands exceed the cell: the high-priority bearer should win more.
    result = allocate_packed(sched, users, PRBS)
    assert result.get("high", 0) > result.get("low", 0)


def test_qos_without_gbr_reduces_to_pf():
    qos = QosAwareScheduler()
    pf = ProportionalFairScheduler()
    users = _users(10, 12, 14)
    assert (allocate_packed(qos, users, PRBS)
            == allocate_packed(pf, users, PRBS))
