"""Differential test: the contiguous uplink packer against its oracle.

``ContiguousUplinkScheduler._assign`` computes its weights, targets and
placement order as arrays; ``tests/reference/scalar_tti.py``'s
``_contiguous_uplink`` is the per-user walk it replaces. Twin schedulers
start from the same average rates and allocate the same users over the
same PRB set for a few TTIs; grant maps must be equal to the key order
and every EWMA rate equal, bit for bit.

The draws aim at the three places the two could part: the rounding of
a target that lands exactly on ``.5`` (``round`` and ``np.rint`` both go
to even), the order among equal targets (ascending user id, never slot
order), and the float weight sum (the oracle folds it in slot order;
with weights of very different sizes a different order moves the last
bit, and that flips a ``.5``). Weights are made exact powers of two by
choosing the average rate, so ties and sums are hit on purpose, not by
chance. PRB sets are fragmented, and there are often more users than
PRBs, so the runs are exhausted before the last user.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mac.schedulers import SchedulableUser
from repro.mac.uplink import ContiguousUplinkScheduler
from repro.phy.mcs import LTE_CQI_TABLE
from repro.phy.resource_grid import bits_per_prb

from tests.reference import scalar_tti

#: one SINR per CQI row (each exactly at its threshold), and one below
#: CQI 1 (ineligible)
SINRS = [e.min_sinr_db for e in LTE_CQI_TABLE] + [-30.0]

#: a user's weight b·1e3 / max(rate, 1e3): either an exact power of two
#: (the rate is b·1e3 / 2**k, and b·1e3 ≥ 27,415 keeps it above the
#: floor for k ≤ 4) or whatever a free rate gives
weight = st.one_of(
    st.tuples(st.just("pow2"), st.sampled_from([-53, -52, -1, 0, 1, 2, 4])),
    st.tuples(st.just("rate"), st.floats(min_value=0.0, max_value=1e8)))

user = st.tuples(st.integers(min_value=0, max_value=len(SINRS) - 1), weight,
                 st.booleans())


@st.composite
def cases(draw):
    users = draw(st.lists(user, min_size=1, max_size=40))
    perm = draw(st.permutations(range(len(users))))
    prbs = draw(st.one_of(
        st.sets(st.integers(min_value=0, max_value=49), min_size=1),
        st.integers(min_value=1, max_value=50).map(range)))
    rounds = draw(st.integers(min_value=1, max_value=4))
    return users, perm, sorted(prbs), rounds


def _build(case):
    """Users in slot order (ids a permutation of it) and their rates."""
    users, perm, _prbs, _rounds = case
    built, rates = [], {}
    for slot, (cqi, (kind, value), idle) in enumerate(users):
        u = SchedulableUser(f"u{perm[slot]:02d}", SINRS[cqi],
                            backlog_bits=0.0 if idle else float("inf"))
        if kind == "pow2":
            rates[u.user_id] = bits_per_prb(u.efficiency) * 1e3 * 2.0 ** -value
        else:
            rates[u.user_id] = value
        built.append(u)
    return built, rates


def _two_big_two_tiny(total):
    # slot order: two weights of 2**-52, then two of 1.0; the big users
    # hold the lowest ids. In slot order the sum is 2 + 2**-51; summed
    # big-first it would be 2.0 (each tiny add rounds away)
    big, tiny = (7, ("pow2", 0), False), (7, ("pow2", -52), False)
    return [tiny, tiny, big, big], [2, 3, 0, 1], list(range(total)), 1


@given(cases())
@example(([(7, ("pow2", 0), False)] * 2, [1, 0], [0, 1, 2], 1))  # 1.5 ties
@example(([(7, ("pow2", 0), False)] * 4, [3, 1, 0, 2], list(range(10)), 2))
@example(_two_big_two_tiny(3))  # 3 / (2 + 2**-51) < 1.5 = 3 / 2
@example(([(4, ("pow2", 0), False)] * 30, list(range(29, -1, -1)),
          [0, 1, 2, 5, 6, 9, 20, 21, 22, 23], 1))  # 30 equal targets
@settings(max_examples=300, deadline=None, derandomize=True)
def test_uplink_packer_equals_the_scalar_policy(case):
    users, rates = _build(case)
    prbs = frozenset(case[2])
    prod, ref = ContiguousUplinkScheduler(), ContiguousUplinkScheduler()
    prod._rates.update(rates)
    ref._rates.update(rates)
    for tti in range(case[3]):
        got = prod.allocate(users, prbs)
        want = scalar_tti.allocate(ref, users, prbs)
        assert list(got.items()) == list(want.items()), tti
        assert prod._rates == ref._rates, tti


def test_the_sum_order_case_flips_a_target():
    """The explicit example above is only a test of the sum order if the
    two orders really round apart."""
    users, rates = _build(_two_big_two_tiny(3))
    weights = [bits_per_prb(u.efficiency) * 1e3 / max(rates[u.user_id], 1e3)
               for u in users]
    assert sum(weights) == 2.0 + 2.0 ** -51
    assert sum(weights[::-1]) == 2.0
    assert round(3 * weights[2] / sum(weights)) == 1
    assert round(3 * weights[2] / sum(weights[::-1])) == 2
