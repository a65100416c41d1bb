"""Unit tests for the SC-FDMA contiguous uplink scheduler.

Production grants block sizes; the blocks themselves are the oracle's
(``tests/reference/scalar_tti.py``), so contiguity and placement are
held on the oracle's grants, and production on their sizes."""

import pytest

from repro.mac import ContiguousUplinkScheduler, contiguous_runs

from tests.reference import scalar_tti
from tests.reference.scalar_tti import SchedulableUser, allocate_packed


def _users(*sinrs):
    return [SchedulableUser(f"u{i}", s) for i, s in enumerate(sinrs)]


# -- runs ------------------------------------------------------------------------

def test_runs_of_contiguous_set():
    assert contiguous_runs(frozenset(range(5))) == [(0, 5)]


def test_runs_of_fragmented_set():
    prbs = frozenset({0, 1, 2, 10, 11, 40})
    assert contiguous_runs(prbs) == [(0, 3), (10, 2), (40, 1)]


def test_runs_empty():
    assert contiguous_runs(frozenset()) == []


# -- contiguity of grants -------------------------------------------------------------

def _blocks(users, allowed):
    """The oracle's blocks, after checking that production grants their
    sizes."""
    blocks = scalar_tti.allocate(ContiguousUplinkScheduler(), users,
                                 allowed, {})
    assert (allocate_packed(ContiguousUplinkScheduler(), users, allowed)
            == scalar_tti.grant_counts(blocks))
    return blocks


def _assert_contiguous(grants):
    for uid, prbs in grants.items():
        if prbs:
            lst = sorted(prbs)
            assert lst == list(range(lst[0], lst[0] + len(lst))), uid


def test_every_grant_is_one_block():
    grants = _blocks(_users(10, 15, 5, 20), frozenset(range(50)))
    _assert_contiguous(grants)
    # grants are disjoint
    all_prbs = [p for g in grants.values() for p in g]
    assert len(all_prbs) == len(set(all_prbs))


def test_everyone_gets_a_block_on_a_clean_grid():
    sched = ContiguousUplinkScheduler()
    grants = allocate_packed(sched, _users(10, 10, 10), frozenset(range(30)))
    assert all(n >= 1 for n in grants.values())
    assert sum(grants.values()) >= 27  # near-full use


def test_grants_respect_fragmented_allowed_set():
    allowed = frozenset(range(0, 10)) | frozenset(range(30, 35))
    grants = _blocks(_users(10, 10), allowed)
    _assert_contiguous(grants)
    for g in grants.values():
        assert frozenset(g) <= allowed
        # a block never spans the gap
        if g:
            assert max(g) - min(g) == len(g) - 1


def test_unreachable_users_excluded():
    sched = ContiguousUplinkScheduler()
    grants = allocate_packed(sched, _users(-30, 10), frozenset(range(20)))
    assert "u0" not in grants


def test_fair_sharing_slices_are_scfdma_friendly():
    """The fair-sharing partition is contiguous by construction, so the
    uplink packer wastes nothing inside a slice."""
    from repro.coordination.fair_sharing import compute_weighted_partition

    partition = compute_weighted_partition(50, {"a": 1, "b": 2, "c": 1})
    for slice_ in partition.values():
        grants = allocate_packed(ContiguousUplinkScheduler(), _users(10, 12),
                                 slice_)
        used = sum(grants.values())
        assert used / len(slice_) == pytest.approx(1.0, abs=0.1)
