"""Unit tests for the parallel runner substrate (repro.runner)."""

import pytest

from repro.runner import (
    derive_seed,
    get_jobs,
    in_worker,
    parallel_map,
    set_jobs,
)


def _square(x):
    return x * x


def _nested(x):
    # a worker that itself calls parallel_map must just loop serially
    return sum(parallel_map(_square, [x, x + 1], jobs=4))


def test_serial_map_matches_builtin():
    assert parallel_map(_square, [1, 2, 3], jobs=1) == [1, 4, 9]


def test_parallel_map_preserves_item_order():
    items = list(range(20))
    assert parallel_map(_square, items, jobs=4) == [i * i for i in items]


def test_costs_reorder_submission_not_results():
    items = [1, 2, 3, 4]
    costs = [0.1, 5.0, 0.2, 3.0]  # longest-first submission
    assert parallel_map(_square, items, jobs=2, costs=costs) == [1, 4, 9, 16]


def test_costs_must_align():
    with pytest.raises(ValueError):
        parallel_map(_square, [1, 2, 3], jobs=2, costs=[1.0])


def test_jobs_must_be_positive():
    with pytest.raises(ValueError):
        parallel_map(_square, [1], jobs=0)
    with pytest.raises(ValueError):
        set_jobs(0)


def test_single_item_runs_inline():
    assert parallel_map(_square, [7], jobs=8) == [49]


def test_nested_parallel_map_runs_serially():
    # each outer task calls parallel_map again; the inner call must not
    # try to fork grandchildren from a daemonic worker
    assert parallel_map(_nested, [1, 2, 3], jobs=2) == [5, 13, 25]


def test_set_get_jobs_roundtrip():
    old = get_jobs()
    try:
        set_jobs(3)
        assert get_jobs() == 3
        # parallel_map defaults to the process-wide setting
        assert parallel_map(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]
    finally:
        set_jobs(old)


def test_in_worker_false_in_parent():
    assert not in_worker()


def test_worker_flag_visible_inside_workers():
    results = parallel_map(_report_worker, [0, 1, 2], jobs=2)
    assert all(results)


def _report_worker(_):
    return in_worker()


def test_derive_seed_deterministic_and_distinct():
    a = derive_seed(42, "E6", "carrier", 30.0)
    assert a == derive_seed(42, "E6", "carrier", 30.0)
    assert a != derive_seed(42, "E6", "carrier", 10.0)
    assert a != derive_seed(43, "E6", "carrier", 30.0)
    assert 0 <= a < 2 ** 31


def test_derive_seed_key_parts_do_not_collide():
    # ("ab", "c") and ("a", "bc") must hash differently
    assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")
