"""Unit tests for repro.metrics (stats and result tables)."""

import pytest

from repro.metrics import ResultTable, jain_fairness, percentile, summarize


# -- fairness ------------------------------------------------------------------

def test_jain_equal_allocation_is_one():
    assert jain_fairness([5, 5, 5, 5]) == pytest.approx(1.0)


def test_jain_single_winner_is_one_over_n():
    assert jain_fairness([10, 0, 0, 0]) == pytest.approx(0.25)


def test_jain_scale_invariant():
    assert jain_fairness([1, 2, 3]) == pytest.approx(jain_fairness([10, 20, 30]))


def test_jain_bounds():
    for alloc in ([1], [1, 9], [3, 3, 1], [0.1, 5, 5]):
        assert 0 < jain_fairness(alloc) <= 1.0


def test_jain_all_zero_degenerate():
    assert jain_fairness([0, 0]) == 1.0


def test_jain_validates():
    with pytest.raises(ValueError):
        jain_fairness([])
    with pytest.raises(ValueError):
        jain_fairness([1, -1])


# -- percentile / summarize ---------------------------------------------------------

def test_percentile_basics():
    data = list(range(101))
    assert percentile(data, 50) == 50
    assert percentile(data, 95) == 95
    assert percentile(data, 0) == 0


def test_percentile_validates():
    with pytest.raises(ValueError):
        percentile([1], 101)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_summarize_fields():
    s = summarize([1, 2, 3, 4, 5])
    assert s["count"] == 5
    assert s["mean"] == 3
    assert s["median"] == 3
    assert s["min"] == 1 and s["max"] == 5
    with pytest.raises(ValueError):
        summarize([])


# -- result tables ------------------------------------------------------------------------

def test_table_add_and_column():
    t = ResultTable("demo", ["a", "b"])
    t.add_row(a=1, b=2)
    t.add_row(a=3, b=4)
    assert t.rows == [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
    assert len(t) == 2


def test_table_rejects_mismatched_rows():
    t = ResultTable("demo", ["a", "b"])
    with pytest.raises(ValueError, match="missing"):
        t.add_row(a=1)
    with pytest.raises(ValueError, match="extra"):
        t.add_row(a=1, b=2, c=3)


def test_table_rejects_bad_columns():
    with pytest.raises(ValueError):
        ResultTable("demo", [])
    with pytest.raises(ValueError):
        ResultTable("demo", ["x", "x"])


def test_table_render_contains_everything():
    t = ResultTable("My Title", ["name", "value"])
    t.add_row(name="alpha", value=1.5)
    text = t.render()
    assert "My Title" in text
    assert "alpha" in text and "1.5" in text
    assert "name" in text and "value" in text


def test_table_float_formatting():
    t = ResultTable("fmt", ["v"])
    t.add_row(v=0.000123)
    t.add_row(v=123456.0)
    t.add_row(v=0)
    text = t.render()
    assert "0.000123" in text
    assert "1.23e+05" in text
