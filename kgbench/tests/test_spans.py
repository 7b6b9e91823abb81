"""Span self-time arithmetic."""

import itertools

import pytest

from kgbench.spans import Tracer, self_time


def test_leaf_self_time_is_duration():
    assert self_time((1.0, 4.0), []) == pytest.approx(3.0)


def test_disjoint_children_subtract():
    assert self_time((0.0, 10.0), [(1.0, 2.0), (5.0, 8.0)]) == pytest.approx(6.0)


def test_overlapping_children_count_once():
    assert self_time((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0), (5.5, 7.0)]) \
        == pytest.approx(4.0)


def test_children_are_clipped_to_parent():
    assert self_time((2.0, 6.0), [(0.0, 3.0), (5.0, 9.0)]) == pytest.approx(2.0)


def test_nested_children_and_unsorted_input():
    assert self_time((0.0, 10.0), [(6.0, 9.0), (1.0, 3.0), (1.5, 2.0)]) \
        == pytest.approx(5.0)


def test_tracer_self_times_sum_to_root_duration():
    ticks = itertools.count()
    tr = Tracer("t", clock=lambda: float(next(ticks)))
    with tr.span("root") as root:
        with tr.span("a"):
            with tr.span("a.leaf"):
                pass
        with tr.span("b"):
            pass
    # each clock read is one tick: root 0..7, a 1..4, a.leaf 2..3, b 5..6
    assert root.duration == 7.0
    assert tr.self_time(root) == 7.0 - 3.0 - 1.0
    assert tr.total("a", self_only=True) == 2.0
    assert sum(tr.self_time(s) for s in tr.spans) == pytest.approx(root.duration)
    assert {s.trace_id for s in tr.spans} == {"t"}
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]
