"""A job that raises or whose output differs from the oracle fails."""

import dataclasses

from kgbench.corpus import CorpusSpec
from kgbench.workloads import (
    JobResult,
    Tally,
    Workload,
    attempt,
    check_edges,
)

EXPECTED = {
    ("agg", "cooccurs_with", "batch"): 3,
    ("batch", "cooccurs_with", "spark"): 5,
}


def _rows(edges):
    return [
        {"subj": s, "pred": p, "obj": o, "weight": w}
        for (s, p, o), w in edges.items()
    ]


def _workload(run):
    return Workload("fake", "test", CorpusSpec(n_docs=1), run,
                    lambda ctx: EXPECTED, check_edges)


def _attempt(run):
    tally = Tally()
    attempt(_workload(run), None, EXPECTED, tally)
    return tally


def test_matching_result_passes():
    tally = _attempt(lambda ctx: JobResult(_rows(EXPECTED), None))
    assert (tally.attempted, tally.failed, tally.error_rate) == (1, 0, 0.0)


def test_one_changed_edge_weight_fails():
    bad = dict(EXPECTED)
    bad[("agg", "cooccurs_with", "batch")] += 1
    tally = _attempt(lambda ctx: JobResult(_rows(bad), None))
    assert (tally.attempted, tally.failed, tally.error_rate) == (1, 1, 1.0)


def test_missing_or_duplicated_edge_fails():
    rows = _rows(EXPECTED)
    assert _attempt(lambda ctx: JobResult(rows[:1], None)).failed == 1
    assert _attempt(lambda ctx: JobResult(rows + rows[:1], None)).failed == 1


def test_raising_job_fails_and_the_loop_goes_on():
    def boom(ctx):
        raise RuntimeError("task died")

    tally = Tally()
    wl = _workload(boom)
    ok = dataclasses.replace(wl, run=lambda ctx: JobResult(_rows(EXPECTED), None))
    wall, result = attempt(wl, None, EXPECTED, tally)
    assert result is None and wall >= 0
    attempt(ok, None, EXPECTED, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
