"""Kill/resume correctness of the checkpointed flagship pipeline.

North-rule requirement: a mid-run failure resumes from the partition
manifest, re-doing only unfinished partitions, and the final result is
identical to an uninterrupted run.
"""

from __future__ import annotations

import os
import time

import pytest

SF = "/root/testdata/sf0.001"


def _edges_dict(ds):
    df = ds.to_pandas()
    return {
        (r.subj, r.pred, r.obj): r.weight for r in df.itertuples(index=False)
    }


@pytest.fixture
def executions(monkeypatch):
    """Record Ray Data executions: the physical plan (its output
    operator) of each ``StreamingExecutor.execute`` call, one per plan
    run (a write, a materialize, a count or an iteration)."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    calls = []
    execute = StreamingExecutor.execute

    def counted(self, dag, *args, **kwargs):
        calls.append(dag)
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return calls


def _task_plans(dags) -> list[list[str]]:
    """The operator names, input first, of each recorded execution that
    launches a Ray task: one whose plan is more than its input buffer.
    Iterating a ``from_arrow`` Dataset still runs an execution, but of
    the input buffer alone."""
    from ray.data._internal.execution.operators.input_data_buffer import (
        InputDataBuffer,
    )

    def names(op):
        return [n for dep in op.input_dependencies for n in names(dep)] + [
            op.name
        ]

    return [names(d) for d in dags if not isinstance(d, InputDataBuffer)]


def test_kill_and_resume_matches_straight_run(ray_session, tmp_path):
    from autoner_ray.pipelines.checkpoint import run_resumable_triples
    from autoner_ray.pipelines.kg import triples_dataset
    from autoner_ray.state import manifest as mf

    out = str(tmp_path / "ckpt")
    # first run dies after 2 of 4 partitions
    with pytest.raises(RuntimeError, match="injected failure"):
        run_resumable_triples(SF, out, num_parts=4, concurrency=2,
                              fail_after=2)
    assert len(mf.pending_partitions(out, 4)) == 2
    committed_before = {
        r["partition"]: os.path.getmtime(
            os.path.join(mf.partition_dir(out, r["partition"]), mf.SUCCESS)
        )
        for r in mf.read_manifest(out, 4)
    }
    assert len(committed_before) == 2

    # resume completes only the pending partitions
    edges = run_resumable_triples(SF, out, num_parts=4, concurrency=2)
    assert mf.pending_partitions(out, 4) == []
    for part, mtime in committed_before.items():
        marker = os.path.join(mf.partition_dir(out, part), mf.SUCCESS)
        assert os.path.getmtime(marker) == mtime, "completed partition redone"

    # result identical to the un-checkpointed pipeline
    straight = triples_dataset(SF, concurrency=2)
    assert _edges_dict(edges) == _edges_dict(straight)


def test_lineage_records(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from autoner_ray.pipelines.checkpoint import run_resumable_triples
    from autoner_ray.state import manifest as mf

    out = str(tmp_path / "ckpt")
    run_resumable_triples(SF, out, num_parts=2, concurrency=2)
    records = mf.read_manifest(out, 2)
    assert len(records) == 2
    for rec in records:
        assert rec["engine_version"]
        assert "documents.parquet" in rec["lineage"]["input"]
        assert "dict_match:pairs" in rec["lineage"]["stages"]
        assert rec["metrics"]["rows"] >= 0
        assert rec["metrics"]["wall_sec"] > 0
        # rows come from the written footers: they match the data
        pairs = os.path.join(mf.partition_dir(out, rec["partition"]), "pairs")
        assert rec["metrics"]["rows"] == pq.read_table(pairs).num_rows


def test_graph_lineage_records_edge_tier(ray_session, tmp_path):
    """The graph phase's lineage names the edge-aggregate tier: the
    flagship dictionaries bound the edge keys, so it is the bounded one."""
    from autoner_ray.pipelines.checkpoint import run_resumable_graph
    from autoner_ray.state import manifest as mf

    out = str(tmp_path / "ckpt")
    run_resumable_graph(SF, out, num_parts=2, num_shards=2, concurrency=2)
    (rec,) = mf.read_manifest(os.path.join(out, "graph"), 1)
    assert rec["lineage"]["stages"] == [
        "aggregate_edges:bounded", "materialize_graph"
    ]


def test_tmp_sweep(ray_session, tmp_path):
    from autoner_ray.state import manifest as mf

    out = str(tmp_path / "ckpt")
    stale = os.path.join(out, "_tmp-00001-deadbeef")
    fresh = os.path.join(out, "_tmp-00002-cafebabe")
    os.makedirs(stale)
    os.makedirs(fresh)
    old = time.time() - 7200
    os.utime(stale, (old, old))
    mf.sweep_tmp(out)
    # stale orphan removed; a fresh tmp (possibly a live concurrent
    # driver's in-flight commit) is left alone
    assert os.listdir(out) == ["_tmp-00002-cafebabe"]


def test_empty_partition_commits_zero_rows(ray_session, tmp_path):
    """A partition the row filter leaves empty still commits: ``rows``
    is 0, no ``pairs/`` is written, and the final edges are those of the
    un-checkpointed pipeline on the same corpus."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from autoner_ray.pipelines.checkpoint import run_resumable_triples
    from autoner_ray.pipelines.kg import triples_dataset
    from autoner_ray.state import manifest as mf

    docs = pq.read_table(f"{SF}/documents.parquet")
    corpus = tmp_path / "even"
    corpus.mkdir()
    pq.write_table(
        docs.filter(pc.equal(pc.bit_wise_and(docs["doc_id"], 1), 0)),
        corpus / "documents.parquet",
    )
    out = str(tmp_path / "ckpt")
    edges = run_resumable_triples(str(corpus), out, num_parts=2,
                                  concurrency=2)
    assert mf.pending_partitions(out, 2) == []
    rows = {
        r["partition"]: r["metrics"]["rows"] for r in mf.read_manifest(out, 2)
    }
    assert rows[0] > 0
    assert rows[1] == 0
    assert not os.path.exists(os.path.join(mf.partition_dir(out, 1), "pairs"))
    straight = triples_dataset(str(corpus), concurrency=2)
    assert _edges_dict(edges) == _edges_dict(straight)


def test_one_execution_per_commit(ray_session, tmp_path, executions):
    """The small fixture's pending partitions share one wave, which runs
    its plan once, and so does the graph commit; the row counts come
    from the written footers, not a re-execution."""
    from autoner_ray.pipelines.checkpoint import (
        run_resumable_graph,
        run_resumable_triples,
    )
    from autoner_ray.state import manifest as mf

    out = str(tmp_path / "ckpt")
    with pytest.raises(RuntimeError, match="injected failure"):
        run_resumable_triples(SF, out, num_parts=4, concurrency=2,
                              fail_after=1)
    assert len(executions) == 1
    edges = run_resumable_triples(SF, out, num_parts=4, concurrency=2)
    assert len(executions) == 1 + 1  # the pending partitions' one wave
    n_edges = edges.count()

    executions.clear()
    graph_out = str(tmp_path / "graph-job")
    run_resumable_graph(SF, graph_out, num_parts=4, num_shards=2,
                        concurrency=2)
    assert len(executions) == 1 + 1  # one wave, then the graph commit
    (rec,) = mf.read_manifest(os.path.join(graph_out, "graph"), 1)
    assert rec["metrics"]["rows"] == n_edges


def test_two_partition_waves(ray_session, tmp_path, executions, monkeypatch):
    """A block that holds two partitions' input cuts four partitions into
    two waves of two: one execution each, the straight pipeline's edges,
    a kill after three commits resumes only the fourth, and no staging
    dir outlives a run."""
    import ray.data as rd

    from autoner_ray.pipelines.checkpoint import run_resumable_triples
    from autoner_ray.pipelines.kg import triples_dataset
    from autoner_ray.state import manifest as mf

    part_bytes = os.path.getsize(f"{SF}/documents.parquet") / 4
    monkeypatch.setattr(
        rd.DataContext.get_current(), "target_max_block_size",
        int(2.5 * part_bytes),
    )
    out = str(tmp_path / "ckpt")
    edges = run_resumable_triples(SF, out, num_parts=4, concurrency=2)
    assert len(executions) == 2
    assert [r["lineage"]["wave"] for r in mf.read_manifest(out, 4)] == [
        [0, 1], [0, 1], [2, 3], [2, 3]
    ]
    assert not [n for n in os.listdir(out) if n.startswith("_tmp-")]
    straight = triples_dataset(SF, concurrency=2)
    assert _edges_dict(edges) == _edges_dict(straight)

    killed = str(tmp_path / "killed")
    with pytest.raises(RuntimeError, match="injected failure"):
        run_resumable_triples(SF, killed, num_parts=4, concurrency=2,
                              fail_after=3)
    assert mf.pending_partitions(killed, 4) == [3]
    committed_before = {
        part: os.path.getmtime(
            os.path.join(mf.partition_dir(killed, part), mf.SUCCESS)
        )
        for part in range(3)
    }
    resumed = run_resumable_triples(SF, killed, num_parts=4, concurrency=2)
    for part, mtime in committed_before.items():
        marker = os.path.join(mf.partition_dir(killed, part), mf.SUCCESS)
        assert os.path.getmtime(marker) == mtime, "completed partition redone"
    assert not [n for n in os.listdir(killed) if n.startswith("_tmp-")]
    assert _edges_dict(resumed) == _edges_dict(edges)


def test_edges_consumed_without_task(ray_session, tmp_path, executions):
    """A resumable job's one task-launching execution is its wave:
    consuming its edges (``take_all()``) launches no Ray task, since
    the final aggregate folds the committed Parquet on the driver. The
    flagship's edges take exactly one, the fused read -> match ->
    ``add_part`` plan, with no repartition, sort or combine task."""
    from autoner_ray.pipelines.checkpoint import run_resumable_triples
    from autoner_ray.pipelines.kg import triples_dataset

    edges = run_resumable_triples(SF, str(tmp_path / "ckpt"), num_parts=4,
                                  concurrency=2)
    resumable = edges.take_all()
    (wave,) = _task_plans(executions)
    assert wave[-1].split("->")[-1] == "Write"

    executions.clear()
    flagship = triples_dataset(SF, concurrency=2).take_all()
    (plan,) = _task_plans(executions)
    assert plan[-1].split("->")[-1] == "MapBatches(add_part)"
    assert not [op for op in plan if "Sort" in op or "Repartition" in op]

    def rows(got):
        return sorted(tuple(r.values()) for r in got)

    assert len(resumable) > 10
    assert rows(resumable) == rows(flagship)
