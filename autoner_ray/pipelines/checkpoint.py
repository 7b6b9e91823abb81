"""Resumable flagship pipeline: per-partition checkpoint + lineage.

The corpus is split into ``num_parts`` deterministic partitions
(``doc_id % num_parts`` on the fixture's single file; file groups on a
real many-file corpus — the partition key derives from input content,
never execution order). Each partition runs the expensive stream
(pages → extract → tokenize → DictMatcher pair partials) and commits its
pre-aggregated edge partials to ``out_dir/part=NNNNN/`` with a
``_SUCCESS`` lineage marker (see ``state/manifest.py``). A killed run
resumes by anti-joining pending partitions; the cheap final edge
aggregate re-runs over the committed Parquet.

Every commit runs its plan exactly once: the lazy plan streams straight
into ``write_parquet`` (no block passes through the driver), and the
``rows`` the marker records are summed from the footers of the files
written (:func:`~autoner_ray.state.manifest.parquet_rows`). An empty
partition writes no files and commits ``rows == 0`` with no ``pairs/``.
So a job on N pending partitions runs N Ray Data executions plus one for
the final aggregate, and the graph job one more for its shards.

Because the per-partition payload is an ASSOCIATIVE partial (edge
partial counts), the final edge aggregate over all partitions (a sum
per ``(subj, pred, obj)``; the one-task bounded tier under the
dictionary's key bound) is exactly the un-checkpointed pipeline's
result — verified by ``tests/test_resume.py``. The graph phase's
lineage records which tier ran.
"""

from __future__ import annotations

import os

from autoner_ray.state import manifest as mf
from autoner_ray.stages.combine import edge_tier
from autoner_ray.stages.triples import aggregate_edges


def _partition_pairs(sf_dir: str, part: int, num_parts: int, concurrency):
    """Pair partials for one partition: doc_id % num_parts == part."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import ray.data as rd

    from autoner_ray.dicts import CORE_DICT, FULL_DICT, STOPWORDS
    from autoner_ray.pipelines.kg import DEFAULT_BATCH_SIZE
    from autoner_ray.sources.pages import derive_pages_batch
    from autoner_ray.stages.dict_match import dict_match_fn
    from autoner_ray.stages.extract import extract_text_batch
    from autoner_ray.stages.tokenize import tokenize_pages_batch

    assert num_parts & (num_parts - 1) == 0, "num_parts must be a power of 2"
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang"],
        # doc_id % num_parts == part, as a pushed-down row filter
        filter=pc.bit_wise_and(pc.field("doc_id"), num_parts - 1) == part,
    )
    return (
        ds.map_batches(derive_pages_batch, batch_format="pyarrow")
        .map_batches(extract_text_batch, batch_format="pyarrow")
        .map_batches(tokenize_pages_batch, batch_format="pyarrow")
        .map_batches(
            dict_match_fn(
                CORE_DICT, FULL_DICT, STOPWORDS, output="pairs"
            ),
            batch_format="pyarrow",
            batch_size=DEFAULT_BATCH_SIZE,
            concurrency=concurrency,
            num_cpus=1,
        )
    )


def run_resumable_triples(
    sf_dir: str,
    out_dir: str,
    num_parts: int = 8,
    concurrency=None,
    fail_after: int | None = None,
):
    """Run (or resume) the checkpointed pipeline; return final edges.

    ``fail_after`` is a test hook: raise after committing that many
    partitions this run, simulating a mid-run kill.
    """
    mf.sweep_tmp(out_dir)
    pending = mf.pending_partitions(out_dir, num_parts)
    done_this_run = 0
    for part in pending:
        if fail_after is not None and done_this_run >= fail_after:
            raise RuntimeError(f"injected failure after {fail_after} partitions")
        pairs = _partition_pairs(sf_dir, part, num_parts, concurrency)

        def write(tmp_dir, _pairs=pairs):
            path = os.path.join(tmp_dir, "pairs")
            _pairs.write_parquet(path)
            return {"rows": mf.parquet_rows(path)}

        mf.commit_partition(
            out_dir,
            part,
            write,
            lineage={
                "input": f"{sf_dir}/documents.parquet",
                "partition_rule": f"doc_id & {num_parts - 1} == {part}",
                "stages": [
                    "derive_pages",
                    "extract_text",
                    "tokenize",
                    "dict_match:pairs",
                ],
            },
        )
        done_this_run += 1
    return final_edges(out_dir, num_parts)


def run_resumable_graph(
    sf_dir: str,
    out_dir: str,
    num_parts: int = 8,
    num_shards: int = 16,
    concurrency=None,
):
    """Full resumable job: checkpointed pair partials (per input
    partition), then sorted graph shards committed as one final manifest
    partition under ``out_dir/graph/``. A rerun skips everything already
    committed — including the graph phase itself."""
    from autoner_ray.stages.graph import materialize_graph

    edges = run_resumable_triples(sf_dir, out_dir, num_parts, concurrency)
    graph_dir = os.path.join(out_dir, "graph")
    if not mf.is_complete(graph_dir, 0):

        def write(tmp_dir):
            shards = materialize_graph(
                edges, os.path.join(tmp_dir, "shards"), num_shards
            )
            return {"rows": mf.parquet_rows(shards), "shards": num_shards}

        mf.commit_partition(
            graph_dir,
            0,
            write,
            lineage={
                "input": f"{out_dir}/part=*/pairs",
                "stages": [
                    f"aggregate_edges:{edge_tier(_edge_key_bound())}",
                    "materialize_graph",
                ],
                "num_shards": num_shards,
            },
        )
    return os.path.join(mf.partition_dir(graph_dir, 0), "shards")


def _edge_key_bound() -> int:
    """Key bound of the partials :func:`_partition_pairs` writes."""
    from autoner_ray.dicts import CORE_DICT, FULL_DICT, STOPWORDS
    from autoner_ray.stages.dict_match import pair_key_bound

    return pair_key_bound(CORE_DICT, FULL_DICT, STOPWORDS)


def final_edges(out_dir: str, num_parts: int):
    """Global edge weights over every committed partition's partials."""
    import ray.data as rd

    import glob

    paths = [
        p
        for i in range(num_parts)
        if mf.is_complete(out_dir, i)
        for p in sorted(
            glob.glob(
                os.path.join(mf.partition_dir(out_dir, i), "pairs", "*.parquet")
            )
        )
    ]
    return aggregate_edges(
        rd.read_parquet(paths), max_keys=_edge_key_bound()
    )
