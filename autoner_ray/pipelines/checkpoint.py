"""Resumable flagship pipeline: per-partition checkpoint + lineage.

The corpus is split into ``num_parts`` deterministic partitions
(``doc_id % num_parts`` on the fixture's single file; file groups on a
real many-file corpus — the partition key derives from input content,
never execution order). Each partition's expensive stream
(pages → extract → tokenize → DictMatcher pair partials) commits its
pre-aggregated edge partials to ``out_dir/part=NNNNN/`` with a
``_SUCCESS`` lineage marker (see ``state/manifest.py``). A killed run
resumes by anti-joining pending partitions; the cheap final edge
aggregate re-runs over the committed Parquet.

Pending partitions run in WAVES, one Ray Data execution per wave: one
``read_parquet`` whose pushed-down filter keeps the wave's partitions,
the same derive → extract → tokenize chain, the pair kernel called once
per partition present in each batch (rows tagged ``part``), and one
``write_parquet(partition_cols=["part"])`` into a ``_tmp-wave-…``
staging dir under ``out_dir``. Each partition of the wave then commits
by renaming its ``part=k`` staging dir into place; the ``rows`` its
marker records are summed from the footers of the files written
(:func:`~autoner_ray.state.manifest.parquet_rows`), and its
``wall_sec`` is the wave's execution wall (the lineage names the
``wave``). A partition the filter leaves empty writes no files and
commits ``rows == 0`` with no ``pairs/``.

A wave holds as many partitions as fit in one
``DataContext.target_max_block_size`` of input, a partition's input
estimated as ``getsize(documents.parquet) / num_parts``, and at least
one. Small partitions share one execution; a partition of a block or
more keeps its own. A kill loses at most the wave in flight, about one
block of input: its staging dir is removed on an exception, or aged out
by :func:`~autoner_ray.state.manifest.sweep_tmp` after a hard kill. So
a job runs one execution per wave, and the graph job one more for its
shards: the final aggregate reads the committed Parquet with pyarrow
and folds it on the driver, with no Ray task. The wave is one linear plan,
not a ``union`` of per-partition plans: the union dispatches more tasks
than there are CPUs, and Ray 2.49's scheduler then stalls 100 ms per
``ray.wait`` round (0.5 s against 0.26 s per write, measured at 1
CPU).

Because the per-partition payload is an ASSOCIATIVE partial (edge
partial counts), the final edge aggregate over all partitions (a sum
per ``(subj, pred, obj)``, folded on the driver under the dictionary's
key bound) is exactly the un-checkpointed pipeline's
result — verified by ``tests/test_resume.py``. The graph phase's
lineage records which tier ran.
"""

from __future__ import annotations

import os
import shutil
import time
import uuid

from autoner_ray.state import manifest as mf
from autoner_ray.stages.combine import edge_tier
from autoner_ray.stages.triples import fold_edges


def _by_part(match, num_parts: int):
    """``match`` called once per partition present in a batch, its
    output rows tagged with that partition as ``part``."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    def tag(out: pa.Table, part: int) -> pa.Table:
        return out.append_column(
            "part", pa.array(np.full(out.num_rows, part, np.int64))
        )

    def match_parts(batch: pa.Table) -> pa.Table:
        parts = pc.bit_wise_and(batch["doc_id"], num_parts - 1).to_numpy()
        return pa.concat_tables(
            [tag(match(batch.filter(pa.array(parts == k))), k)
             for k in np.unique(parts)]
            or [tag(match(batch), 0)]  # an empty batch keeps the schema
        )

    return match_parts


def _wave_pairs(sf_dir: str, wave, num_parts: int, concurrency):
    """Pair partials of the partitions in ``wave`` (doc_id % num_parts
    in ``wave``), each row tagged with its partition as ``part``."""
    import pyarrow.compute as pc
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
        # doc_id % num_parts in wave, as a pushed-down row filter
        filter=pc.bit_wise_and(pc.field("doc_id"), num_parts - 1).isin(wave),
    )
    match = dict_match_fn(CORE_DICT, FULL_DICT, STOPWORDS, output="pairs")
    return (
        ds.map_batches(derive_pages_batch, batch_format="pyarrow")
        .map_batches(extract_text_batch, batch_format="pyarrow")
        .map_batches(tokenize_pages_batch, batch_format="pyarrow")
        .map_batches(
            _by_part(match, num_parts),
            batch_format="pyarrow",
            batch_size=DEFAULT_BATCH_SIZE,
            concurrency=concurrency,
            num_cpus=1,
        )
    )


def _partition_pairs(sf_dir: str, part: int, num_parts: int, concurrency):
    """Pair partials for one partition: doc_id % num_parts == part."""
    return _wave_pairs(sf_dir, [part], num_parts, concurrency).drop_columns(
        ["part"]
    )


def _waves(sf_dir: str, pending: list[int], num_parts: int):
    """``pending`` cut into waves of as many partitions as fit in one
    ``target_max_block_size`` of input (at least one each); one wave
    when blocks have no size bound."""
    import ray.data as rd

    block = rd.DataContext.get_current().target_max_block_size
    part_bytes = os.path.getsize(f"{sf_dir}/documents.parquet") / num_parts
    width = max(1, int(block // part_bytes) if block else len(pending))
    return [pending[i:i + width] for i in range(0, len(pending), width)]


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
    for wave in _waves(sf_dir, pending, num_parts):
        stage = os.path.join(out_dir, f"_tmp-wave-{uuid.uuid4().hex[:8]}")
        try:
            t0 = time.perf_counter()
            _wave_pairs(sf_dir, wave, num_parts, concurrency).write_parquet(
                stage, partition_cols=["part"]
            )
            wall = round(time.perf_counter() - t0, 3)
            for part in wave:
                if fail_after is not None and done_this_run >= fail_after:
                    raise RuntimeError(
                        f"injected failure after {fail_after} partitions"
                    )

                def write(tmp_dir, _src=os.path.join(stage, f"part={part}")):
                    path = os.path.join(tmp_dir, "pairs")
                    if os.path.isdir(_src):
                        os.rename(_src, path)
                    return {"rows": mf.parquet_rows(path), "wall_sec": wall}

                mf.commit_partition(
                    out_dir,
                    part,
                    write,
                    lineage={
                        "input": f"{sf_dir}/documents.parquet",
                        "partition_rule": (
                            f"doc_id & {num_parts - 1} == {part}"
                        ),
                        "wave": wave,
                        "stages": [
                            "derive_pages",
                            "extract_text",
                            "tokenize",
                            "dict_match:pairs",
                        ],
                    },
                )
                done_this_run += 1
        finally:
            shutil.rmtree(stage, ignore_errors=True)
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
    """Key bound of the partials :func:`_wave_pairs` writes."""
    from autoner_ray.dicts import CORE_DICT, FULL_DICT, STOPWORDS
    from autoner_ray.stages.dict_match import pair_key_bound

    return pair_key_bound(CORE_DICT, FULL_DICT, STOPWORDS)


def final_edges(out_dir: str, num_parts: int):
    """Global edge weights over every committed partition's partials:
    the ``part=*/pairs/*.parquet`` files read with pyarrow and folded
    on the driver under the dictionary's key bound, returned as one
    ``from_arrow`` block."""
    import glob

    import pyarrow.parquet as pq
    import ray.data as rd

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
    return rd.from_arrow(
        fold_edges((pq.read_table(p) for p in paths), _edge_key_bound())
    )
