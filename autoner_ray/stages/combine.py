"""One keyed combine: a per-batch Arrow hash aggregate, then an exchange.

The edge aggregate, the canonical-entity and doc-freq tables, the
curation dedups and many analysis tails all reduce a partial stream by
key. :func:`keyed_combine` is the one implementation of that shape:

1. ``add_part``: an Arrow hash aggregate over ~64k-row batches, so the
   partial stream shrinks to at most one row per key per batch;
2. ``combine``: the same aggregate again, once the exchange has brought
   every partial row of a key into one task.

This is correct because the aggregates re-associate: for sum, min and
max, agg(agg(a), agg(b)) == agg(a ∪ b). "count" and "mean" do not;
pre-reduce them to sum partials (a ones column) first.

Two tiers, chosen when the plan is built (Ray Data has no adaptive
execution; see :func:`edge_tier`):

- bounded: the caller declares ``max_keys``, a proven bound on the
  distinct keys, at or under ``BOUNDED_MAX_KEYS`` (entity types bounded
  by the dictionary, edge keys of a fixed dictionary's canonical
  surfaces, language codes). The partials go through
  ``repartition(1)`` and ONE ``combine`` task; no sort shuffle runs.
  That task raises :class:`ExchangeBoundExceeded` when it holds more
  than ``BOUNDED_MAX_ROWS`` rows; it never truncates.
- partitioned: no bound, or a larger one (doc ids, words, pairs). The
  partials carry a stable hash of ``part_on`` and one
  ``groupby().map_groups()`` shuffle combines each of
  ``num_partitions`` groups. Exactly one row per key globally, and
  nothing key-set-sized sits in one block or on the driver.
"""

from __future__ import annotations

import pyarrow as pa

# Bounded tier: taken when the caller declares at most this many
# distinct keys. Each precombine batch then leaves at most this many
# rows, so the one combine task holds at most
# (precombine batches x BOUNDED_MAX_KEYS) rows.
BOUNDED_MAX_KEYS = 4096
# Rows the one combine task accepts (about 200 MB of edge partials).
BOUNDED_MAX_ROWS = 1 << 21
# Rows per precombine batch.
COALESCE_ROWS = 65536


class ExchangeBoundExceeded(RuntimeError):
    """The one-task combine got more partial rows than
    ``BOUNDED_MAX_ROWS``. Raised instead of truncating the result."""


def edge_tier(max_keys: int | None) -> str:
    """The tier :func:`keyed_combine` takes for a declared key bound."""
    if max_keys is not None and max_keys <= BOUNDED_MAX_KEYS:
        return "bounded"
    return "partitioned"


def combine_table(t: pa.Table, keys: list[str],
                  aggs: list[tuple[str, str]]) -> pa.Table:
    """One Arrow hash aggregate: ``keys`` plus one column per
    ``(column, fn)`` of ``aggs``, named as its input column.

    A value column the block does not carry is left out of the result
    (the edge aggregate's optional ``ev`` pointer). A zero-column block
    (a schema-less empty some operators emit) stands for zero rows of
    string keys and int64 values; zero-row TYPED blocks flow through
    the aggregate and keep their dtypes."""
    if t.num_columns == 0:
        t = pa.table(
            {k: pa.array([], pa.string()) for k in keys}
            | {c: pa.array([], pa.int64()) for c, _ in aggs}
        )
    aggs = [(c, fn) for c, fn in aggs if c in t.column_names]
    names = list(keys) + [c for c, _ in aggs]
    return t.select(names).group_by(keys).aggregate(aggs).rename_columns(
        names
    )


def keyed_combine(ds, keys: list[str], aggs: list[tuple[str, str]],
                  part_on: tuple[str, ...] | None = None,
                  max_keys: int | None = None, coalesce: bool = True,
                  num_partitions: int | None = None):
    """Combine ``ds`` by ``keys`` with the re-associative ``aggs``
    (``[(column, "sum"|"min"|"max"), ...]``). Returns a Dataset of
    ``keys`` plus the aggregated columns, under their input names.

    ``max_keys`` selects the tier (see the module docstring). In the
    partitioned tier, ``part_on`` (default: all keys) is the hashed key
    subset: any subset co-locates identical full keys, a single integer
    or string column takes the vectorized hash, and downstream stages
    may rely on every row sharing ``part_on`` landing in one block.
    ``num_partitions`` defaults to ``default_num_partitions()``.

    ``coalesce`` (default True) runs the precombine over 64k-row
    batches in its own operator. The sort shuffle's scheduler metadata
    scales with input blocks × partitions (~0.9 GB measured at 1.5k
    tiny partial blocks), and merging blocks is the only fix; in the
    bounded tier it keeps the one task's input at ≤ ``max_keys`` rows
    per 64k partial rows. Turn it OFF for pipelines whose upstream is
    much slower than the partial stream AND whose total partial rows
    never fill a batch (e.g. the hybrid tagger at small scale): a
    bundler waiting on a starved slow stream measurably drags the whole
    topology (4.3 s → 11 s at sf0.1). Off, the precombine runs per
    upstream batch, fused into the upstream operator."""
    keys, aggs = list(keys), list(aggs)
    P = None
    if edge_tier(max_keys) == "partitioned":
        from autoner_ray.cluster import default_num_partitions
        from autoner_ray.stages.joins import _stable_part_col

        P = num_partitions or default_num_partitions()
        part_on = tuple(part_on or keys)

    def add_part(t: pa.Table) -> pa.Table:  # the stage name traces key on
        p = combine_table(t, keys, aggs)
        if P is None:
            return p
        return p.append_column("__part", _stable_part_col(p, part_on, P))

    if coalesce:
        # num_cpus=0.5 BREAKS operator fusion with the upstream chain
        # (Ray fuses map_batches ops only when remote args are equal).
        # Fused, the read->match->precombine chain bundles to THIS
        # stage's 64k-row batch_size: kg_triples_full at sf0.1 x 64
        # (320k docs, 64 read blocks, 4 CPUs) ran 5 match tasks fused
        # against 64 unfused. Wall time there was within noise (median
        # [quartiles] of 5 runs on 4 vCPUs: 11.29 s [11.14, 11.35] fused,
        # 10.94 s [10.82, 11.10] unfused), as was kgbench kg_flagship on
        # 1 CPU. The break stays because a fused chain caps the upstream
        # stage at corpus/65536 tasks, which leaves a wider cluster idle.
        ds = ds.map_batches(
            add_part, batch_format="pyarrow", batch_size=COALESCE_ROWS,
            num_cpus=0.5,
        )
    else:
        ds = ds.map_batches(add_part, batch_format="pyarrow")

    # bounded tier: read when the plan is built, so the task checks the
    # bound the caller's process sees
    row_bound = BOUNDED_MAX_ROWS if P is None else None

    def combine(t: pa.Table) -> pa.Table:  # the stage name traces key on
        if row_bound is not None and t.num_rows > row_bound:
            raise ExchangeBoundExceeded(
                f"one-task combine got {t.num_rows} partial rows; "
                f"BOUNDED_MAX_ROWS is {row_bound}"
            )
        return combine_table(t, keys, aggs)

    if P is not None:
        return ds.groupby("__part").map_groups(combine, batch_format="pyarrow")
    # batch_size=None -> the single block in one task
    return ds.repartition(1).map_batches(
        combine, batch_format="pyarrow", batch_size=None
    )


def bounded_key_sum(ds, keys: list[str], sum_cols: list[str]):
    """Sum ``sum_cols`` by ``keys`` whose cardinality the caller knows
    to be small (≤ ``BOUNDED_MAX_KEYS``): the bounded tier of
    :func:`keyed_combine`."""
    return keyed_combine(
        ds, keys, [(c, "sum") for c in sum_cols], max_keys=BOUNDED_MAX_KEYS
    )


def partitioned_key_sum(ds, keys: list[str], sum_cols: list[str],
                        part_on: tuple[str, ...] | None = None,
                        num_partitions: int | None = None):
    """Sum ``sum_cols`` by unbounded (vocab-sized) ``keys``: the
    partitioned tier of :func:`keyed_combine`."""
    return keyed_combine(
        ds, keys, [(c, "sum") for c in sum_cols], part_on=part_on,
        num_partitions=num_partitions,
    )


def materialize_or_empty(ds, schema):
    """Materialize ``ds``; when it holds zero rows, hand back
    ``schema.empty_table()`` (a pyarrow Table) instead of the Dataset.
    Ray's ``Dataset.to_pandas()`` drops COLUMNS on an empty dataset
    (union/join stages can emit schemaless empty bundles), which
    breaks every downstream consumer expecting the contract columns —
    first seen three separate times in the sf0.1 sweep
    (negative_samples, q11, image-dhash pairs). One shared guard, one
    documented return-type contract: Dataset when non-empty, schema'd
    Arrow table when empty."""
    out = ds.materialize()
    if out.count() == 0:
        return schema.empty_table()
    return out
