"""Shuffle-free sum-combine for bounded-cardinality keys.

Many pipeline tails reduce a pre-aggregated partial stream whose key
cardinality is small and bounded by construction — entity types (bounded
by the dictionary), TPC-H (returnflag, linestatus) pairs, language
codes. Ray's ``groupby().aggregate(...)`` runs a full sort-based
shuffle for these, which at small scale costs ~1-2 s of machinery for a
4-row result and at large scale moves every partial block through an
all-to-all exchange it doesn't need.

``bounded_key_sum`` instead does a streaming two-level combine:

1. per-batch arrow hash aggregate over ~64k-row batches (the partial
   stream shrinks to ≤ |keys| rows per batch), then
2. a single-task final combine over the coalesced remainder.

Correct because integer/float sums re-associate. At 10^12-doc scale the
stream entering the final task is (#post-coalesce blocks × ≤ |keys|)
rows: for |keys| ≤ 10^4 and ~10^6 input blocks that is well under one
task's memory. NOT for unbounded keys (doc ids, words, entity surfaces
in general) — those keep hash-partitioned shuffles. The one exception
among entity surfaces: edge keys made of a fixed dictionary's canonical
surfaces are bounded by that dictionary, and
``stages/triples.py:aggregate_edges`` takes this same one-task shape for
them under a declared key bound (``dict_match.pair_key_bound``).
"""

from __future__ import annotations

import pyarrow as pa


def bounded_key_sum(ds, keys: list[str], sum_cols: list[str],
                    coalesce_rows: int = 65536):
    """Sum ``sum_cols`` grouped by bounded-cardinality ``keys``.

    ``ds`` rows must already be partial sums (any pre-aggregation level,
    including none). Returns a Dataset with columns ``keys + sum_cols``
    (original names preserved).
    """
    out_names = list(keys) + list(sum_cols)
    aggs = [(c, "sum") for c in sum_cols]

    def combine(t: pa.Table) -> pa.Table:
        # len == 0 flows through the aggregate (keeps the real schema);
        # zero-COLUMN blocks (schema-less empties some operators emit)
        # can't — synthesize the declared layout.
        if t.num_columns == 0:
            return pa.table(
                {k: pa.array([], pa.string()) for k in keys}
                | {c: pa.array([], pa.int64()) for c in sum_cols}
            )
        return (
            t.select(out_names)
            .group_by(keys)
            .aggregate(aggs)
            .rename_columns(out_names)
        )

    return (
        ds.map_batches(
            combine, batch_format="pyarrow", batch_size=coalesce_rows
        )
        .repartition(1)
        # batch_size=None -> whole (single) block in one task
        .map_batches(combine, batch_format="pyarrow", batch_size=None)
    )


def partitioned_key_sum(ds, keys: list[str], sum_cols: list[str],
                        part_on: tuple[str, ...] | None = None,
                        num_partitions: int | None = None,
                        coalesce_rows: int = 65536):
    """Key-distributed sibling of :func:`bounded_key_sum` for UNBOUNDED
    key sets (vocab-sized): per-batch partial combine -> stable hash
    partition on ``part_on`` (defaults to all keys; pass a single-column
    subset like ``("word",)`` to hit the vectorized hash path — any
    subset co-locates identical full keys) -> per-partition final
    combine. Exactly one row per key globally, spread across
    ``num_partitions`` blocks — nothing key-set-sized ever sits in one
    block or on the driver. String keys / int64 sums assumed for the
    empty-block schema synth (same contract as ``bounded_key_sum``).

    Downstream stages that need same-key co-location (pair mining,
    per-key verify) can rely on the output partitioning: all rows
    sharing ``part_on`` land in the same block.
    """
    from autoner_ray.cluster import default_num_partitions
    from autoner_ray.stages.joins import _stable_part_col

    P = num_partitions or default_num_partitions()
    part_on = tuple(part_on or keys)
    out_names = list(keys) + list(sum_cols)
    aggs = [(c, "sum") for c in sum_cols]

    def _empty() -> pa.Table:
        return pa.table(
            {k: pa.array([], pa.string()) for k in keys}
            | {c: pa.array([], pa.int64()) for c in sum_cols}
        )

    def partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            t = _empty()
        agg = (
            t.select(out_names)
            .group_by(keys)
            .aggregate(aggs)
            .rename_columns(out_names)
        )
        return agg.append_column(
            "__part", _stable_part_col(agg, part_on, P)
        )

    def final(t: pa.Table) -> pa.Table:
        # only schema-LESS blocks need the synth; zero-row TYPED blocks
        # must flow through the aggregate to keep non-string key dtypes
        # (e.g. timestamp keys) instead of the string-keyed empty
        if t.num_columns == 0:
            return _empty()
        return (
            t.select(out_names)
            .group_by(keys)
            .aggregate(aggs)
            .rename_columns(out_names)
        )

    return (
        ds.map_batches(
            partial, batch_format="pyarrow", batch_size=coalesce_rows
        )
        .groupby("__part")
        .map_groups(final, batch_format="pyarrow")
    )


def partitioned_key_agg(ds, keys: list[str], aggs: list[tuple[str, str]],
                        part_on: tuple[str, ...] | None = None,
                        num_partitions: int | None = None,
                        coalesce_rows: int = 65536):
    """Generalization of :func:`partitioned_key_sum` to any
    RE-ASSOCIATIVE arrow hash aggregate — ``aggs`` is
    ``[(col, "min"|"max"|"sum"), ...]`` (fns where agg(agg(a), agg(b))
    == agg(a ∪ b); "count"/"mean" are NOT — pre-reduce those to sum
    partials first). Same two-level shape: per-batch partial combine ->
    stable hash partition on ``part_on`` -> per-partition final
    combine; exactly one row per key globally, never key-set-sized on
    the driver. Input blocks must carry the real schema when empty
    (zero-COLUMN blocks get a string-key/int64-value synth, the
    ``bounded_key_sum`` contract)."""
    from autoner_ray.cluster import default_num_partitions
    from autoner_ray.stages.joins import _stable_part_col

    P = num_partitions or default_num_partitions()
    part_on = tuple(part_on or keys)
    val_cols = [c for c, _ in aggs]
    out_names = list(keys) + val_cols

    def _empty() -> pa.Table:
        return pa.table(
            {k: pa.array([], pa.string()) for k in keys}
            | {c: pa.array([], pa.int64()) for c in val_cols}
        )

    def _combine(t: pa.Table) -> pa.Table:
        return (
            t.select(out_names)
            .group_by(keys)
            .aggregate(aggs)
            .rename_columns(out_names)
        )

    def partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            t = _empty()
        agg = _combine(t)
        return agg.append_column(
            "__part", _stable_part_col(agg, part_on, P)
        )

    def final(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            return _empty()
        return _combine(t)

    return (
        ds.map_batches(
            partial, batch_format="pyarrow", batch_size=coalesce_rows
        )
        .groupby("__part")
        .map_groups(final, batch_format="pyarrow")
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
