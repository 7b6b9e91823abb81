"""One exchange, and the one keyed combine built on it.

Every shuffle in the engine is :func:`exchange`: add a 64-bit hash of
the key columns, ``sort()`` on it, then run the caller's function once
per sorted block with ``map_batches(batch_size=None)``. Rows of one key
share a hash, so they land in one block; a block holds many keys and
the function groups inside it. The caller declares the output
``pa.Schema``, and pandas output is cast to it without schema
metadata, so every block the function emits carries the same types
(an empty DataFrame included). No partition count is chosen anywhere:
parallelism is the input's block count.

The sort makes one reducer per input block, over ranges cut at sampled
quantiles of the hash. A range is empty only when the input holds
fewer distinct key hashes than blocks, or one hash holds more than a
range's share of rows. An empty reducer comes out as a zero-column
block, and no declared schema can reach it: Ray 2.49's map operator
never passes a zero-row block to a UDF (``Batcher.add`` drops it) and
emits a zero-column block in its place.

The edge aggregate, the canonical-entity and doc-freq tables, the
curation dedups and many analysis tails reduce a partial stream by
key. :func:`keyed_combine` is the one implementation of that shape:

1. ``add_part``: an Arrow hash aggregate per batch, so the partial
   stream shrinks to at most one row per key per batch;
2. the same aggregate again over the partials of every key.

This is correct because the aggregates re-associate: for sum, min and
max, agg(agg(a), agg(b)) == agg(a ∪ b). "count" and "mean" do not;
pre-reduce them to sum partials (a ones column) first.

Two tiers, chosen when the plan is built (Ray Data has no adaptive
execution; see :func:`edge_tier`):

- bounded: the caller declares ``max_keys``, a proven bound on the
  distinct keys, at or under ``BOUNDED_MAX_KEYS`` (entity types bounded
  by the dictionary, edge keys of a fixed dictionary's canonical
  surfaces, the four statuses of a diff). ``add_part`` runs fused into
  the upstream operator, and the driver streams its blocks and folds
  them into one table (:func:`bounded_fold`), returned as a one-block
  ``from_arrow`` Dataset: no sort, no repartition and no combine task
  runs, and the call executes the upstream plan before it returns. The
  fold raises :class:`ExchangeBoundExceeded` when it holds more keys
  than ``max_keys``; it never truncates.
- partitioned: no bound, or a larger one (doc ids, words, pairs, corpus
  columns such as ``source`` or ``lang``). The partials go through
  :func:`exchange` on ``part_on``. Exactly one row per key globally,
  and nothing key-set-sized sits in one block or on the driver.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

# Bounded tier: taken when the caller declares at most this many
# distinct keys, which the driver then holds in one table.
BOUNDED_MAX_KEYS = 4096
# Rows per precombine batch.
COALESCE_ROWS = 65536
# The key-hash column the exchange sorts on.
HASH = "__h"


class ExchangeBoundExceeded(RuntimeError):
    """A bounded-tier fold holds more keys than the caller's declared
    ``max_keys``. Raised instead of truncating the result."""


def edge_tier(max_keys: int | None) -> str:
    """The tier :func:`keyed_combine` takes for a declared key bound."""
    if max_keys is not None and max_keys <= BOUNDED_MAX_KEYS:
        return "bounded"
    return "partitioned"


def splitmix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over a uint64 array."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def key_hash(t: pa.Table, on: tuple[str, ...]) -> pa.Array:
    """A 64-bit hash of the key columns ``on`` per row, as int64.

    Both sides of a join compute it, so the branch is on the column
    TYPE only, never on per-batch properties like null_count (a
    nullable int key split across batches must hash the same
    everywhere). A single integer key takes splitmix64 with nulls
    mapped to a fixed sentinel (a null never matches in an inner join,
    so its hash only needs to be deterministic); a single string key
    takes the memoized md5-64 with nulls hashed as ``"None"``; several
    columns take md5-64 of their ``str`` images joined by ``\\x1f``."""
    if len(on) == 1:
        col = t[on[0]]
        if pa.types.is_integer(col.type):
            if col.null_count:
                col = col.fill_null(-(1 << 62) + 0x5EED)
            z = col.to_numpy(zero_copy_only=False).astype(np.uint64)
            return pa.array(splitmix64(z).view(np.int64))
        if pa.types.is_string(col.type) or pa.types.is_large_string(
            col.type
        ):
            from autoner_ray.functions.hashing import md5_64_array

            vals = col.to_pylist()
            if col.null_count:
                vals = ["None" if v is None else v for v in vals]
            return pa.array(md5_64_array(vals).view(np.int64))
    keys = [t[c].to_pylist() for c in on]
    return pa.array(
        [
            int.from_bytes(
                hashlib.md5(
                    "\x1f".join(str(v) for v in row).encode()
                ).digest()[:8],
                "big",
                signed=True,
            )
            for row in zip(*keys)
        ],
        pa.int64(),
    )


def with_key_hash(t: pa.Table, on: tuple[str, ...]) -> pa.Table:
    """``t`` plus its :func:`key_hash` column ``HASH``."""
    return t.append_column(HASH, key_hash(t, on))


def typed_block(fn, schema: pa.Schema, batch_format: str = "pyarrow"):
    """``fn`` over one whole block, with the declared output ``schema``.

    The ``HASH`` column is dropped before ``fn``. With
    ``batch_format="pandas"``, ``fn`` gets a DataFrame, and a DataFrame
    it returns is cast to ``schema`` without pandas schema metadata.
    Arrow output is returned as ``fn`` built it."""

    def run(t: pa.Table) -> pa.Table:
        if HASH in t.column_names:
            t = t.drop_columns([HASH])
        out = fn(t.to_pandas() if batch_format == "pandas" else t)
        if isinstance(out, pa.Table):
            return out
        return pa.Table.from_pandas(
            out, schema=schema, preserve_index=False
        ).replace_schema_metadata(None)

    run.__name__ = getattr(fn, "__name__", "exchange")
    return run


def exchange(ds, on, fn, schema: pa.Schema, batch_format: str = "pyarrow"):
    """Bring every row of a key into one block, then run ``fn`` once per
    block (see the module docstring); returns blocks of ``schema``.

    ``on`` is a tuple of key columns, whose :func:`key_hash` the
    exchange adds; or the name of a column the blocks already carry
    that holds a uniformly spread 64-bit hash of the key (an LSH band
    hash, an n-gram hash), sorted on as it is.

    The hash column is added over ``COALESCE_ROWS``-row batches: the sort
    makes one reducer per input block, so coalesced input gives each
    reducer a full range of rows instead of the few keys of a tiny
    upstream block, and keeps the sort's metadata small. ``num_cpus=0.5``
    keeps that batching out of the upstream operator (see
    :func:`keyed_combine`)."""
    if not isinstance(on, str):
        keys = tuple(on)
        ds = ds.map_batches(
            lambda t: with_key_hash(t, keys), batch_format="pyarrow",
            batch_size=COALESCE_ROWS, num_cpus=0.5,
        )
        on = HASH
    return ds.sort(on).map_batches(
        typed_block(fn, schema, batch_format), batch_format="pyarrow",
        batch_size=None,
    )


def combine_table(t: pa.Table, keys: list[str],
                  aggs: list[tuple[str, str]]) -> pa.Table:
    """One Arrow hash aggregate: ``keys`` plus one column per
    ``(column, fn)`` of ``aggs``, named as its input column. A value
    column the block does not carry is left out of the result (the
    edge aggregate's optional ``ev`` pointer)."""
    aggs = [(c, fn) for c, fn in aggs if c in t.column_names]
    names = list(keys) + [c for c, _ in aggs]
    return t.select(names).group_by(keys).aggregate(aggs).rename_columns(
        names
    )


def key_columns(schema: pa.Schema, aggs: list[tuple[str, str]]) -> list[str]:
    """The fields of ``schema`` that ``aggs`` does not aggregate."""
    agg_cols = {c for c, _ in aggs}
    return [n for n in schema.names if n not in agg_cols]


def bounded_fold(tables, schema: pa.Schema, aggs: list[tuple[str, str]],
                 max_keys: int) -> pa.Table:
    """The bounded tier's combine, on the driver: fold each partial
    table of ``tables`` into one accumulator with :func:`combine_table`.
    Raises :class:`ExchangeBoundExceeded` once the accumulator holds
    more than ``max_keys`` keys; zero rows give ``schema``'s empty
    table."""
    keys = key_columns(schema, aggs)
    acc = None
    for t in tables:
        if t.num_rows == 0:  # zero-row and zero-column blocks
            continue
        if acc is not None:
            t = pa.concat_tables([acc, t.select(acc.column_names)])
        acc = combine_table(t, keys, aggs)
        if acc.num_rows > max_keys:
            raise ExchangeBoundExceeded(
                f"bounded combine holds {acc.num_rows} keys; "
                f"the declared max_keys is {max_keys}"
            )
    return schema.empty_table() if acc is None else acc


def bounded_partials(ds, schema: pa.Schema, aggs: list[tuple[str, str]]):
    """The blocks of ``ds`` pre-aggregated by ``add_part`` (fused into
    the upstream operator), streamed to the driver as Arrow tables."""
    keys = key_columns(schema, aggs)

    def add_part(t: pa.Table) -> pa.Table:  # the stage name traces key on
        return combine_table(t, keys, aggs)

    return ds.map_batches(add_part, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    )


def keyed_combine(ds, schema: pa.Schema, aggs: list[tuple[str, str]],
                  part_on: tuple[str, ...] | None = None,
                  max_keys: int | None = None, coalesce: bool = True):
    """Combine ``ds`` with the re-associative ``aggs``
    (``[(column, "sum"|"min"|"max"), ...]``) into blocks of ``schema``:
    the key columns, then the aggregated columns under their input
    names. The keys are the fields of ``schema`` that ``aggs`` does not
    name; an aggregated column ``schema`` leaves out is carried only
    when the blocks have it (the edge aggregate's ``ev``).

    ``max_keys`` selects the tier (see the module docstring). In the
    partitioned tier, ``part_on`` (default: all keys) is the hashed key
    subset: any subset co-locates identical full keys, and downstream
    stages may rely on every row sharing ``part_on`` landing in one
    block.

    ``coalesce`` (default True) applies to the partitioned tier: it runs
    the precombine over 64k-row batches in its own operator. The sort's
    scheduler metadata scales with input blocks (~0.9 GB measured at
    1.5k tiny partial blocks), and merging blocks is the only fix.
    Turn it OFF for pipelines whose upstream is much slower than the
    partial stream AND whose total partial rows never fill a batch
    (e.g. the hybrid tagger at small scale): a bundler waiting on a
    starved slow stream measurably drags the whole topology (4.3 s →
    11 s at sf0.1). Off, the precombine runs per upstream batch, fused
    into the upstream operator, as the bounded tier's always does."""
    import ray.data as rd

    aggs = list(aggs)
    if edge_tier(max_keys) == "bounded":
        return rd.from_arrow(
            bounded_fold(bounded_partials(ds, schema, aggs), schema, aggs,
                         max_keys)
        )
    keys = key_columns(schema, aggs)
    part_on = tuple(part_on or keys)

    def add_part(t: pa.Table) -> pa.Table:  # the stage name traces key on
        return with_key_hash(combine_table(t, keys, aggs), part_on)

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

    def combine(t: pa.Table) -> pa.Table:  # the stage name traces key on
        return combine_table(t, keys, aggs)

    return exchange(ds, HASH, combine, schema)
