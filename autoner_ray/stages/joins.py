"""Joins on a key: the sparse-key-safe distributed hash join
(co-group shape) and the broadcast id filter for a small id side.

``ray.data.Dataset.join`` (Ray 2.49) crashes whenever a hash partition
receives ZERO blocks from one side: the aggregator's block builder then
produces a no-column empty table and the in-partition acero join raises
``ArrowInvalid: no match for key field``. Dense workloads never hit it;
sparse-key workloads (LSH candidate pairs, capped buckets, small
fixtures) hit it constantly.

:func:`cogroup_join` tags both sides' rows with their side, unions
them, and runs the one exchange (:func:`autoner_ray.stages.combine.
exchange`): a sort on the 64-bit hash of the key columns brings every
row of a key, from both sides, into one block, and a vectorized acero
join runs per block. The join declares its output schema, so a block
holding one side only gives an empty table with the declared columns,
never a schema-less one. The hash is content-derived (md5 or
splitmix64), stable across runs and cluster layouts.

Cost vs Dataset.join: identical shuffle volume; one Python call per
sorted block (one per input block), not per key; both sides' columns
travel in one unioned stream with nulls for the other side's fields.

:func:`id_filter` is the semi-join / anti-join for an id side that fits
the driver (near-dup losers, cluster members, contaminated docs): no
shuffle, one vectorized ``pc.is_in`` per batch.
"""

from __future__ import annotations

import pyarrow as pa

_SIDE = "__cg_side"


def cogroup_join(left, right, on: tuple[str, ...],
                 join_type: str = "inner"):
    """Join of two Datasets on ``on`` (shared column names), safe
    for sparse/empty key distributions. Non-key column names must be
    disjoint between the two sides. ``join_type`` is ``"inner"``
    (default) or ``"left outer"`` — left-outer preserves unmatched
    LEFT rows with null right columns (a block whose right side is
    empty emits its left rows null-padded)."""
    from autoner_ray.stages.combine import exchange

    lschema = left.schema()  # ray.data Schema: .names + .types (pa types)
    rschema = right.schema()
    ltypes_all = dict(zip(lschema.names, lschema.types))
    rtypes_all = dict(zip(rschema.names, rschema.types))
    lcols = [n for n in lschema.names if n not in on]
    rcols = [n for n in rschema.names if n not in on]
    overlap = set(lcols) & set(rcols)
    assert not overlap, f"non-key columns collide: {overlap}"
    key_types = {c: ltypes_all[c] for c in on}
    ltypes = {c: ltypes_all[c] for c in lcols}
    rtypes = {c: rtypes_all[c] for c in rcols}
    out_fields = (
        [(c, key_types[c]) for c in on]
        + [(c, ltypes[c]) for c in lcols]
        + [(c, rtypes[c]) for c in rcols]
    )
    out_schema = pa.schema(out_fields)

    def tag(side: int, own_cols):
        # both sides in the output's column order, so the union's
        # blocks share one schema
        def fn(t: pa.Table) -> pa.Table:
            n = len(t)
            cols = [
                t[c] if c in on or c in own_cols else pa.nulls(n, ty)
                for c, ty in out_fields
            ]
            cols.append(pa.array([side] * n, pa.int8()))
            return pa.table(cols, names=out_schema.names + [_SIDE])

        return fn

    tagged = left.map_batches(
        tag(0, lcols), batch_format="pyarrow"
    ).union(right.map_batches(tag(1, rcols), batch_format="pyarrow"))

    lt_schema = pa.schema(
        [(c, key_types[c]) for c in on] + [(c, ltypes[c]) for c in lcols]
    )
    rt_schema = pa.schema(
        [(c, key_types[c]) for c in on] + [(c, rtypes[c]) for c in rcols]
    )

    def join_partition(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        lmask = pc.equal(t[_SIDE], 0)
        lt = t.filter(lmask).select(list(on) + lcols)
        rt = t.filter(pc.invert(lmask)).select(list(on) + rcols)
        if len(lt) == 0 or (len(rt) == 0 and join_type == "inner"):
            return out_schema.empty_table()
        # cast back to the declared schema: the null-padded union can
        # round-trip through PANDAS blocks inside the shuffle, where an
        # all-null-bearing int64 column silently becomes float64
        lt = lt.cast(lt_schema)
        rt = rt.cast(rt_schema)
        return lt.join(rt, keys=list(on), join_type=join_type).select(
            out_schema.names
        ).cast(out_schema)

    return exchange(tagged, on, join_partition, out_schema)


def id_filter(ds, on: str, ids, anti: bool = False):
    """Rows of ``ds`` whose ``on`` value is in ``ids`` (``anti=True``:
    not in ``ids``), every column kept. ``ids`` is an Arrow array held
    by the map's closure, which Ray puts in the object store once per
    operator, so the filter is a plain task-pool ``map_batches`` with
    one vectorized ``pc.is_in`` per batch and no shuffle of ``ds``."""
    import pyarrow.compute as pc

    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()

    def keep(t: pa.Table) -> pa.Table:
        col = t[on]
        # ids collected from an empty Dataset may be null-typed
        hit = pc.is_in(col, value_set=ids.cast(col.type))
        return t.filter(pc.invert(hit) if anti else hit)

    return ds.map_batches(keep, batch_format="pyarrow")
