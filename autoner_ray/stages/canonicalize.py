"""Entity canonicalization (north rule J5): mention surfaces → entity ids.

Semantics (deterministic, order-independent):
- key      = ``normalize_surface(surface)`` (lower/strip/space-collapse,
  ``functions/text.py:134``) — the groupby key.
- canonical surface of an entity = its MOST FREQUENT raw surface form,
  ties broken lexicographically (smallest) so the result never depends
  on block layout.
- ``entity_id`` = dense int64 rank of entities ordered by
  (total mentions desc, key asc) — id 0 is the most-mentioned entity.

Scale design (SURVEY.md §2.4 J5 / §4 skew):
- Counting (canon, surface) pairs is ASSOCIATIVE, so a per-batch
  combiner (``map_batches`` Counter) runs first and the shuffle moves
  one row per distinct (canon, surface) per block — Zipfian head
  entities ship partial counts, not raw mentions.
- ONE exchange (a sort on the 64-bit hash of key,
  ``stages/combine.py:exchange``) colocates everything a key needs; a
  single vectorized pandas pass per sorted block then finishes the
  pair counts AND picks the canonical surface. (Rounds 1–2 used a
  3-shuffle salted two-phase plan; the combiner already bounds a hot
  key's partial rows to #blocks × #surface-variants, so the extra
  salting shuffles bought nothing but wall time — Ray multi-key row
  aggregates cost ~3 ms/row in Python.)
- Skew bound: a block holds ~pairs_total/#blocks plus the hot key's
  ≤ #blocks × #variants partials — pandas groupby handles millions of
  such rows per task.
- Linking mentions back to ids is a BROADCAST join: the entity dim table
  is ``ray.put`` once and each map task resolves ids locally — no second
  shuffle of the big mention stream.
"""

from __future__ import annotations

from collections import Counter

import pyarrow as pa

from autoner_ray.functions.text import normalize_surface

# the entity dim table's columns, before the dense id
ENTITIES = pa.schema(
    [("key", pa.string()), ("canonical_surface", pa.string()),
     ("n_mentions", pa.int64())]
)


def surface_pair_partials(mentions_batch: pa.Table) -> pa.Table:
    """Combiner: mention rows -> partial (key, surface, n) counts."""
    counter: Counter[tuple[str, str]] = Counter()
    for surface in mentions_batch["surface"].to_pylist():
        counter[(normalize_surface(surface), surface)] += 1
    keys = [k for k, _ in counter]
    surfaces = [s for _, s in counter]
    return pa.table(
        {
            "key": pa.array(keys, pa.string()),
            "surface": pa.array(surfaces, pa.string()),
            "n": pa.array(list(counter.values()), pa.int64()),
        }
    )


def _reduce_partition(df):
    """Finish one sorted block: complete the (key, surface) counts,
    then per key pick the winner surface (max n, then smallest surface)
    and the mention total. All keys of the partition in one vectorized
    pandas pass."""
    import pandas as pd

    pairs = df.groupby(["key", "surface"], as_index=False, sort=False)[
        "n"
    ].sum()
    pairs = pairs.sort_values(
        ["key", "n", "surface"], ascending=[True, False, True],
        kind="mergesort",
    )
    winners = pairs.drop_duplicates("key", keep="first")
    totals = pairs.groupby("key", sort=False)["n"].sum()
    return pd.DataFrame(
        {
            "key": winners["key"].to_numpy(),
            "canonical_surface": winners["surface"].to_numpy(),
            "n_mentions": totals.loc[winners["key"]].to_numpy(),
        }
    )


def canonical_entities(mentions_ds):
    """Entity dim table rows: key, canonical_surface, n_mentions.

    One combiner pass + ONE exchange on key + one pandas reduce per
    sorted block (see module docstring for the skew bound).
    """
    from autoner_ray.stages.combine import HASH, exchange, with_key_hash

    def precombine(t: pa.Table) -> pa.Table:
        # coalesce many tiny per-block partial tables into ≤ pair-vocab
        # rows per 64k batch BEFORE the exchange: the sort's driver-side
        # metadata scales with input blocks (see keyed_combine,
        # stages/combine.py)
        g = t.group_by(["key", "surface"]).aggregate([("n", "sum")])
        return with_key_hash(
            g.rename_columns(["key", "surface", "n"]), ("key",)
        )

    return exchange(
        mentions_ds.map_batches(
            surface_pair_partials, batch_format="pyarrow"
        )
        # num_cpus=0.5 breaks fusion with surface_pair_partials: fused,
        # the chain bundles to THIS stage's 64k batch_size and caps the
        # expensive pair stage at rows/65536 tasks (stages/combine.py
        # keyed_combine documents the measured effect)
        .map_batches(precombine, batch_format="pyarrow",
                     batch_size=65536, num_cpus=0.5),
        HASH, _reduce_partition, ENTITIES, batch_format="pandas",
    )


def entity_id_table(entities_ds) -> pa.Table:
    """Dense ids by (n_mentions desc, key asc). Entity vocab is small
    relative to the corpus (dictionary-bounded), so this materializes —
    it is the broadcast side of the link join. No entity gives the
    empty table of these columns."""
    import pyarrow.compute as pc

    from autoner_ray.stages.graph import _collect

    t = _collect(entities_ds, ENTITIES.names).cast(ENTITIES)
    order = pc.sort_indices(
        t,
        sort_keys=[("n_mentions", "descending"), ("key", "ascending")],
    )
    t = t.take(order)
    return t.append_column(
        "entity_id", pa.array(range(t.num_rows), pa.int64())
    )


class LinkMentions:
    """Broadcast-join actor: resolve mention surface -> entity_id."""

    def __init__(self, id_table_ref) -> None:
        import ray

        t = (
            ray.get(id_table_ref)
            if isinstance(id_table_ref, ray.ObjectRef)
            else id_table_ref
        )
        self.ids = dict(
            zip(t["key"].to_pylist(), t["entity_id"].to_pylist())
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = [
            self.ids.get(normalize_surface(s), -1)
            for s in batch["surface"].to_pylist()
        ]
        return batch.append_column("entity_id", pa.array(ids, pa.int64()))


def link_mentions(mentions_ds, entities_ds, concurrency: int = 2):
    """mentions + entity_id via broadcast of the entity dim table."""
    import ray

    ref = ray.put(entity_id_table(entities_ds))
    return mentions_ds.map_batches(
        LinkMentions,
        fn_constructor_kwargs={"id_table_ref": ref},
        batch_format="pyarrow",
        concurrency=concurrency,
    )
