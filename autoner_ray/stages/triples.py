"""Triple extraction + edge aggregation (north-rule A7/J5 stages).

Rule (deterministic, sentence-scoped): for every unordered pair of distinct
canonical entities co-occurring in a sentence, emit
``(subj=min, pred="cooccurs_with", obj=max)``; the edge weight is the
number of sentences where the pair co-occurs.

Scale design (SURVEY.md §4):
- pair generation is a stateless ``map_batches`` over SENTENCE rows (a
  sentence is never split across batches, so no pair is lost);
- counts are PRE-AGGREGATED inside each batch (combiner) so the final
  edge aggregate moves one row per distinct edge per batch instead of
  one per occurrence — with Zipfian heads this is the
  difference between shipping O(corpus) and O(edge-vocab × blocks);
- hot-key salting is unnecessary after the combiner for count aggregation
  (associative merge), which is exactly why the combiner runs first;
- the final aggregate (:func:`aggregate_edges`) is the one keyed
  combine (``stages/combine.py:keyed_combine``) over the edge keys. Its
  bounded tier folds the partials into one table on the driver when the
  caller declares a proven bound on distinct edges at or under
  ``BOUNDED_MAX_KEYS`` (the dictionary callers derive C(n, 2) from the
  dictionary's n canonical surfaces), and names the edge columns there,
  with no Ray task over the folded table; every other caller takes its
  partitioned tier, the one exchange on ``subj``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from autoner_ray.schemas import EDGE_PARTIALS, EDGES
from autoner_ray.stages.combine import (
    bounded_fold,
    bounded_partials,
    edge_tier,
    keyed_combine,
)

PRED_COOCCUR = "cooccurs_with"


def pairs_within(group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs ``i < j`` with ``group[i] == group[j]`` of a
    sorted group array, ordered by ``i`` then ``j`` (the order of
    ``itertools.combinations`` within each group)."""
    n = len(group)
    later = np.searchsorted(group, group, side="right") - np.arange(n) - 1
    i = np.repeat(np.arange(n), later)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(later) - later, later)
    return i, j


def cooccurrence_partials(sent: np.ndarray, ents: pa.Array) -> pa.Table:
    """Entity occurrences -> partial ``(subj, pred, obj, w)`` rows.

    ``sent[k]`` is the sentence of entity string ``ents[k]``; repeats
    within a sentence count once. Every unordered pair of distinct
    entities of a sentence adds 1 to the edge ``(min, max)``, as
    ``itertools.combinations`` over the sorted distinct set would."""
    # sorted distinct strings: rank order is code point order, the
    # order Python's sorted() gives
    uniq = pc.unique(ents)
    uniq = uniq.take(pc.sort_indices(uniq))
    n = max(len(uniq), 1)
    rank = pc.index_in(ents, value_set=uniq).to_numpy(zero_copy_only=False)
    key = np.unique(np.asarray(sent, np.int64) * n + rank)
    i, j = pairs_within(key // n)
    rank = key % n
    keys, w = np.unique(rank[i] * n + rank[j], return_counts=True)
    return pa.table(
        {
            "subj": uniq.take(keys // n),
            "pred": pa.array([PRED_COOCCUR] * len(keys), pa.string()),
            "obj": uniq.take(keys % n),
            "w": pa.array(w.astype(np.int64)),
        }
    )


def pair_counts_batch(batch: pa.Table) -> pa.Table:
    """sentence rows (entities list) -> partial (subj, pred, obj, w) rows."""
    ents = batch["entities"].combine_chunks()
    return cooccurrence_partials(
        pc.list_parent_indices(ents).to_numpy(), pc.list_flatten(ents)
    )


# the edge weight, and the evidence pointer when the partials carry one
_AGGS = [("w", "sum"), ("ev", "min")]
_NAMES = {"w": "weight", "ev": "evidence"}


def edge_table(t: pa.Table) -> pa.Table:
    """Final edge columns from combined partials: ``(subj, pred, obj,
    weight)``, plus ``evidence`` when the partials carry ``ev``. A
    zero-column block gives the schema'd empty edge table."""
    if t.num_columns == 0:
        return EDGES.empty_table()
    return t.rename_columns([_NAMES.get(c, c) for c in t.column_names])


def fold_edges(partials, max_keys: int) -> pa.Table:
    """Final edges from an iterable of partial tables, folded on the
    driver (:func:`~autoner_ray.stages.combine.bounded_fold`)."""
    return edge_table(bounded_fold(partials, EDGE_PARTIALS, _AGGS, max_keys))


def aggregate_edges(pairs_ds, coalesce: bool = True,
                    max_keys: int | None = None):
    """Final edge weights from ``(subj, pred, obj, w)`` partials; with an
    ``ev`` column also the min evidence pointer per edge, as
    ``evidence``.

    :func:`keyed_combine` over the edge keys: ``max_keys``, a proven
    bound on the distinct edges, selects its tier. The bounded tier
    returns the driver-folded edges as one ``from_arrow`` block, so the
    upstream plan runs before this returns; the partitioned tier hashes
    on ``subj`` (every row of an edge shares its subj, so co-location
    holds). ``coalesce`` is keyed_combine's."""
    import ray.data as rd

    if edge_tier(max_keys) == "bounded":
        return rd.from_arrow(fold_edges(
            bounded_partials(pairs_ds, EDGE_PARTIALS, _AGGS), max_keys
        ))
    return keyed_combine(
        pairs_ds, EDGE_PARTIALS, _AGGS, part_on=("subj",), max_keys=max_keys,
        coalesce=coalesce,
    ).map_batches(edge_table, batch_format="pyarrow", batch_size=None)
