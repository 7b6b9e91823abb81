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
- the final aggregate (:func:`aggregate_edges`) has two tiers, chosen
  when the plan is built because Ray Data has no adaptive execution.
  The bounded tier needs a caller-declared proven bound on distinct edge
  keys at or under ``BOUNDED_MAX_KEYS`` (the dictionary callers derive
  C(n, 2) from the dictionary's n canonical surfaces); it sums the
  partials in ONE task and raises :class:`ExchangeBoundExceeded` above
  ``BOUNDED_MAX_ROWS`` input rows. Every other caller (no bound, or a
  larger one) takes the partitioned tier: one hash shuffle on ``subj``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

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


class ExchangeBoundExceeded(RuntimeError):
    """The one-task edge combine got more partial rows than
    ``BOUNDED_MAX_ROWS``. Raised instead of truncating the edge set."""


# Bounded tier: taken when the caller declares at most this many
# distinct edge keys. Each precombine batch then leaves at most this
# many rows, so the one combine task holds at most
# (precombine batches x BOUNDED_MAX_KEYS) rows.
BOUNDED_MAX_KEYS = 4096
# Rows the one combine task accepts (about 200 MB of edge partials).
BOUNDED_MAX_ROWS = 1 << 21

_KEYS = ["subj", "pred", "obj"]


def edge_partials(t: pa.Table) -> pa.Table:
    """Sum ``w`` (and take the min ``ev`` evidence pointer, when the
    input has that column) per ``(subj, pred, obj)``. A zero-column
    block gives the schema'd empty partial table."""
    if t.num_columns == 0:
        return pa.table(
            {k: pa.array([], pa.string()) for k in _KEYS}
            | {"w": pa.array([], pa.int64())}
        )
    aggs = [("w", "sum")] + (
        [("ev", "min")] if "ev" in t.column_names else []
    )
    names = _KEYS + [c for c, _ in aggs]
    return t.select(names).group_by(_KEYS).aggregate(aggs).rename_columns(
        names
    )


def edge_table(t: pa.Table) -> pa.Table:
    """Final edges from partials: ``(subj, pred, obj, weight)``, plus
    ``evidence`` when the partials carry ``ev``."""
    p = edge_partials(t)
    extra = ["weight", "evidence"][: p.num_columns - len(_KEYS)]
    return p.rename_columns(_KEYS + extra)


def edge_tier(max_keys: int | None) -> str:
    """The tier :func:`aggregate_edges` takes for a declared key bound."""
    if max_keys is not None and max_keys <= BOUNDED_MAX_KEYS:
        return "bounded"
    return "partitioned"


def aggregate_edges(pairs_ds, num_partitions: int | None = None,
                    coalesce: bool = True, max_keys: int | None = None):
    """Final edge weights from ``(subj, pred, obj, w)`` partials; with an
    ``ev`` column also the min evidence pointer per edge, as
    ``evidence``.

    Two tiers, chosen when the plan is built (see :func:`edge_tier`):

    - bounded: ``max_keys`` is a proven upper bound on the distinct edge
      keys, at or under ``BOUNDED_MAX_KEYS``. The partials go through
      the streaming precombine, ``repartition(1)`` and ONE ``combine``
      task; no sort shuffle runs. That task raises
      :class:`ExchangeBoundExceeded` when its input holds more than
      ``BOUNDED_MAX_ROWS`` rows; it never truncates.
    - partitioned: no bound, or a larger one. One hash shuffle on
      ``subj`` (every row of an edge shares its subj, so co-location
      holds) into ``num_partitions`` groups, each summed by ``combine``.

    ``coalesce`` (default True) inserts a streaming 64k-row precombine
    before the exchange: the sort shuffle's scheduler metadata scales
    with input blocks × partitions (~0.9 GB measured at 1.5k tiny
    partial blocks), and merging blocks is the only fix; in the bounded
    tier it keeps the one task's input at ≤ ``max_keys`` rows per 64k
    partial rows. Turn it OFF for pipelines whose upstream is much
    slower than the partial stream AND whose total partial rows never
    fill a batch (e.g. the hybrid tagger at small scale): a bundler
    waiting on a starved slow stream measurably drags the whole
    topology (4.3 s → 11 s at sf0.1)."""
    from autoner_ray.cluster import default_num_partitions
    from autoner_ray.stages.joins import _stable_part_col

    ds = pairs_ds
    if coalesce:
        # num_cpus=0.5 BREAKS operator fusion with the upstream match
        # chain (Ray fuses map_batches ops only when remote args are
        # equal). Fused, the read->match->precombine chain bundles to
        # THIS stage's 64k-row batch_size: kg_triples_full at sf0.1 x 64
        # (320k docs, 64 read blocks, 4 CPUs) ran 5 match tasks fused
        # against 64 unfused. Wall time there was within noise (median
        # [quartiles] of 5 runs on 4 vCPUs: 11.29 s [11.14, 11.35] fused,
        # 10.94 s [10.82, 11.10] unfused), as was kgbench kg_flagship on
        # 1 CPU. The break stays because a fused chain caps the match
        # stage at corpus/65536 tasks, which leaves a wider cluster idle.
        ds = ds.map_batches(
            edge_partials, batch_format="pyarrow", batch_size=65536,
            num_cpus=0.5,
        )

    if edge_tier(max_keys) == "bounded":
        # read when the plan is built, so the task checks the bound the
        # caller's process sees
        row_bound = BOUNDED_MAX_ROWS

        def combine(t: pa.Table) -> pa.Table:
            if t.num_rows > row_bound:
                raise ExchangeBoundExceeded(
                    f"one-task edge combine got {t.num_rows} partial rows; "
                    f"BOUNDED_MAX_ROWS is {row_bound}"
                )
            return edge_table(t)

        # batch_size=None -> the single block in one task
        return ds.repartition(1).map_batches(
            combine, batch_format="pyarrow", batch_size=None
        )

    P = num_partitions or default_num_partitions()

    def add_part(t: pa.Table) -> pa.Table:
        p = edge_partials(t)
        return p.append_column("part", _stable_part_col(p, ("subj",), P))

    def combine(t: pa.Table) -> pa.Table:  # the stage name traces key on
        return edge_table(t)

    # the same CPU request as the op before, so add_part fuses into it
    fuse = {"num_cpus": 0.5} if coalesce else {}
    return (
        ds.map_batches(add_part, batch_format="pyarrow", **fuse)
        .groupby("part")
        .map_groups(combine, batch_format="pyarrow")
    )


def entity_doc_freq(sentences_ds):
    """Canonical-entity document frequency (per-sentence distinct)."""
    from ray.data.aggregate import Sum

    def explode(batch: pa.Table) -> pa.Table:
        counter: Counter[str] = Counter()
        for ents in batch["entities"].to_pylist():
            counter.update(ents)
        return pa.table(
            {
                "entity": pa.array(list(counter.keys()), pa.string()),
                "n": pa.array(list(counter.values()), pa.int64()),
            }
        )

    def precombine(t: pa.Table) -> pa.Table:
        g = t.group_by("entity").aggregate([("n", "sum")])
        return g.rename_columns(["entity", "n"])

    return (
        sentences_ds.map_batches(explode, batch_format="pyarrow")
        .map_batches(precombine, batch_format="pyarrow", batch_size=None)
        .groupby("entity")
        .aggregate(Sum("n", alias_name="sent_freq"))
    )
