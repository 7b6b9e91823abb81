"""Neural tagger stages: task-pool inference + distributed span-F1 eval.

All three stages run as task pools through ``cached_stage_fn``: the
weights + vocab maps (and, where a stage needs it, the dictionary trie)
load ONCE per worker process from a broadcast blob (``ray.put`` handle)
and are reused by every task of the session.

- :class:`TaggerScorer` (T3/T4): each call re-buckets the batch by
  char-sequence length (token-budget batching, T6 — Ray batches are
  row-counted, so the budget slicing happens inside the task, SURVEY
  §7.3) and emits one row per decoded mention with its typing score
  (S12 shape), built column-wise by :func:`mention_table`.
- :class:`TaggerEval` (A4/A5): the dictionary trie (gold distant labels)
  and the model; emits per-batch partial span counts and score min/max,
  merged with a tiny ``sum``/``min``/``max`` aggregate — the distributed
  form of `model_partial_ner/utils.py:119-180`.
- :class:`HybridPairs`: the dict + neural union mention source, leaving
  as co-occurrence pair partials.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from autoner_ray.state.tagger import (
    Tagger,
    encode_batch,
    f1_from_counts,
    span_f1_counts,
    token_budget_batches,
)


def _maybe_get(obj):
    try:
        import ray

        if isinstance(obj, ray.ObjectRef):
            return ray.get(obj)
    except ImportError:
        pass
    return obj


def bucketed_predict(tagger, tokens_col, threshold: float = 0.0,
                     budget: int = 12000, with_chunk_stats: bool = False,
                     none_bias: float = 0.0):
    """Length-bucketed ``predict_batch`` over a whole Ray batch (T6):
    the batch is encoded once (:func:`encode_batch`), the encoded
    records are bucketed by char-sequence length so same-scale sentences
    share one padded forward, and each bucket's states go straight to
    the decode. Returns the span lists in input order, plus batch-wide
    chunk-score min/max when ``with_chunk_stats``.

    The budget is measured, not derived (demo model, one pinned core of
    a 4-vCPU host, ``OMP_NUM_THREADS=1``, medians of 12 interleaved
    runs). The seed-1 kg_hybrid corpus as 9 x 128-row batches takes
    0.26 s at 12000 tokens, 0.27 s at 6000, 0.28 s at 24000 and 0.30 s
    as one padded call per batch. The first 512 sf0.1 sentences take
    0.56 / 0.54 / 0.70 s (12000 / 24000 / one call) as 4 x 128-row
    batches and 0.53 / 0.47 / 0.67 s as one 512-row batch. A scan step
    costs about in proportion to its rows, so bucketing wins at both
    batch sizes; the stages send 128-row batches."""
    records = [
        (*rec, i)
        for i, rec in enumerate(
            encode_batch(tokens_col, tagger.c_map, tagger.w_map)
        )
    ]
    out: list[list] = [[] for _ in tokens_col]
    smin, smax = float("inf"), float("-inf")
    for bucket in token_budget_batches(records, budget):
        preds, bmin, bmax = tagger.predict_batch(
            None, threshold, with_chunk_stats=True, none_bias=none_bias,
            states=tagger.run_encoder(bucket),
        )
        smin = min(smin, bmin)
        smax = max(smax, bmax)
        for rec, spans in zip(bucket, preds):
            out[rec[3]] = spans
    if with_chunk_stats:
        return out, smin, smax
    return out


class TaggerScorer:
    """Sentence rows -> one row per decoded mention. Built once per
    worker by ``cached_stage_fn`` (see :func:`neural_mentions`)."""

    def __init__(self, model_blob, threshold: float = 0.0,
                 token_budget: int = 12000) -> None:
        self.tagger = Tagger.from_bytes(_maybe_get(model_blob))
        self.threshold = threshold
        self.token_budget = token_budget

    def __call__(self, batch: pa.Table) -> pa.Table:
        tokens_col = batch["tokens"].to_pylist()
        preds = bucketed_predict(
            self.tagger, tokens_col, self.threshold, self.token_budget
        )
        return mention_table(batch, tokens_col, preds)


def mention_table(batch: pa.Table, tokens_col, preds) -> pa.Table:
    """One row per decoded span in ``preds`` (span lists aligned with
    ``batch``'s rows, as :func:`bucketed_predict` returns them): the
    sentence key columns taken per span, the span's surface and type,
    and its typing score rounded to 6 decimals by Python ``round``
    (``np.round`` rounds differently)."""
    row = np.repeat(
        np.arange(len(preds)),
        np.fromiter(map(len, preds), np.int64, len(preds)),
    )
    l, r, types, scores = (
        zip(*(s for spans in preds for s in spans)) if len(row)
        else ((),) * 4
    )
    return pa.table(
        {
            "url": batch["url"].take(row).cast(pa.string()),
            "doc_id": batch["doc_id"].take(row).cast(pa.int64()),
            "sent_id": batch["sent_id"].take(row).cast(pa.int32()),
            "l": pa.array(l, pa.int32()),
            "r": pa.array(r, pa.int32()),
            "surface": pa.array(
                [" ".join(tokens_col[i][a:b])
                 for i, a, b in zip(row.tolist(), l, r)],
                pa.string(),
            ),
            "types": pa.array(types, pa.string()),
            "score": pa.array([round(x, 6) for x in scores], pa.float64()),
        }
    )


class TaggerEval:
    """Per-batch partial counts: gold = dictionary segments (distant
    labels from the trie), pred = model spans. One row per batch."""

    def __init__(self, model_blob, core_lines, full_lines=(),
                 stopword_lines=(), threshold: float = 0.0) -> None:
        from autoner_ray.stages.dict_match import DictMatcher

        self.tagger = Tagger.from_bytes(_maybe_get(model_blob))
        self.matcher = DictMatcher(core_lines, full_lines, stopword_lines)
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        tokens = batch["tokens"].combine_chunks()
        tokens_col = tokens.to_pylist()
        # A5 = min/max over the CHUNK-head score of every boundary slot —
        # what the reference inference driver tracks for threshold
        # selection (`test_partial_ner.py:80-89`), NOT the typing logits.
        # Empty batches emit +/-inf sentinels, which can never win the
        # downstream min/max merge (no 0.0 filler contaminating it).
        preds, smin, smax = bucketed_predict(
            self.tagger, tokens_col, self.threshold, with_chunk_stats=True
        )
        gold = [[] for _ in tokens_col]
        sent, left, right, types = self.matcher.typed_spans(tokens)
        for s, l, r, ty in zip(
            sent.tolist(), left.tolist(), right.tolist(), types.to_pylist()
        ):
            gold[s].append((l, r, ty))
        n_gold = n_pred = n_hit = 0
        for spans, pred in zip(gold, preds):
            g, p, h = span_f1_counts(spans, pred)
            n_gold += g
            n_pred += p
            n_hit += h
        return pa.table(
            {
                "n_gold": pa.array([n_gold], pa.int64()),
                "n_pred": pa.array([n_pred], pa.int64()),
                "n_hit": pa.array([n_hit], pa.int64()),
                "score_min": pa.array([smin], pa.float64()),
                "score_max": pa.array([smax], pa.float64()),
            }
        )


def neural_mentions(sentences_ds, model_blob, concurrency=None,
                    threshold: float = 0.0, batch_size: int = 128):
    """Sentence rows -> decoded mention rows. Task pool with a
    per-worker model cache (``cached_stage_fn``): the blob deserializes
    once per worker per session, not once per actor per run.

    batch_size bounds TASK size (Ray bundles blocks up to it), so it is
    the inference stage's parallelism dial: tasks ≈ rows/batch_size.
    Total inference CPU is flat from 512 down to 128 (length-bucketed
    GEMMs stay big enough), so 128 buys 4× the concurrency on small
    inputs at no CPU cost; at web scale the task count is large either
    way."""
    from autoner_ray.stages.dict_match import cached_stage_fn

    return sentences_ds.map_batches(
        cached_stage_fn(
            TaggerScorer, model_blob=model_blob, threshold=threshold
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


def eval_span_f1(sentences_ds, model_blob, core_lines, full_lines=(),
                 stopword_lines=(), concurrency=None) -> pa.Table:
    """Distributed span-F1 (A4) + global score min/max (A5): partial
    counts per batch, one tiny final merge."""
    from autoner_ray.stages.dict_match import cached_stage_fn

    partials = sentences_ds.map_batches(
        cached_stage_fn(
            TaggerEval,
            model_blob=model_blob,
            core_lines=core_lines,
            full_lines=full_lines,
            stopword_lines=stopword_lines,
        ),
        batch_format="pyarrow",
        # parallelism dial — see neural_mentions docstring
        batch_size=128,
        concurrency=concurrency,
        num_cpus=1,
    )
    df = partials.to_pandas()  # one row per batch — tiny
    n_gold = int(df["n_gold"].sum())
    n_pred = int(df["n_pred"].sum())
    n_hit = int(df["n_hit"].sum())
    stats = f1_from_counts(n_gold, n_pred, n_hit)
    return pa.table(
        {
            "n_gold": pa.array([n_gold], pa.int64()),
            "n_pred": pa.array([n_pred], pa.int64()),
            "n_hit": pa.array([n_hit], pa.int64()),
            "precision": pa.array([stats["precision"]], pa.float64()),
            "recall": pa.array([stats["recall"]], pa.float64()),
            "f1": pa.array([stats["f1"]], pa.float64()),
            # inf sentinels drop out of the merge; null only if EVERY
            # batch was slot-free
            "score_min": pa.array(
                [None if np.isinf(smin_all := float(df["score_min"].min()))
                 else smin_all],
                pa.float64(),
            ),
            "score_max": pa.array(
                [None if np.isinf(smax_all := float(df["score_max"].max()))
                 else smax_all],
                pa.float64(),
            ),
        }
    )


class HybridPairs:
    """Union mention source (SURVEY §7.2 step 6). Built once per worker
    by ``cached_stage_fn``, holding BOTH the dictionary trie and the
    neural tagger. Per sentence the entity set is the union of the
    dictionary's canonical entities (one ``segment_batch`` call for the
    whole batch, the ``entities`` column of ``output="sentences"``) and
    the normalized surfaces of the decoded neural spans; the batch leaves
    as pre-aggregated co-occurrence pair partials
    (:func:`~autoner_ray.stages.triples.cooccurrence_partials`) — the
    same zero-shuffle shape as ``DictMatcher(output="pairs")``."""

    def __init__(self, model_blob, core_lines, full_lines=(),
                 stopword_lines=(), threshold: float = 0.0) -> None:
        from autoner_ray.stages.dict_match import DictMatcher

        self.matcher = DictMatcher(core_lines, full_lines, stopword_lines)
        self.tagger = Tagger.from_bytes(_maybe_get(model_blob))
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        from autoner_ray.functions.text import normalize_surface
        from autoner_ray.stages.triples import cooccurrence_partials

        tokens = batch["tokens"].combine_chunks()
        tokens_col = tokens.to_pylist()
        preds = bucketed_predict(self.tagger, tokens_col, self.threshold)
        dict_ents = self.matcher.entity_lists(tokens)
        span_sent = [i for i, spans in enumerate(preds) for _ in spans]
        surfaces = [
            " ".join(toks[l:r])
            for toks, spans in zip(tokens_col, preds)
            for l, r, _ty, _score in spans
        ]
        canon = {s: normalize_surface(s) for s in set(surfaces)}
        return cooccurrence_partials(
            np.concatenate([
                pc.list_parent_indices(dict_ents).to_numpy(),
                np.asarray(span_sent, np.int64),
            ]),
            pa.concat_arrays([
                pc.list_flatten(dict_ents),
                pa.array([canon[s] for s in surfaces], pa.string()),
            ]),
        )


def hybrid_triples(sentences_ds, model_blob, core_lines, full_lines=(),
                   stopword_lines=(), concurrency=None):
    """Edge weights over the dict+neural union mention stream."""
    from autoner_ray.stages.dict_match import cached_stage_fn
    from autoner_ray.stages.triples import aggregate_edges

    pairs = sentences_ds.map_batches(
        cached_stage_fn(
            HybridPairs,
            model_blob=model_blob,
            core_lines=core_lines,
            full_lines=full_lines,
            stopword_lines=stopword_lines,
        ),
        batch_format="pyarrow",
        # parallelism dial — see neural_mentions docstring
        batch_size=128,
        concurrency=concurrency,
        num_cpus=1,
    )
    # coalesce off: the inference stream is far slower than the bundler
    # and the edge vocab is tiny — see keyed_combine's ``coalesce``
    return aggregate_edges(pairs, coalesce=False)


def mentions_to_tsv(mention_rows, tl_map) -> str:
    """S12: decoded-mention TSV in the reference's exact shape
    (`test_partial_ner.py:99-109`): per span a tab-joined
    ``st  ed  surface  type_id  type`` line, a blank line after each
    sentence's block. ``mention_rows`` is an iterable of
    (sent_key, l, r, surface, type) sorted by sent_key."""
    out: list[str] = []
    _unset = object()
    prev_key = _unset
    for key, l, r, surface, ty in mention_rows:
        if prev_key is not _unset and key != prev_key:
            out.append("\n")
        prev_key = key
        type_id = tl_map.get(ty, 0)
        out.append("\t".join(str(v) for v in (l, r, surface, type_id, ty)))
        out.append("\n")
    if out:
        out.append("\n")
    return "".join(out)


def mention_contexts(sentences_ds, core_lines, full_lines=(),
                     stopword_lines=(), window: int = 3, concurrency=None):
    """Training-data export: one row per mention with ±``window`` token
    context strings — the classic distant-supervision NER example shape.
    Runs inside the DictMatcher-holding actor so the sentence is never
    re-shipped."""
    from autoner_ray.stages.dict_match import DictMatcher

    class Contexts(DictMatcher):
        def __init__(self, **kw) -> None:
            super().__init__(**kw)

        def __call__(self, batch: pa.Table) -> pa.Table:  # noqa: D102
            cols = {k: [] for k in (
                "url", "doc_id", "sent_id", "surface", "types",
                "left_ctx", "right_ctx",
            )}
            urls = batch["url"].to_pylist()
            dids = batch["doc_id"].to_pylist()
            sids = batch["sent_id"].to_pylist()
            for url, did, sid, toks in zip(
                urls, dids, sids, batch["tokens"].to_pylist()
            ):
                for l, r, surface, ty, _canon in self.mentions_of(toks):
                    cols["url"].append(url)
                    cols["doc_id"].append(did)
                    cols["sent_id"].append(sid)
                    cols["surface"].append(surface)
                    cols["types"].append(ty)
                    cols["left_ctx"].append(
                        " ".join(toks[max(0, l - window) : l])
                    )
                    cols["right_ctx"].append(" ".join(toks[r : r + window]))
            return pa.table(
                {
                    "url": pa.array(cols["url"], pa.string()),
                    "doc_id": pa.array(cols["doc_id"], pa.int64()),
                    "sent_id": pa.array(cols["sent_id"], pa.int32()),
                    "surface": pa.array(cols["surface"], pa.string()),
                    "types": pa.array(cols["types"], pa.string()),
                    "left_ctx": pa.array(cols["left_ctx"], pa.string()),
                    "right_ctx": pa.array(cols["right_ctx"], pa.string()),
                }
            )

    from autoner_ray.stages.dict_match import cached_stage_fn

    return sentences_ds.map_batches(
        cached_stage_fn(
            Contexts,
            # window is closure state inside the local class — key it
            _cache_key_extra=f"window={window}",
            core_lines=core_lines,
            full_lines=full_lines,
            stopword_lines=stopword_lines,
        ),
        batch_format="pyarrow",
        batch_size=1024,
        concurrency=concurrency,
        num_cpus=1,
    )


def export_training_set(sentences_ds, core_lines, full_lines=(),
                        stopword_lines=(), out_dir: str | None = None,
                        concurrency=2):
    """S10 as a distributed sink: sentence rows -> supervision records
    (boundary labels, known mask, span type strings) as Parquet-ready
    columns; ``write_parquet(out_dir)`` when a path is given."""
    from autoner_ray.stages.dict_match import DictMatcher
    from autoner_ray.state.tagger import segments_to_slots

    class Encoder(DictMatcher):
        def __call__(self, batch: pa.Table) -> pa.Table:  # noqa: D102
            brks, knowns, span_cols = [], [], []
            tokens_col = batch["tokens"].to_pylist()
            for toks in tokens_col:
                segs = self.segments(toks)
                brk, known = segments_to_slots(len(toks), segs)
                brks.append([int(x) for x in brk])
                knowns.append([bool(x) for x in known])
                span_cols.append(
                    [f"{l}:{r}:{ty}" for l, r, ty in segs if ty]
                )
            return pa.table(
                {
                    "url": batch["url"],
                    "doc_id": batch["doc_id"],
                    "sent_id": batch["sent_id"],
                    "tokens": batch["tokens"],
                    "break_labels": pa.array(
                        brks, pa.list_(pa.int8())
                    ),
                    "known_mask": pa.array(knowns, pa.list_(pa.bool_())),
                    "typed_spans": pa.array(
                        span_cols, pa.list_(pa.string())
                    ),
                }
            )

    from autoner_ray.stages.dict_match import cached_stage_fn

    ds = sentences_ds.map_batches(
        cached_stage_fn(
            Encoder,
            core_lines=core_lines,
            full_lines=full_lines,
            stopword_lines=stopword_lines,
        ),
        batch_format="pyarrow",
        batch_size=1024,
        concurrency=concurrency,
        num_cpus=1,
    )
    if out_dir is not None:
        ds.write_parquet(out_dir)
    return ds
