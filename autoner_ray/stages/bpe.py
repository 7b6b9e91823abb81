"""Distributed BPE-merge learning (tokenizer training over the
corpus): LEARN the top-K merge rules from corpus statistics, the way
a production tokenizer (BPE / WordPiece family) is trained over a
100 TB corpus.

Algorithm (classic BPE over the word-frequency table):
  1. one corpus pass -> (word, count) via the word-partitioned combine
     (vocab-sized, distributed — never on the driver);
  2. per round k: count adjacent symbol pairs of the current
     segmentation weighted by word count (vectorized flatten —
     no per-row Python in the pair scan), hash-partition the pair
     table, take each partition's top-1 and pick the global winner on
     the driver (ties: highest count, then lexicographic smallest);
  3. apply the merge to every word's segmentation and materialize for
     the next round.

Merge application is single-pass left-to-right non-overlapping string
replace over the space-joined symbols (Python ``str.replace`` ==
DuckDB ``replace`` — verified identical scan semantics), so the
unrolled SQL twin reproduces the learned merges bit-for-bit. NOTE this
delimiter-replace variant differs from list-greedy BPE only inside
same-symbol runs ('a a a a' merges pairs 1-2 and 4-5, not 1-2 and
3-4); the rule is applied identically at train and apply time, so the
learned tokenizer is self-consistent.

Scale shape: K rounds = K shuffles of the PAIR table (bounded by the
segment-vocabulary, far below corpus size); the segmentation table is
vocab-sized and stays distributed; each round's winner is 3 scalars
broadcast in a closure.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _word_counts(docs_ds):
    from autoner_ray.stages.combine import keyed_combine

    def count_partial(t: pa.Table) -> pa.Table:
        words = pc.list_flatten(
            pc.split_pattern(t["text"].combine_chunks(), " ")
        )
        words = words.filter(pc.not_equal(words, ""))
        vc = words.value_counts()
        return pa.table(
            {
                "word": vc.field("values"),
                "cnt": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    return keyed_combine(
        docs_ds.map_batches(
            count_partial, batch_format="pyarrow", batch_size=65536
        ),
        pa.schema([("word", pa.string()), ("cnt", pa.int64())]),
        [("cnt", "sum")],
    )


def _pair_counts_batch(t: pa.Table) -> pa.Table:
    """Adjacent symbol pairs of the segmentation column ``s`` weighted
    by ``cnt`` — fully vectorized: list-flatten + offset masking."""
    empty = pa.table(
        {
            "lft": pa.array([], pa.string()),
            "rgt": pa.array([], pa.string()),
            "c": pa.array([], pa.int64()),
        }
    )
    la = pc.split_pattern(t["s"].combine_chunks(), " ")
    flat = la.flatten()
    lens = pc.list_value_length(la).to_numpy().astype(np.int64)
    n = len(flat)
    if n < 2:
        return empty
    # boundary mask: position i pairs with i+1 unless i is the last
    # symbol of its word
    ends = np.cumsum(lens) - 1
    keep = np.ones(n - 1, bool)
    keep[ends[ends < n - 1]] = False
    if not keep.any():
        return empty
    w = np.repeat(t["cnt"].to_numpy(), np.maximum(lens - 1, 0))
    idx = np.nonzero(keep)[0]
    agg = pa.table(
        {
            "lft": flat.take(pa.array(idx)),
            "rgt": flat.take(pa.array(idx + 1)),
            "c": pa.array(w, pa.int64()),
        }
    ).group_by(["lft", "rgt"]).aggregate([("c", "sum")])
    return agg.rename_columns(["lft", "rgt", "c"])


def learn_bpe_merges(docs_ds, num_merges: int = 6,
                     return_segmentation: bool = False):
    """Learn the top-``num_merges`` BPE merge rules from the corpus.
    Returns a pa.Table (rank, left_sym, right_sym, pair_count); with
    ``return_segmentation`` also returns the final per-word
    segmentation Dataset (word, s, cnt) so apply-side consumers reuse
    it instead of re-scanning the corpus and re-applying every merge
    (`bpe_compression_stats` does)."""
    from autoner_ray.stages.combine import keyed_combine

    def seg_init(t: pa.Table) -> pa.Table:
        # vocab-sized table: a per-row char join here is the documented
        # bounded exception (same budget class as the vocab collects)
        return pa.table(
            {
                "word": t["word"],
                "s": pa.array(
                    [" ".join(w) for w in t["word"].to_pylist()],
                    pa.string(),
                ),
                "cnt": t["cnt"],
            }
        )

    seg = (
        _word_counts(docs_ds)
        .map_batches(seg_init, batch_format="pyarrow")
        .materialize()
    )

    ranks: list[int] = []
    lefts: list[str] = []
    rights: list[str] = []
    counts: list[int] = []
    for k in range(1, num_merges + 1):
        pair_totals = keyed_combine(
            seg.map_batches(
                _pair_counts_batch, batch_format="pyarrow",
                batch_size=65536,
            ),
            pa.schema([("lft", pa.string()), ("rgt", pa.string()),
                       ("c", pa.int64())]),
            [("c", "sum")], part_on=("lft", "rgt"),
        )

        def top1(t: pa.Table) -> pa.Table:
            order = pc.sort_indices(
                t,
                sort_keys=[("c", "descending"), ("lft", "ascending"),
                           ("rgt", "ascending")],
            )
            return t.take(order[:1])

        cands = pair_totals.map_batches(
            top1, batch_format="pyarrow", batch_size=None
        ).take_all()
        if not cands:
            break
        best = min(
            cands, key=lambda r: (-int(r["c"]), r["lft"], r["rgt"])
        )
        lft, rgt, c = best["lft"], best["rgt"], int(best["c"])
        ranks.append(k)
        lefts.append(lft)
        rights.append(rgt)
        counts.append(c)

        pat = f" {lft} {rgt} "
        rep = f" {lft}{rgt} "

        def apply_merge(t: pa.Table, pat=pat, rep=rep) -> pa.Table:
            import pandas as pd

            s = pd.Series(t["s"].to_pylist())
            s = (" " + s + " ").str.replace(
                pat, rep, regex=False
            ).str.strip()
            return pa.table(
                {
                    "word": t["word"],
                    "s": pa.array(s.tolist(), pa.string()),
                    "cnt": t["cnt"],
                }
            )

        seg = seg.map_batches(
            apply_merge, batch_format="pyarrow"
        ).materialize()

    merges = pa.table(
        {
            "rank": pa.array(ranks, pa.int64()),
            "left_sym": pa.array(lefts, pa.string()),
            "right_sym": pa.array(rights, pa.string()),
            "pair_count": pa.array(counts, pa.int64()),
        }
    )
    if return_segmentation:
        return merges, seg
    return merges


def bpe_compression_stats(docs_ds, num_merges: int = 6):
    """Train-then-apply: learn the merge table, tokenize the corpus
    with it, and report per-source compression — (source, n_words,
    n_chars_sym, n_bpe_tokens): words, pre-merge symbols (chars) and
    post-merge BPE tokens.

    Scale shape: the learned per-word token count lives in the
    DISTRIBUTED segmentation table (vocab-sized); the corpus-side
    (source, word) count partials join against it with the cogroup
    join — no vocab broadcast, no corpus shuffle beyond the word
    partition both sides already share; the per-source tail is a keyed
    combine in its partitioned tier (source is corpus data)."""
    import pyarrow.compute as pc_

    from autoner_ray.stages.combine import keyed_combine
    from autoner_ray.stages.joins import cogroup_join

    # 1) learn merges (same kernel the driver hash-checks), keeping the
    # final per-word segmentation — the apply side below reuses it, so
    # tokenizing the corpus costs ZERO extra corpus scans and no
    # per-word merge re-application
    merges, seg = learn_bpe_merges(
        docs_ds, num_merges, return_segmentation=True
    )

    # 2) (source, word, cnt) corpus partials, word-partitioned
    def sw_partial(t: pa.Table) -> pa.Table:
        la = pc_.split_pattern(t["text"].combine_chunks(), " ")
        lens = pc_.list_value_length(la).to_numpy().astype(np.int64)
        flat = la.flatten()
        src = t["source"].combine_chunks().take(
            pa.array(np.repeat(np.arange(len(t)), lens))
        )
        keep = pc_.not_equal(flat, "")
        agg = pa.table(
            {
                "source": src.filter(keep),
                "word": flat.filter(keep),
                "cnt": pa.array(
                    np.ones(int(pc_.sum(keep).as_py() or 0), np.int64)
                ),
            }
        ).group_by(["source", "word"]).aggregate([("cnt", "sum")])
        return agg.rename_columns(["source", "word", "cnt"])

    sw = keyed_combine(
        docs_ds.map_batches(sw_partial, batch_format="pyarrow",
                            batch_size=65536),
        pa.schema([("source", pa.string()), ("word", pa.string()),
                   ("cnt", pa.int64())]),
        [("cnt", "sum")], part_on=("word",),
    )

    # 3) per-word symbol counts straight off the learned segmentation
    # (vocab-sized and materialized): BPE
    # token count = symbols in ``s``; char-symbol count = word length
    # (the pre-merge segmentation is one symbol per char by
    # construction)
    def word_tokens(t: pa.Table) -> pa.Table:
        n_sym = pc_.add(
            pc_.count_substring(t["s"].combine_chunks(), " "), 1
        )
        return pa.table(
            {
                "word": t["word"],
                "n_sym": pc_.cast(n_sym, pa.int64()),
                "n_char_sym": pc_.cast(
                    pc_.utf8_length(t["word"].combine_chunks()),
                    pa.int64(),
                ),
            }
        )

    vocab = seg.map_batches(word_tokens, batch_format="pyarrow")

    joined = cogroup_join(sw, vocab, on=("word",))

    def per_source(t: pa.Table) -> pa.Table:
        cnt = t["cnt"].to_numpy()
        return pa.table(
            {
                "source": t["source"],
                "n_words": pa.array(cnt, pa.int64()),
                "n_char_syms": pa.array(
                    cnt * t["n_char_sym"].to_numpy(), pa.int64()
                ),
                "n_bpe_tokens": pa.array(
                    cnt * t["n_sym"].to_numpy(), pa.int64()
                ),
            }
        )

    return keyed_combine(
        joined.map_batches(per_source, batch_format="pyarrow",
                           batch_size=None),
        pa.schema([("source", pa.string()), ("n_words", pa.int64()),
                   ("n_char_syms", pa.int64()), ("n_bpe_tokens", pa.int64())]),
        [("n_words", "sum"), ("n_char_syms", "sum"), ("n_bpe_tokens", "sum")],
    )
