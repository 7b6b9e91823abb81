"""Web-corpus curation operators (engine extensions, no reference
counterpart — the reference is a corpus-NER system; these are the
standard web-text quality/boilerplate passes a 100-TB training-data
pipeline runs BEFORE distant supervision: Gopher-style repetition
signals (Rae et al. 2021, §A1.1), C4/CCNet-style boilerplate n-gram
profiling, and RE2 pattern counting / PII scrubbing).

All kernels are stateless ``map_batches`` transforms; the only shuffle
(hot_ngrams) moves per-batch pre-combined gram partials, never the
exploded corpus. Floats are rounded to 6 dp on BOTH sides (engine +
DuckDB oracle) so the driver value-hash is stable.

Tokenization here is plain ``text.split(' ')`` — deliberately identical
to DuckDB ``string_split(text, ' ')`` (NOT ``sentence_token_stream``)
so every kernel stays SQL-twinnable.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _exploded(texts: list[str | None]) -> pd.DataFrame:
    """(i, w) rows: doc index -> word, in document order."""
    s = pd.Series([(t or "").split(" ") for t in texts])
    return (
        pd.DataFrame({"i": np.arange(len(texts)), "w": s})
        .explode("w", ignore_index=True)
    )


def _gram_frame(df: pd.DataFrame, n: int) -> pd.DataFrame:
    """(i, g) rows: doc index -> space-joined word n-gram.

    Vectorized: n-1 shifts of the exploded word column, row j is a
    valid gram iff rows j..j+n-1 belong to the same doc.
    """
    w = df["w"].astype(str)
    i = df["i"].to_numpy()
    parts = [w]
    for s in range(1, n):
        parts.append(w.shift(-s))
    valid = np.zeros(len(df), dtype=bool)
    if len(df) >= n:
        valid[: len(df) - (n - 1)] = i[: len(df) - (n - 1)] == i[n - 1 :]
    gram = parts[0].str.cat(parts[1:], sep=" ")
    return pd.DataFrame({"i": i[valid], "g": gram.to_numpy()[valid]})


def repetition_batch(batch: pa.Table, n: int = 5) -> pa.Table:
    """Per-doc Gopher repetition signals (Rae et al. 2021, table A1):

    - ``top_word_frac``  — most-frequent-word count / n_words
    - ``dup_word_frac``  — 1 - distinct_words / n_words
    - ``dup_ngram_frac`` — 1 - distinct n-grams / total n-grams
      (0.0 when the doc has fewer than ``n`` words)

    High values flag machine-generated / boilerplate pages for the
    quality cut. Stateless and vectorized (pandas explode + shifted
    gram join) — scales as a pure map stage.
    """
    texts = batch["text"].to_pylist()
    df = _exploded(texts)
    n_rows = len(texts)

    counts = df.groupby(["i", "w"], sort=False).size()
    per_doc = counts.groupby(level=0)
    total = np.zeros(n_rows, dtype=np.float64)
    mx = np.zeros(n_rows, dtype=np.float64)
    dist = np.zeros(n_rows, dtype=np.float64)
    idx = per_doc.sum().index.to_numpy()
    total[idx] = per_doc.sum().to_numpy()
    mx[idx] = per_doc.max().to_numpy()
    dist[idx] = per_doc.size().to_numpy()

    grams = _gram_frame(df, n)
    g_counts = grams.groupby(["i", "g"], sort=False).size()
    g_per_doc = g_counts.groupby(level=0)
    g_total = np.zeros(n_rows, dtype=np.float64)
    g_dist = np.zeros(n_rows, dtype=np.float64)
    gidx = g_per_doc.sum().index.to_numpy()
    g_total[gidx] = g_per_doc.sum().to_numpy()
    g_dist[gidx] = g_per_doc.size().to_numpy()

    safe_total = np.maximum(total, 1.0)
    safe_g = np.maximum(g_total, 1.0)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_words": pa.array(total.astype(np.int64), pa.int64()),
            "top_word_frac": pa.array(
                np.round(mx / safe_total, 6), pa.float64()
            ),
            "dup_word_frac": pa.array(
                np.round(1.0 - dist / safe_total, 6), pa.float64()
            ),
            "dup_ngram_frac": pa.array(
                np.round(
                    np.where(g_total > 0, 1.0 - g_dist / safe_g, 0.0), 6
                ),
                pa.float64(),
            ),
        }
    )


def repetition_oracle_sql(n: int = 5) -> str:
    return f"""
        WITH ws AS (
            SELECT doc_id, string_split(text, ' ') AS ws FROM documents
        ),
        w AS (SELECT doc_id, unnest(ws) AS w FROM ws),
        c AS (SELECT doc_id, w, COUNT(*) AS c FROM w GROUP BY doc_id, w),
        s AS (
            SELECT doc_id, SUM(c) AS total, MAX(c) AS mx,
                   COUNT(*) AS dist
            FROM c GROUP BY doc_id
        ),
        g AS (
            SELECT doc_id,
                   array_to_string(ws[CAST(i AS BIGINT):CAST(i AS BIGINT)+{n - 1}], ' ') AS g
            FROM ws, unnest(range(1, len(ws) - {n - 2})) AS t(i)
        ),
        gc AS (SELECT doc_id, g, COUNT(*) AS c FROM g GROUP BY doc_id, g),
        gs AS (
            SELECT doc_id, SUM(c) AS g_total, COUNT(*) AS g_dist
            FROM gc GROUP BY doc_id
        )
        SELECT s.doc_id,
               CAST(s.total AS BIGINT) AS n_words,
               round(s.mx / CAST(s.total AS DOUBLE), 6) AS top_word_frac,
               round(1.0 - s.dist / CAST(s.total AS DOUBLE), 6)
                   AS dup_word_frac,
               COALESCE(
                   round(1.0 - gs.g_dist / CAST(gs.g_total AS DOUBLE), 6),
                   0.0) AS dup_ngram_frac
        FROM s LEFT JOIN gs USING (doc_id)
    """


def hot_ngrams(docs_ds, n: int = 5, min_df: int = 2, k: int = 20):
    """Corpus-level boilerplate profile: the top-``k`` word ``n``-grams
    by total occurrences among grams appearing in ≥ ``min_df`` docs
    (ties broken lexicographically) — the C4/CCNet "find the repeated
    boilerplate phrases" pass that feeds span-level dedup.

    Scale shape: each batch pre-combines to (gram, n_occurrences,
    n_docs) partials — a doc is a single row, so batches partition docs
    and per-batch distinct-doc counts SUM exactly. One gram-vocab-sized
    keyed combine, then block-local top-k and a single tiny merge
    block; the exploded gram stream never shuffles and the driver never
    sees the vocab.
    """
    from autoner_ray.stages.combine import keyed_combine

    counts = pa.schema(
        [("gram", pa.string()), ("n_occurrences", pa.int64()),
         ("n_docs", pa.int64())]
    )

    def gram_partial(batch: pa.Table) -> pa.Table:
        grams = _gram_frame(_exploded(batch["text"].to_pylist()), n)
        if grams.empty:
            return counts.empty_table()
        agg = grams.groupby("g", sort=False)["i"].agg(["size", "nunique"])
        return pa.table(
            [agg.index.to_numpy(), agg["size"].to_numpy(),
             agg["nunique"].to_numpy()],
            schema=counts,
        )

    agg = keyed_combine(
        docs_ds.map_batches(gram_partial, batch_format="pyarrow"), counts,
        [("n_occurrences", "sum"), ("n_docs", "sum")],
    )

    def topk(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df[df["n_docs"] >= min_df]
        df = df.sort_values(
            ["n_occurrences", "gram"],
            ascending=[False, True],
            kind="mergesort",
        ).head(k)
        return pa.Table.from_pandas(
            df[["gram", "n_occurrences", "n_docs"]], preserve_index=False
        ).replace_schema_metadata(None)

    # per-block partial top-k (vocab-bounded blocks -> <=k rows each),
    # then one tiny single-block merge
    return (
        agg.map_batches(topk, batch_format="pyarrow", batch_size=None)
        .repartition(1)
        .map_batches(topk, batch_format="pyarrow", batch_size=None)
    )


def hot_ngrams_oracle_sql(n: int = 5, min_df: int = 2, k: int = 20) -> str:
    return f"""
        WITH ws AS (
            SELECT doc_id, string_split(text, ' ') AS ws FROM documents
        ),
        g AS (
            SELECT doc_id,
                   array_to_string(ws[CAST(i AS BIGINT):CAST(i AS BIGINT)+{n - 1}], ' ') AS gram
            FROM ws, unnest(range(1, len(ws) - {n - 2})) AS t(i)
        ),
        agg AS (
            SELECT gram, COUNT(*) AS n_occurrences,
                   COUNT(DISTINCT doc_id) AS n_docs
            FROM g GROUP BY gram
        )
        SELECT gram, n_occurrences, n_docs FROM agg
        WHERE n_docs >= {min_df}
        ORDER BY n_occurrences DESC, gram
        LIMIT {k}
    """


# RE2-syntax patterns, identical semantics in pyarrow (count_substring_regex)
# and DuckDB (regexp_extract_all) — both are RE2, leftmost non-overlapping.
PII_PATTERNS: dict[str, str] = {
    "email": r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
    "ipv4": r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b",
    "phone": r"\b\d{3}[-.]\d{3}[-.]\d{4}\b",
}


def pattern_counts_batch(
    batch: pa.Table, patterns: dict[str, str] | None = None
) -> pa.Table:
    """doc_id + one ``n_<name>`` int64 column per named RE2 pattern
    (defaults: the PII set). Fully vectorized via Arrow's
    ``count_substring_regex`` — the scan-side PII / policy audit pass.
    """
    pats = patterns if patterns is not None else PII_PATTERNS
    text = pc.fill_null(batch["text"], "")
    cols: dict[str, pa.Array | pa.ChunkedArray] = {"doc_id": batch["doc_id"]}
    for name, pat in pats.items():
        cols[f"n_{name}"] = pc.cast(
            pc.count_substring_regex(text, pat), pa.int64()
        )
    return pa.table(cols)


def pattern_counts_oracle_sql(patterns: dict[str, str] | None = None) -> str:
    pats = patterns if patterns is not None else PII_PATTERNS
    exprs = ",\n               ".join(
        "CAST(len(regexp_extract_all(COALESCE(text, ''), '{}')) AS BIGINT)"
        " AS n_{}".format(p.replace("'", "''"), name)
        for name, p in pats.items()
    )
    return f"SELECT doc_id,\n               {exprs}\n        FROM documents"


def pii_scrub_batch(
    batch: pa.Table, patterns: dict[str, str] | None = None
) -> pa.Table:
    """Redact PII matches in place: each named pattern's matches become
    ``[NAME]``. Vectorized ``replace_substring_regex`` chain; patterns
    applied in dict order (email before ipv4 before phone by default).
    """
    pats = patterns if patterns is not None else PII_PATTERNS
    text = pc.fill_null(batch["text"], "")
    for name, pat in pats.items():
        text = pc.replace_substring_regex(
            text, pat, f"[{name.upper()}]"
        )
    cols = {c: batch[c] for c in batch.column_names}
    cols["text"] = text
    return pa.table(cols)


def lang_hot_ngrams(docs_ds, n: int = 3, min_df: int = 2, k: int = 10):
    """Per-LANGUAGE boilerplate profile: for each language, the top-``k``
    word ``n``-grams by total occurrences among grams in ≥ ``min_df``
    docs of that language (ties lexicographic) — the grouped variant of
    :func:`hot_ngrams`, i.e. grouped top-k over an unbounded key space
    (the CCNet per-language boilerplate pass).

    Scale shape: per-batch (lang, gram) partials -> GRAM-keyed
    combine (hashing the gram subset co-locates the full key while
    spreading each language's vocab across all blocks — a dominant
    language can't hot-spot) -> per-block per-language top-k
    (≤ |langs|·k rows per block) -> one tiny merge block.
    """
    from autoner_ray.stages.combine import keyed_combine

    partial = pa.schema(
        [("lang", pa.string()), ("gram", pa.string()), ("occ", pa.int64()),
         ("docs", pa.int64())]
    )

    def gram_partial(batch: pa.Table) -> pa.Table:
        grams = _gram_frame(_exploded(batch["text"].to_pylist()), n)
        if grams.empty:
            return partial.empty_table()
        langs = batch["lang"].to_numpy(zero_copy_only=False)
        grams["lang"] = langs[grams["i"].to_numpy()]
        agg = grams.groupby(["lang", "g"], sort=False)["i"].agg(
            ["size", "nunique"]
        )
        ix = agg.index
        return pa.table(
            {
                "lang": pa.array(ix.get_level_values(0), pa.string()),
                "gram": pa.array(ix.get_level_values(1), pa.string()),
                "occ": pa.array(agg["size"].to_numpy(), pa.int64()),
                "docs": pa.array(agg["nunique"].to_numpy(), pa.int64()),
            }
        )

    agg = keyed_combine(
        docs_ds.map_batches(gram_partial, batch_format="pyarrow"), partial,
        [("occ", "sum"), ("docs", "sum")], part_on=("gram",),
    )

    def topk(t: pa.Table) -> pa.Table:
        # the merge block after repartition(1) has no columns when
        # every input block was empty
        if len(t) == 0:
            return pa.schema(
                [("lang", pa.string()), ("gram", pa.string()),
                 ("n_occurrences", pa.int64()), ("n_docs", pa.int64())]
            ).empty_table()
        df = t.to_pandas()
        df.columns = ["lang", "gram", "n_occurrences", "n_docs"]
        df = df[df["n_docs"] >= min_df]
        df = df.sort_values(
            ["lang", "n_occurrences", "gram"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        df = df.groupby("lang", sort=False).head(k)
        return pa.Table.from_pandas(
            df, preserve_index=False
        ).replace_schema_metadata(None)

    return (
        agg.map_batches(topk, batch_format="pyarrow", batch_size=None)
        .repartition(1)
        .map_batches(topk, batch_format="pyarrow", batch_size=None)
    )


def lang_hot_ngrams_oracle_sql(n: int = 3, min_df: int = 2,
                               k: int = 10) -> str:
    return f"""
        WITH ws AS (
            SELECT doc_id, lang, string_split(text, ' ') AS ws
            FROM documents
        ),
        g AS (
            SELECT doc_id, lang,
                   array_to_string(ws[CAST(i AS BIGINT):CAST(i AS BIGINT)+{n - 1}], ' ') AS gram
            FROM ws, unnest(range(1, len(ws) - {n - 2})) AS t(i)
        ),
        agg AS (
            SELECT lang, gram, COUNT(*) AS n_occurrences,
                   COUNT(DISTINCT doc_id) AS n_docs
            FROM g GROUP BY 1, 2
        ),
        r AS (
            SELECT *, row_number() OVER (
                PARTITION BY lang
                ORDER BY n_occurrences DESC, gram
            ) AS rn
            FROM agg WHERE n_docs >= {min_df}
        )
        SELECT lang, gram, n_occurrences, n_docs FROM r WHERE rn <= {k}
    """


def bigram_collocations(docs_ds, min_count: int = 5, k: int = 20,
                        broadcast_max_vocab: int = 2_000_000):
    """Collocation mining (the AutoPhrase-lineage phrase-quality
    signal, cf. reference README.md's AutoPhrase dictionary input):
    top-``k`` word bigrams by pointwise mutual information among
    bigrams occurring ≥ ``min_count`` times. PMI is quantized to
    integer micro-nats with the SAME double expression on both sides
    (``ln((c_xy/N_b) / ((c_x/N_w)·(c_y/N_w)))``, each op IEEE-ordered),
    so the value-hash is exact.

    Scale shape: word counts and bigram counts are both key-partitioned
    combines (nothing vocab-sized in one block). Under
    ``broadcast_max_vocab`` distinct words the unigram table broadcasts
    once via ``ray.put`` and PMI is a vectorized map over the
    gram-partitioned bigram blocks; above it, two string-key cogroup
    joins (left word, then right word) attach the unigram counts —
    identical output, pytest-pinned tier equality. The bigram table
    materializes once (vocab²-bounded, NOT corpus-sized) because its
    total count N_b must be known before the per-row PMI pass.
    """
    import ray

    from autoner_ray.stages.combine import keyed_combine

    def word_partial(batch: pa.Table) -> pa.Table:
        ex = _exploded(batch["text"].to_pylist())
        vc = ex["w"].value_counts()
        return pa.table(
            {
                "word": pa.array(vc.index.astype(str), pa.string()),
                "c": pa.array(vc.to_numpy(), pa.int64()),
            }
        )

    wc = keyed_combine(
        docs_ds.map_batches(word_partial, batch_format="pyarrow"),
        pa.schema([("word", pa.string()), ("c", pa.int64())]),
        [("c", "sum")],
    )
    bigrams = pa.schema(
        [("gram", pa.string()), ("lw", pa.string()), ("rw", pa.string()),
         ("c_xy", pa.int64())]
    )

    def bigram_partial(batch: pa.Table) -> pa.Table:
        grams = _gram_frame(_exploded(batch["text"].to_pylist()), 2)
        if grams.empty:
            return bigrams.empty_table()
        agg = grams.groupby("g", sort=False).size()
        lr = agg.index.to_series().str.split(" ", n=1, expand=True)
        return pa.table(
            {
                "gram": pa.array(agg.index, pa.string()),
                "lw": pa.array(lr[0].to_numpy(), pa.string()),
                "rw": pa.array(lr[1].to_numpy(), pa.string()),
                "c_xy": pa.array(agg.to_numpy(), pa.int64()),
            }
        )

    bc = keyed_combine(
        docs_ds.map_batches(bigram_partial, batch_format="pyarrow"),
        bigrams, [("c_xy", "sum")], part_on=("gram",),
    ).materialize()  # vocab²-bounded; N_b needed before the PMI pass

    n_b = int(bc.sum("c_xy") or 0)
    n_words = wc.count()

    _out_schema = pa.schema(
        [("gram", pa.string()), ("c_xy", pa.int64()),
         ("c_left", pa.int64()), ("c_right", pa.int64()),
         ("pmi_micro", pa.int64())]
    )

    def _pmi_micro(cxy, cl, cr, NB, NW):
        r = (cxy / NB) / ((cl / NW) * (cr / NW))
        return np.floor(np.log(r) * 1e6 + 0.5).astype(np.int64)

    if n_words <= broadcast_max_vocab:
        wc_df = wc.to_pandas()
        NW = float(wc_df["c"].sum())
        lut_ref = ray.put(dict(zip(wc_df["word"], wc_df["c"])))

        def pmi_batch(t: pa.Table) -> pa.Table:
            lut = ray.get(lut_ref)
            df = t.to_pandas()
            df = df[df["c_xy"] >= min_count]
            if df.empty:
                return _out_schema.empty_table()
            cl = df["lw"].map(lut).to_numpy(np.int64)
            cr = df["rw"].map(lut).to_numpy(np.int64)
            cxy = df["c_xy"].to_numpy(np.int64)
            return pa.table(
                {
                    "gram": pa.array(df["gram"], pa.string()),
                    "c_xy": pa.array(cxy, pa.int64()),
                    "c_left": pa.array(cl, pa.int64()),
                    "c_right": pa.array(cr, pa.int64()),
                    "pmi_micro": pa.array(
                        _pmi_micro(
                            cxy.astype(np.float64), cl.astype(np.float64),
                            cr.astype(np.float64), float(n_b), NW,
                        ),
                        pa.int64(),
                    ),
                }
            )

        scored = bc.map_batches(pmi_batch, batch_format="pyarrow")
    else:
        from autoner_ray.stages.joins import cogroup_join

        NW_ref = [None]  # resolved below without a driver-side vocab

        def _rename(ds, key, cname):
            return ds.map_batches(
                lambda t, key=key, cname=cname: pa.table(
                    {key: t["word"], cname: t["c"]}
                ),
                batch_format="pyarrow",
            )

        wc_mat = wc.materialize()
        NW = float(wc_mat.sum("c") or 0)
        j1 = cogroup_join(bc, _rename(wc_mat, "lw", "c_left"),
                          on=("lw",))
        j2 = cogroup_join(j1, _rename(wc_mat, "rw", "c_right"),
                          on=("rw",))

        def pmi_batch(t: pa.Table) -> pa.Table:
            df = t.to_pandas()
            df = df[df["c_xy"] >= min_count]
            if df.empty:
                return _out_schema.empty_table()
            cl = df["c_left"].to_numpy(np.int64)
            cr = df["c_right"].to_numpy(np.int64)
            cxy = df["c_xy"].to_numpy(np.int64)
            return pa.table(
                {
                    "gram": pa.array(df["gram"], pa.string()),
                    "c_xy": pa.array(cxy, pa.int64()),
                    "c_left": pa.array(cl, pa.int64()),
                    "c_right": pa.array(cr, pa.int64()),
                    "pmi_micro": pa.array(
                        _pmi_micro(
                            cxy.astype(np.float64), cl.astype(np.float64),
                            cr.astype(np.float64), float(n_b), NW,
                        ),
                        pa.int64(),
                    ),
                }
            )

        scored = j2.map_batches(pmi_batch, batch_format="pyarrow")

    def topk(t: pa.Table) -> pa.Table:
        # the merge block after repartition(1) has no columns when
        # every input block was empty
        if len(t) == 0:
            return _out_schema.empty_table()
        df = t.to_pandas().sort_values(
            ["pmi_micro", "gram"], ascending=[False, True],
            kind="mergesort",
        ).head(k)
        return pa.Table.from_pandas(
            df, preserve_index=False
        ).replace_schema_metadata(None)

    return (
        scored.map_batches(topk, batch_format="pyarrow", batch_size=None)
        .repartition(1)
        .map_batches(topk, batch_format="pyarrow", batch_size=None)
    )


def bigram_collocations_oracle_sql(min_count: int = 5, k: int = 20) -> str:
    return f"""
        WITH ws AS (
            SELECT doc_id, string_split(text, ' ') AS ws FROM documents
        ),
        w AS (SELECT unnest(ws) AS word FROM ws),
        wc AS (SELECT word, COUNT(*) AS c FROM w GROUP BY 1),
        nw AS (SELECT CAST(SUM(c) AS BIGINT) AS n FROM wc),
        g AS (
            SELECT ws[CAST(i AS BIGINT)] AS lw,
                   ws[CAST(i AS BIGINT) + 1] AS rw
            FROM ws, unnest(range(1, len(ws))) AS t(i)
        ),
        bc AS (
            SELECT lw, rw, COUNT(*) AS c_xy FROM g GROUP BY 1, 2
        ),
        nb AS (SELECT CAST(SUM(c_xy) AS BIGINT) AS n FROM bc)
        SELECT bc.lw || ' ' || bc.rw AS gram, bc.c_xy,
               l.c AS c_left, r.c AS c_right,
               CAST(floor(ln(
                   (CAST(bc.c_xy AS DOUBLE) / nb.n)
                   / ((CAST(l.c AS DOUBLE) / nw.n)
                      * (CAST(r.c AS DOUBLE) / nw.n))
               ) * 1000000 + 0.5) AS BIGINT) AS pmi_micro
        FROM bc
        JOIN wc l ON bc.lw = l.word
        JOIN wc r ON bc.rw = r.word
        CROSS JOIN nb CROSS JOIN nw
        WHERE bc.c_xy >= {min_count}
        ORDER BY pmi_micro DESC, gram
        LIMIT {k}
    """


def bigram_graph(docs_ds, min_count: int = 75):
    """Undirected adjacent-word co-occurrence graph: edge (subj, obj)
    for each unordered pair of DISTINCT adjacent words occurring at
    least ``min_count`` times corpus-wide (subj < obj lexicographic) —
    the thresholded collocation graph that feeds cohesion passes.

    Scale shape: vectorized shift-based bigram explode per batch ->
    per-batch pair-count partials -> ONE pair-keyed sum combine
    (vocab² never on the driver) -> stateless threshold filter.
    """
    from autoner_ray.stages.combine import keyed_combine

    edges = pa.schema(
        [("subj", pa.string()), ("obj", pa.string()), ("weight", pa.int64())]
    )

    def pair_partial(t: pa.Table) -> pa.Table:
        df = _exploded(t["text"].to_pylist())
        if df.empty:
            return edges.empty_table()
        w = df["w"].astype(str)
        nxt = w.shift(-1)
        same_doc = df["i"].to_numpy() == np.roll(df["i"].to_numpy(), -1)
        same_doc[-1] = False
        valid = same_doc & (w.to_numpy() != nxt.to_numpy())
        a = np.minimum(w.to_numpy()[valid], nxt.to_numpy()[valid])
        b = np.maximum(w.to_numpy()[valid], nxt.to_numpy()[valid])
        pairs = pd.DataFrame({"subj": a, "obj": b})
        agg = pairs.groupby(["subj", "obj"], sort=False).size()
        idx = agg.index
        return pa.table(
            {
                "subj": pa.array(idx.get_level_values(0), pa.string()),
                "obj": pa.array(idx.get_level_values(1), pa.string()),
                "weight": pa.array(agg.to_numpy(), pa.int64()),
            }
        )

    summed = keyed_combine(
        docs_ds.map_batches(pair_partial, batch_format="pyarrow"), edges,
        [("weight", "sum")], part_on=("subj",),
    )

    def threshold(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.greater_equal(t["weight"], pa.scalar(min_count))
        ).select(["subj", "obj", "weight"])

    return summed.map_batches(threshold, batch_format="pyarrow")


# Gopher-style document-quality rules (Rae et al. 2021, table A1 shape),
# re-parameterized for a space-tokenized corpus and made INTEGER-EXACT:
# every ratio threshold is a cross-multiplied integer comparison, so the
# engine and the DuckDB twin agree bit-for-bit with no float rounding.
GOPHER_STOPWORDS: tuple[str, ...] = ("the", "a")


def gopher_quality(
    docs_ds,
    min_words: int = 20,
    max_words: int = 90,
    mwl_lo_x10: int = 43,
    mwl_hi_x10: int = 47,
    min_stopwords: int = 2,
    max_top_frac_den: int = 10,
    min_distinct_num: int = 2,
    min_distinct_den: int = 5,
):
    """Per-document Gopher-rule audit: one row per doc with the five
    rule flags (0/1) and the conjunction ``keep``.

    Rules (all integer-exact):
      r_wc        min_words <= wc <= max_words
      r_mwl       mwl_lo_x10*wc <= 10*total_word_chars <= mwl_hi_x10*wc
                  (mean word length in [4.3, 4.7] at the defaults)
      r_stop      count of GOPHER_STOPWORDS occurrences >= min_stopwords
      r_rep       max single-word count * max_top_frac_den <= wc
                  (top word <= 10% of tokens at the default)
      r_distinct  distinct_words * min_distinct_den >=
                  min_distinct_num * wc  (>= 40% distinct at defaults)

    Scale shape: each document is judged from its own row alone, so this
    is ONE stateless vectorized ``map_batches`` — no shuffle, no state,
    embarrassingly parallel at any corpus size. Per-batch work is a
    pandas explode -> (doc, word) count -> per-doc integer aggregate.
    """
    import numpy as np
    import pandas as pd

    stopset = set(GOPHER_STOPWORDS)

    def rules(df: pd.DataFrame) -> pd.DataFrame:
        out_cols = [
            "doc_id", "wc", "r_wc", "r_mwl", "r_stop", "r_rep",
            "r_distinct", "keep",
        ]
        if df.empty:
            return pd.DataFrame(
                {c: pd.Series([], dtype="int64") for c in out_cols}
            )
        words = df["text"].fillna("").str.split(" ")
        ex = pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy().repeat(
                    words.str.len().to_numpy()
                ),
                "word": np.concatenate(words.to_numpy()),
            }
        )
        wt = (
            ex.groupby(["doc_id", "word"], sort=False)
            .size()
            .reset_index(name="c")
        )
        wt["wchars"] = wt["word"].str.len() * wt["c"]
        wt["stop_c"] = np.where(wt["word"].isin(stopset), wt["c"], 0)
        g = wt.groupby("doc_id", sort=False)
        agg = g.agg(
            wc=("c", "sum"),
            tc=("wchars", "sum"),
            stop_n=("stop_c", "sum"),
            top_c=("c", "max"),
            distinct_n=("c", "size"),
        ).reset_index()
        wc = agg["wc"].to_numpy()
        tc = agg["tc"].to_numpy()
        out = pd.DataFrame({"doc_id": agg["doc_id"], "wc": wc})
        out["r_wc"] = (
            (wc >= min_words) & (wc <= max_words)
        ).astype("int64")
        out["r_mwl"] = (
            (mwl_lo_x10 * wc <= 10 * tc) & (10 * tc <= mwl_hi_x10 * wc)
        ).astype("int64")
        out["r_stop"] = (
            agg["stop_n"].to_numpy() >= min_stopwords
        ).astype("int64")
        out["r_rep"] = (
            agg["top_c"].to_numpy() * max_top_frac_den <= wc
        ).astype("int64")
        out["r_distinct"] = (
            agg["distinct_n"].to_numpy() * min_distinct_den
            >= min_distinct_num * wc
        ).astype("int64")
        out["keep"] = (
            out[["r_wc", "r_mwl", "r_stop", "r_rep", "r_distinct"]]
            .min(axis=1)
            .astype("int64")
        )
        out["wc"] = out["wc"].astype("int64")
        return out[out_cols]

    return docs_ds.map_batches(rules, batch_format="pandas")


def gopher_quality_oracle_sql(
    min_words: int = 20,
    max_words: int = 90,
    mwl_lo_x10: int = 43,
    mwl_hi_x10: int = 47,
    min_stopwords: int = 2,
    max_top_frac_den: int = 10,
    min_distinct_num: int = 2,
    min_distinct_den: int = 5,
) -> str:
    stops = ", ".join(f"'{w}'" for w in GOPHER_STOPWORDS)
    return f"""
        WITH w AS (
            SELECT doc_id, unnest(string_split(text, ' ')) AS word
            FROM documents
        ),
        wt AS (
            SELECT doc_id, word, COUNT(*) AS c
            FROM w GROUP BY 1, 2
        ),
        per AS (
            SELECT doc_id,
                   SUM(c) AS wc,
                   SUM(length(word) * c) AS tc,
                   SUM(CASE WHEN word IN ({stops}) THEN c ELSE 0 END)
                       AS stop_n,
                   MAX(c) AS top_c,
                   COUNT(*) AS distinct_n
            FROM wt GROUP BY doc_id
        )
        SELECT doc_id,
               CAST(wc AS BIGINT) AS wc,
               CAST(CASE WHEN wc >= {min_words} AND wc <= {max_words}
                    THEN 1 ELSE 0 END AS BIGINT) AS r_wc,
               CAST(CASE WHEN {mwl_lo_x10} * wc <= 10 * tc
                          AND 10 * tc <= {mwl_hi_x10} * wc
                    THEN 1 ELSE 0 END AS BIGINT) AS r_mwl,
               CAST(CASE WHEN stop_n >= {min_stopwords}
                    THEN 1 ELSE 0 END AS BIGINT) AS r_stop,
               CAST(CASE WHEN top_c * {max_top_frac_den} <= wc
                    THEN 1 ELSE 0 END AS BIGINT) AS r_rep,
               CAST(CASE WHEN distinct_n * {min_distinct_den}
                          >= {min_distinct_num} * wc
                    THEN 1 ELSE 0 END AS BIGINT) AS r_distinct,
               CAST(CASE WHEN wc >= {min_words} AND wc <= {max_words}
                          AND {mwl_lo_x10} * wc <= 10 * tc
                          AND 10 * tc <= {mwl_hi_x10} * wc
                          AND stop_n >= {min_stopwords}
                          AND top_c * {max_top_frac_den} <= wc
                          AND distinct_n * {min_distinct_den}
                              >= {min_distinct_num} * wc
                    THEN 1 ELSE 0 END AS BIGINT) AS keep
        FROM per
    """


def pii_scrub_oracle_sql(patterns: dict[str, str] | None = None) -> str:
    """DuckDB twin of :func:`pii_scrub_batch`: the same RE2 patterns
    applied as a nested global ``regexp_replace`` chain in dict order
    (both engines are RE2 with leftmost non-overlapping semantics, so
    the chained rewrites agree byte-for-byte)."""
    pats = patterns if patterns is not None else PII_PATTERNS
    expr = "COALESCE(text, '')"
    for name, pat in pats.items():
        expr = (
            "regexp_replace({}, '{}', '[{}]', 'g')".format(
                expr, pat.replace("'", "''"), name.upper()
            )
        )
    return f"SELECT doc_id, {expr} AS text FROM documents"


def window_cooccurrence(docs_ds, window: int = 4):
    """Sliding-WINDOW word co-occurrence counts — the word2vec/GloVe
    co-occurrence builder: for every token position pair (i, j) with
    ``0 < j - i <= window`` inside one document, count the unordered
    word pair (equal-word pairs and empty tokens dropped). Distinct
    from the doc-level entity pair graph (``kg.unigram_triples``):
    the weight here is POSITIONAL — distance-bounded index pairs, all
    words, repeats included.

    Scale shape: per-batch shifted-array pair extraction (one numpy
    shift per distance d, doc boundaries masked — no per-token python)
    -> per-batch (pair -> n) partial -> WORD_A-keyed combine.
    Pair stream is O(tokens x window) pre-combined per batch; nothing
    corpus-sized on the driver.
    """
    from autoner_ray.stages.combine import keyed_combine

    def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "word_a": pd.Series([], dtype="object"),
                "word_b": pd.Series([], dtype="object"),
                "n": pd.Series([], dtype="int64"),
            }
        )
        if df.empty:
            return empty
        words = df["text"].fillna("").str.split(" ")
        lens = words.str.len().to_numpy()
        flat = np.concatenate(words.to_numpy())
        doc_ix = np.repeat(np.arange(len(df)), lens)
        parts = []
        for d in range(1, window + 1):
            if len(flat) <= d:
                break
            a, b = flat[:-d], flat[d:]
            m = (
                (doc_ix[:-d] == doc_ix[d:])
                & (a != b) & (a != "") & (b != "")
            )
            if not m.any():
                continue
            am, bm = a[m], b[m]
            lo = np.where(am < bm, am, bm)
            hi = np.where(am < bm, bm, am)
            parts.append(pd.DataFrame({"word_a": lo, "word_b": hi}))
        if not parts:
            return empty
        agg = (
            pd.concat(parts, ignore_index=True)
            .groupby(["word_a", "word_b"], sort=False)
            .size()
            .reset_index(name="n")
        )
        agg["n"] = agg["n"].astype("int64")
        return agg

    return keyed_combine(
        docs_ds.map_batches(pair_partial, batch_format="pandas"),
        pa.schema([("word_a", pa.string()), ("word_b", pa.string()),
                   ("n", pa.int64())]),
        [("n", "sum")], part_on=("word_a",),
    )


def window_pairs_ctes(window: int = 4) -> str:
    """Shared CTE prefix ending in ``wp(word_a, word_b, n)`` — the
    sliding-window pair counts (twin of :func:`window_cooccurrence`)."""
    return f"""
        toks AS MATERIALIZED (
            SELECT doc_id, string_split(text, ' ') AS l FROM documents
        ),
        idx AS MATERIALIZED (
            SELECT doc_id, i.i AS pos, l[i.i + 1] AS word
            FROM toks t, UNNEST(range(len(t.l))) AS i(i)
        ),
        wp AS MATERIALIZED (
            SELECT least(a.word, b.word) AS word_a,
                   greatest(a.word, b.word) AS word_b,
                   COUNT(*) AS n
            FROM idx a JOIN idx b
              ON a.doc_id = b.doc_id
             AND b.pos > a.pos AND b.pos - a.pos <= {window}
            WHERE a.word <> b.word AND a.word <> '' AND b.word <> ''
            GROUP BY 1, 2
        )
    """


def window_cooccurrence_oracle_sql(window: int = 4) -> str:
    return f"""
        WITH {window_pairs_ctes(window)}
        SELECT word_a, word_b, CAST(n AS BIGINT) AS n FROM wp
    """


def snapshot_diff(docs_ds):
    """Incremental-crawl snapshot delta — the change feed a recrawl
    pipeline computes before reprocessing anything: two deterministic
    snapshot views of the corpus (A = doc_id % 3 != 0; B = doc_id % 3
    != 1, with every doc_id % 5 == 0 page's text mutated — the
    recrawled-and-changed case) diff by page into
    (doc_id, status in {added, removed, changed, unchanged}). Content
    equality is by md5 of the text, never the text itself.

    Scale shape: the two snapshot streams union with a side tag and
    ONE exchange on doc_id co-locates each page's <=2 rows; the
    per-block classify is a vectorized pandas pass (the
    schema-evolution / wide-diff family pattern). Rows shuffled carry
    (doc_id, side, md5) only — text is dropped at the map."""
    import hashlib

    from autoner_ray.stages.combine import exchange

    _r_schema = pa.schema(
        [("doc_id", pa.int64()), ("side", pa.int8()),
         ("h", pa.string())]
    )

    def snapshot_rows(t: pa.Table) -> pa.Table:
        ids, sides, hs = [], [], []
        for did, text in zip(t["doc_id"].to_pylist(),
                             t["text"].to_pylist()):
            did = int(did)
            text = text or ""
            if did % 3 != 0:  # snapshot A
                ids.append(did)
                sides.append(0)
                hs.append(hashlib.md5(text.encode()).hexdigest())
            if did % 3 != 1:  # snapshot B, possibly recrawl-changed
                b_text = text + " updated" if did % 5 == 0 else text
                ids.append(did)
                sides.append(1)
                hs.append(hashlib.md5(b_text.encode()).hexdigest())
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "side": pa.array(sides, pa.int8()),
                "h": pa.array(hs, pa.string()),
            },
            schema=_r_schema,
        )

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        # a page has at most one row per side
        a = df.loc[df["side"] == 0].set_index("doc_id")["h"].rename("a")
        b = df.loc[df["side"] == 1].set_index("doc_id")["h"].rename("b")
        both = pd.concat([a, b], axis=1)
        status = np.where(
            both["a"].isna(), "added",
            np.where(
                both["b"].isna(), "removed",
                np.where(both["a"] != both["b"], "changed", "unchanged"),
            ),
        )
        return pd.DataFrame({"doc_id": both.index, "status": status})

    return exchange(
        docs_ds.map_batches(snapshot_rows, batch_format="pyarrow"),
        ("doc_id",), classify,
        pa.schema([("doc_id", pa.int64()), ("status", pa.string())]),
        batch_format="pandas",
    )
