"""Text-analysis stages for training-data pipelines (engine extensions).

Kernels and Dataset operators over the ``documents`` table:
- quality scoring and the threshold-keep quality filter (SQL-checkable)
- exact-dedup keying via md5 content hash (SQL-checkable)
- language ID: character-n-gram profile heuristic (deterministic)
- sampling and budgets: temperature sample, fair token budget
- corpus profiles: LM perplexity, source x language pivot, postings,
  passage chunks, training-pack census, DSIR weights, heavy hitters
- vocabulary: edit-distance pairs and alias clusters, boolean search,
  the mention linear probe, and the recrawl snapshot diff

Where a kernel is SQL-checkable the float outputs are rounded to 6 dp on
BOTH sides (engine + oracle) so the driver's value-hash compare is stable.
"""

from __future__ import annotations

from collections import Counter
import hashlib
import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from autoner_ray.dicts import STOPWORDS
from autoner_ray.stages.tokenize import sentence_token_stream

_STOP = frozenset(STOPWORDS)


def quality_batch(batch: pa.Table) -> pa.Table:
    """doc_id, n_words, stop_ratio, mean_word_len (6-dp rounded)."""
    texts = batch["text"].to_pylist()
    n_words, stop_ratio, mean_len = [], [], []
    for t in texts:
        words = sentence_token_stream(t or "")
        n = max(len(words), 1)
        n_words.append(len(words))
        stop_ratio.append(round(sum(w in _STOP for w in words) / n, 6))
        mean_len.append(round(sum(len(w) for w in words) / n, 6))
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_words": pa.array(n_words, pa.int64()),
            "stop_ratio": pa.array(stop_ratio, pa.float64()),
            "mean_word_len": pa.array(mean_len, pa.float64()),
        }
    )


def md5_batch(batch: pa.Table) -> pa.Table:
    """doc_id, text_md5 — content hash for exact dedup / fingerprinting."""
    hashes = [
        hashlib.md5((t or "").encode()).hexdigest()
        for t in batch["text"].to_pylist()
    ]
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "text_md5": pa.array(hashes, pa.string()),
        }
    )


# -- language ID -------------------------------------------------------------

# tiny deterministic char-trigram profiles per language; the heuristic is a
# cosine over trigram count vectors. Profiles are built from fixed seed
# strings (public knowledge: frequent function words per language).
_LANG_SEEDS = {
    "en": "the and of to in is that it for was on are with as his they be",
    "de": "der die das und ist nicht ein eine mit von für auf dem den",
    "es": "el la los las de que y en un una es por con para su al",
    "fr": "le la les des de et est que pour dans une un au aux sur",
    "zh": "的 一 是 在 不 了 有 和 人 这 中 大 为 上 个 国",
}


def _trigrams(s: str) -> dict[str, int]:
    s = f"  {s.lower()}  "
    # zip-of-shifted-views + C-level Counter: ~1.6x the indexing loop
    return Counter(map("".join, zip(s, s[1:], s[2:])))


class LangId:
    """Language-ID kernel: profiles built once per instance
    as a dense (vocab × langs) matrix — per doc the score against ALL
    languages is one vectorized gather + matmul row, not a per-language
    Python dict loop. Trigrams outside every profile contribute 0 to
    every dot product (they only enter through the doc norm), so the
    union vocab is complete."""

    def __init__(self) -> None:
        self.langs = sorted(_LANG_SEEDS)
        profs = {lang: _trigrams(_LANG_SEEDS[lang]) for lang in self.langs}
        self.vocab = {
            g: i
            for i, g in enumerate(
                sorted({g for p in profs.values() for g in p})
            )
        }
        P = np.zeros((len(self.vocab), len(self.langs)), np.float64)
        for j, lang in enumerate(self.langs):
            prof = profs[lang]
            pnorm = np.sqrt(sum(v * v for v in prof.values()))
            if pnorm:
                for g, v in prof.items():
                    P[self.vocab[g], j] = v / pnorm
        self.P = P

    def predict(self, text: str) -> str:
        tg = _trigrams(text[:1000])
        if not tg:
            return "und"
        tnorm = np.sqrt(sum(v * v for v in tg.values()))
        idx = [self.vocab.get(g, -1) for g in tg]
        rows = [i for i in idx if i >= 0]
        if not rows:
            # zero overlap: every sim is exactly 0.0; the sorted-first
            # language wins, matching the scalar reference loop
            return self.langs[0]
        cnts = np.fromiter(
            (c for i, c in zip(idx, tg.values()) if i >= 0),
            np.float64,
            count=len(rows),
        )
        sims = cnts @ self.P[rows] / tnorm
        return self.langs[int(np.argmax(sims))]

    def __call__(self, batch: pa.Table) -> pa.Table:
        preds = [self.predict(t or "") for t in batch["text"].to_pylist()]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "pred_lang": pa.array(preds, pa.string()),
            }
        )


_LANGID_SINGLETON = None


def lang_id_batch(batch: pa.Table) -> pa.Table:
    """TASK-pool wrapper: LangId state is tiny and deterministic, so a
    per-worker-process singleton replaces actor state — warm Ray workers
    carry no per-run actor-spawn cost (same reasoning as the minhash
    signer, dedup.py) and the stage scales with the task pool."""
    global _LANGID_SINGLETON
    if _LANGID_SINGLETON is None:
        _LANGID_SINGLETON = LangId()
    return _LANGID_SINGLETON(batch)


def quality_filter(docs_ds, min_words: int = 20,
                   min_stop_ratio: float = 0.02,
                   max_mean_word_len: float = 5.0):
    """Threshold-keep quality curation — the filter an LLM data pipeline
    actually applies (docs_quality only SCORES): keep docs with enough
    words, a plausible stopword ratio (gibberish has ~0) and a sane
    mean word length (URLs/base64 blow it up). Thresholds compare the
    same 6-dp-rounded values the oracle computes, so the cut is
    bit-stable across engine and SQL."""
    import pyarrow.compute as pc

    def keep(batch: pa.Table) -> pa.Table:
        q = quality_batch(batch)
        mask = pc.and_(
            pc.and_(
                pc.greater_equal(q["n_words"], min_words),
                pc.greater_equal(q["stop_ratio"], min_stop_ratio),
            ),
            pc.less_equal(q["mean_word_len"], max_mean_word_len),
        )
        return q.filter(mask)

    return docs_ds.map_batches(keep, batch_format="pyarrow")


def temperature_sample(docs_ds, tau: float = 0.7, seed: int = 19910724):
    """Temperature-based language rebalancing (the multilingual-mixing
    pass of LLM data pipelines: keep-rate ∝ (n_lang/N)^(τ-1), scaled so
    the rarest language keeps everything — τ<1 downsamples the head
    toward the tail, τ=1 keeps all).

    Two passes, both scale-clean: (1) per-language counts via the
    keyed combine (lang is corpus data, so the partitioned tier); (2) a
    deterministic md5(doc_id:seed) Bernoulli filter, thresholds
    broadcast in the closure.
    Keep-set is a pure function of (corpus lang histogram, doc_id, seed)
    — reproducible across runs, widths and resumes. The DuckDB twin
    recomputes the same thresholds in SQL; both sides use float64
    ``pow``, and a boundary flip would need the two pows to differ by
    ~2⁻³² relative — not observed at either oracle scale.
    """
    import math

    from autoner_ray.stages.combine import keyed_combine

    def lang_partial(t: pa.Table) -> pa.Table:
        vc = t["lang"].value_counts()
        return pa.table(
            {
                "lang": vc.field("values"),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    counts = keyed_combine(
        docs_ds.select_columns(["lang"]).map_batches(
            lang_partial, batch_format="pyarrow", batch_size=65536
        ),
        pa.schema([("lang", pa.string()), ("n", pa.int64())]),
        [("n", "sum")],  # lang is corpus data: no key bound
    ).to_pandas()
    total = float(counts["n"].sum())
    w = {
        r["lang"]: math.pow(r["n"] / total, tau - 1.0)
        for _, r in counts.iterrows()
    }
    mx = max(w.values())
    thresholds = {
        lang: int(math.floor(v / mx * (1 << 32))) for lang, v in w.items()
    }

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        langs = batch["lang"].to_pylist()
        mask = [
            int(
                hashlib.md5(f"{i}:{seed}".encode()).hexdigest()[:8], 16
            ) < thresholds.get(lang, 0)
            for i, lang in zip(ids, langs)
        ]
        return batch.filter(pa.array(mask, pa.bool_()))

    return docs_ds.map_batches(keep, batch_format="pyarrow")


def temperature_sample_oracle_sql(tau: float = 0.7,
                                  seed: int = 19910724) -> str:
    return f"""
        WITH c AS (SELECT lang, COUNT(*) AS n FROM documents GROUP BY lang),
        tot AS (SELECT SUM(n) AS total FROM c),
        q AS (
            SELECT lang,
                   pow(n / CAST(total AS DOUBLE), {tau} - 1.0) AS w
            FROM c, tot
        ),
        mx AS (SELECT MAX(w) AS m FROM q),
        th AS (
            SELECT lang,
                   CAST(floor(w / m * 4294967296.0) AS UBIGINT) AS thr
            FROM q, mx
        )
        SELECT d.doc_id, d.lang, d.text
        FROM documents d JOIN th USING (lang)
        WHERE CAST(('0x' || substring(
                  md5(CAST(d.doc_id AS VARCHAR) || ':{seed}'), 1, 8))
              AS UBIGINT) < thr
    """


def lm_perplexity(
    docs_ds,
    broadcast_limit: int = 5_000_000,
    force_join: bool = False,
):
    """Per-doc bigram-LM negative-log-likelihood — the CCNet-style
    language-model quality signal (Wenzek et al. 2020 bucket web docs by
    LM perplexity; docs whose token transitions are improbable under a
    corpus-trained model are boilerplate/gibberish candidates).

    Model: add-V-smoothed bigram LM trained on THIS corpus.
    P(w2|w1) = (c2(w1,w2) + 1) / (c1(w1) + V) with c2 the global bigram
    count, c1(w1) = sum_w2 c2(w1,w2) (occurrences of w1 as a context)
    and V the corpus distinct-token count. Tokens are ``text.split(' ')``
    (DuckDB ``string_split`` twin). Output per doc with >=1 bigram:
    ``n_bigrams`` and ``nll_micro`` = sum over positions of
    ``floor(ln((c1+V)/(c2+1)) * 1e6 + 0.5)`` as int64 — each position's
    NLL is quantized to integer micro-nats BEFORE the sum, so the
    aggregate is order-independent and value-hash-stable against the SQL
    oracle (the float-sum analogue of the integer-cents trick).
    Perplexity = exp(nll_micro / 1e6 / n_bigrams).

    Two tiers, same results:

    - **broadcast** (default while the trained model — the bigram TYPE
      table — fits ``broadcast_limit`` rows; bigram types grow with the
      vocabulary, not the corpus): two small-partial shuffles train the
      model (distinct-vocab count V; a (w1, w2) keyed combine of
      bigram counts), c1 folds locally from the collected
      bigram table, and ONE streaming pass scores the corpus — each
      doc's bigrams live inside its own batch, so per-doc sums finalize
      in the kernel via a vectorized pandas merge against the
      ``ray.put``-broadcast model. Zero corpus-sized shuffles.
    - **join** (``force_join=True`` or model above the limit): the
      corpus explodes to per-doc bigram rows, the model cogroup-joins
      onto them sharded by (w1, w2), and a final per-doc groupby sums
      integer partials — nothing vocabulary-sized on the driver.
    """
    from collections import Counter

    from autoner_ray.stages.combine import keyed_combine
    from autoner_ray.stages.joins import cogroup_join

    def explode(batch: pa.Table) -> pa.Table:
        doc_ids, w1s, w2s, occs = [], [], [], []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            toks = (text or "").split(" ")
            if len(toks) < 2:
                continue
            for (a, b), c in Counter(zip(toks, toks[1:])).items():
                doc_ids.append(did)
                w1s.append(a)
                w2s.append(b)
                occs.append(c)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "w1": pa.array(w1s, pa.string()),
                "w2": pa.array(w2s, pa.string()),
                "occ": pa.array(occs, pa.int64()),
            }
        )

    def distinct_words(batch: pa.Table) -> pa.Table:
        out: set[str] = set()
        for text in batch["text"].to_pylist():
            out.update((text or "").split(" "))
        return pa.table(
            {
                "word": pa.array(sorted(out), pa.string()),
                "n": pa.array(np.ones(len(out), np.int64)),
            }
        )

    # V: distinct tokens over ALL positions (exchange of per-batch
    # distinct partials; the count is the only thing the driver holds)
    vocab_size = keyed_combine(
        docs_ds.map_batches(distinct_words, batch_format="pyarrow"),
        pa.schema([("word", pa.string()), ("n", pa.int64())]),
        [("n", "sum")],
    ).count()

    def c2_rows(batch: pa.Table) -> pa.Table:
        return batch.select(["w1", "w2", "occ"]).rename_columns(
            ["w1", "w2", "c2"]
        )

    exploded = docs_ds.map_batches(explode, batch_format="pyarrow")
    if force_join:
        # the join tier consumes the exploded table TWICE (model
        # aggregation + scoring join): pin it once so the corpus is
        # tokenized in a single pass; the object store spills, the
        # second tokenize pass disappears. The probe path skips this —
        # its broadcast tier scores straight off the raw docs, and
        # pinning corpus-sized data it may never reuse would be waste
        # (falling through probe -> join keeps today's recompute).
        exploded = exploded.materialize()
    # keyed_combine's precombine is its own operator: explode keeps
    # its own width
    bigrams = keyed_combine(
        exploded.map_batches(c2_rows, batch_format="pyarrow"),
        pa.schema([("w1", pa.string()), ("w2", pa.string()),
                   ("c2", pa.int64())]),
        [("c2", "sum")], part_on=("w1",),
    )

    if not force_join:
        # model-size probe without recompute: the TYPE table is tiny
        # vs the corpus, so pinning it in the object store is safe
        bigrams = bigrams.materialize()
        if bigrams.count() <= broadcast_limit:
            import pandas as pd
            import ray

            model = bigrams.to_pandas()
            # c1 folds locally from the collected model — no shuffle
            model["c1"] = model.groupby("w1")["c2"].transform("sum")
            model["nll"] = np.floor(
                np.log(
                    (model["c1"].to_numpy().astype(np.float64)
                     + float(vocab_size))
                    / (model["c2"].to_numpy().astype(np.float64) + 1.0)
                ) * 1e6 + 0.5
            ).astype(np.int64)
            # separator: tokens come from split(' ') so they cannot
            # contain a space ("w1 w2" is collision-free); NUL is NOT
            # safe here — numpy/pandas string concat silently strips it
            model_ref = ray.put(
                dict(
                    zip(
                        (model["w1"] + " " + model["w2"]).tolist(),
                        model["nll"].tolist(),
                    )
                )
            )

            def score_docs(batch: pa.Table) -> pa.Table:
                nll_of = ray.get(model_ref)
                ids, nb, bounds, keys = [], [], [0], []
                for did, text in zip(
                    batch["doc_id"].to_pylist(),
                    batch["text"].to_pylist(),
                ):
                    toks = (text or "").split(" ")
                    if len(toks) < 2:
                        continue
                    ids.append(did)
                    nb.append(len(toks) - 1)
                    keys.extend(
                        a + " " + b for a, b in zip(toks, toks[1:])
                    )
                    bounds.append(len(keys))
                if not ids:
                    return pa.table(
                        {
                            "doc_id": pa.array([], pa.int64()),
                            "n_bigrams": pa.array([], pa.int64()),
                            "nll_micro": pa.array([], pa.int64()),
                        }
                    )
                # every corpus bigram is in the model by construction:
                # vectorized gather + segmented sum (Series.map / reduceat)
                vals = pd.Series(keys).map(nll_of).to_numpy(np.int64)
                sums = np.add.reduceat(vals, np.asarray(bounds[:-1]))
                return pa.table(
                    {
                        "doc_id": pa.array(ids, pa.int64()),
                        "n_bigrams": pa.array(nb, pa.int64()),
                        "nll_micro": pa.array(sums, pa.int64()),
                    }
                )

            return docs_ds.map_batches(score_docs, batch_format="pyarrow")

    def c1_rows(batch: pa.Table) -> pa.Table:
        return batch.select(["w1", "c2"]).rename_columns(["w1", "c1"])

    contexts = keyed_combine(
        bigrams.map_batches(c1_rows, batch_format="pyarrow"),
        pa.schema([("w1", pa.string()), ("c1", pa.int64())]),
        [("c1", "sum")],
    )

    model = cogroup_join(bigrams, contexts, on=("w1",))
    scored = cogroup_join(exploded, model, on=("w1", "w2"))

    def score(batch: pa.Table) -> pa.Table:
        c1 = batch["c1"].to_numpy().astype(np.float64)
        c2 = batch["c2"].to_numpy().astype(np.float64)
        occ = batch["occ"].to_numpy()
        nll = np.floor(
            np.log((c1 + float(vocab_size)) / (c2 + 1.0)) * 1e6 + 0.5
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_bigrams": pa.array(occ, pa.int64()),
                "nll_micro": pa.array(occ * nll, pa.int64()),
            }
        )

    return keyed_combine(
        scored.map_batches(score, batch_format="pyarrow"),
        pa.schema([("doc_id", pa.int64()), ("n_bigrams", pa.int64()),
                   ("nll_micro", pa.int64())]),
        [("n_bigrams", "sum"), ("nll_micro", "sum")],
    )


def lm_perplexity_oracle_sql() -> str:
    """DuckDB twin of :func:`lm_perplexity` — same tokenization, same
    smoothing, same per-position micro-nat quantization before the sum."""
    return """
        WITH toks AS (
            SELECT doc_id, string_split(text, ' ') AS w FROM documents
        ),
        pos AS (
            SELECT doc_id, w[i] AS w1, w[i + 1] AS w2
            FROM toks,
                 unnest(generate_series(1, greatest(len(w) - 1, 0))) AS t(i)
        ),
        allw AS (
            SELECT w[i] AS wd
            FROM toks, unnest(generate_series(1, len(w))) AS t(i)
        ),
        v AS (SELECT count(DISTINCT wd) AS v FROM allw),
        c2 AS (SELECT w1, w2, count(*) AS c2 FROM pos GROUP BY w1, w2),
        c1 AS (SELECT w1, sum(c2) AS c1 FROM c2 GROUP BY w1)
        SELECT p.doc_id AS doc_id, count(*) AS n_bigrams,
               sum(CAST(floor(
                   ln((c1.c1 + v.v) / (c2.c2 + 1.0)) * 1000000 + 0.5
               ) AS BIGINT)) AS nll_micro
        FROM pos p
        JOIN c2 USING (w1, w2)
        JOIN c1 USING (w1)
        CROSS JOIN v
        GROUP BY p.doc_id
    """


_PIVOT_LANGS = ("de", "en", "es", "fr", "zh")


def source_lang_pivot(docs_ds, langs: tuple[str, ...] = _PIVOT_LANGS):
    """Crosstab: one row per source, one doc-count column per language
    (``n_<lang>``) plus ``n_total`` — the wide layout a mixing
    dashboard plots directly.  The language axis must be a FIXED,
    declared column set (schemas are static in Arrow and in SQL);
    unexpected langs land in ``n_other`` rather than silently dropping.

    Scale shape: a (source, lang) keyed combine — per-batch arrow hash
    partials, then the one exchange (source and lang are corpus data,
    so no key bound holds) — then a single-block long->wide reshape of
    the aggregate.
    """
    from autoner_ray.stages.combine import keyed_combine

    langs = tuple(langs)

    def partial(t: pa.Table) -> pa.Table:
        agg = (
            t.select(["source", "lang"])
            .group_by(["source", "lang"])
            .aggregate([("lang", "count")])
        )
        return agg.rename_columns(["source", "lang", "n"])

    fine = keyed_combine(
        docs_ds.map_batches(partial, batch_format="pyarrow"),
        pa.schema([("source", pa.string()), ("lang", pa.string()),
                   ("n", pa.int64())]),
        [("n", "sum")],
    )

    out_schema = pa.schema(
        [("source", pa.string())]
        + [(f"n_{lg}", pa.int64()) for lg in langs]
        + [("n_other", pa.int64()), ("n_total", pa.int64())]
    )

    def widen(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return out_schema.empty_table()
        df = t.to_pandas()
        df["lang"] = df["lang"].where(df["lang"].isin(langs), "__other")
        wide = (
            df.pivot_table(
                index="source", columns="lang", values="n",
                aggfunc="sum", fill_value=0,
            )
            .reindex(columns=list(langs) + ["__other"], fill_value=0)
            .reset_index()
        )
        cols = {"source": pa.array(wide["source"], pa.string())}
        total = None
        for lg in list(langs) + ["__other"]:
            v = wide[lg].astype("int64")
            name = "n_other" if lg == "__other" else f"n_{lg}"
            cols[name] = pa.array(v, pa.int64())
            total = v if total is None else total + v
        cols["n_total"] = pa.array(total.astype("int64"), pa.int64())
        return pa.table(cols).cast(out_schema)

    return fine.repartition(1).map_batches(
        widen, batch_format="pyarrow", batch_size=None
    )


def source_lang_pivot_oracle_sql(
    langs: tuple[str, ...] = _PIVOT_LANGS,
) -> str:
    cases = ",\n               ".join(
        f"SUM(CASE WHEN lang = '{lg}' THEN 1 ELSE 0 END) AS n_{lg}"
        for lg in langs
    )
    in_list = ", ".join(f"'{lg}'" for lg in langs)
    return f"""
        SELECT source,
               {cases},
               SUM(CASE WHEN lang NOT IN ({in_list}) OR lang IS NULL
                   THEN 1 ELSE 0 END) AS n_other,
               COUNT(*) AS n_total
        FROM documents GROUP BY source
    """


def boolean_and_search(docs_ds, terms=("window", "hash", "merge")):
    """Conjunctive (AND) term search: docs containing EVERY query term,
    with the summed term frequency — the scan-side twin of an
    inverted-index postings intersection.

    Fully vectorized: one arrow ``split_pattern`` per batch, one
    ``pc.equal`` + ``np.bincount`` per query term over the flattened
    token array (no Python per-row loop). Embarrassingly parallel — a
    pure filter-map with no shuffle; at scale the same predicate runs
    against sharded postings instead of the raw scan, and this operator
    is the oracle-checkable scan path."""
    import numpy as np

    terms = tuple(terms)

    def probe(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "tf": pa.array([], pa.int64()),
            }
        )
        txt = pc.fill_null(t["text"], "").combine_chunks()
        lists = pc.split_pattern(txt, pattern=" ")
        offs = lists.offsets.to_numpy()
        parents = np.repeat(
            np.arange(len(t), dtype=np.int64), offs[1:] - offs[:-1]
        )
        flat = lists.flatten()
        present = np.ones(len(t), dtype=bool)
        tf = np.zeros(len(t), dtype=np.int64)
        for term in terms:
            m = pc.equal(flat, term).to_numpy(zero_copy_only=False)
            c = np.bincount(parents[m], minlength=len(t))
            present &= c > 0
            tf += c
        if not present.any():
            return empty
        keep = pa.array(present)
        return pa.table(
            {
                "doc_id": t["doc_id"].filter(keep),
                "tf": pa.array(tf[present], pa.int64()),
            }
        )

    return docs_ds.map_batches(probe, batch_format="pyarrow")


def _levenshtein_leq(a: str, b: str, d: int = 2) -> int:
    """Banded Levenshtein: exact distance if <= d, else d+1. O(d*len)."""
    if abs(len(a) - len(b)) > d:
        return d + 1
    if len(a) > len(b):
        a, b = b, a
    prev = list(range(len(a) + 1))
    for j, cb in enumerate(b, 1):
        cur = [j] + [0] * len(a)
        lo = max(1, j - d)
        hi = min(len(a), j + d)
        if lo > 1:
            cur[lo - 1] = d + 1
        # column 0 (cur[0] == j) is in-band while j <= d
        best = j if j <= d else d + 1
        for i in range(lo, hi + 1):
            cur[i] = min(
                prev[i] + 1,
                cur[i - 1] + 1,
                prev[i - 1] + (a[i - 1] != cb),
            )
            if cur[i] < best:
                best = cur[i]
        if hi < len(a):
            cur[hi + 1 :] = [d + 1] * (len(a) - hi)
        if best > d:
            return d + 1
        prev = cur
    return prev[len(a)]


def _deletion_variants(w: str, d: int = 2):
    """All strings reachable from ``w`` by deleting up to ``d`` chars
    (SymSpell signatures), including ``w`` itself."""
    out = {w}
    frontier = {w}
    for _ in range(d):
        nxt = set()
        for s in frontier:
            for i in range(len(s)):
                nxt.add(s[:i] + s[i + 1 :])
        out |= nxt
        frontier = nxt
    return out


def vocab_edit_distance_pairs(docs_ds, max_dist: int = 2):
    """Surface-form variant mining: all DISTINCT corpus-word pairs
    within Levenshtein distance ``max_dist`` — the canonicalization
    primitive for typo/alias clustering in KG entity resolution.

    SymSpell-style sub-quadratic shape (ed(a,b) <= d guarantees a
    shared <=d-deletion signature): per-batch distinct-word partials ->
    word-partitioned vocab combine (one row per word, spread across
    blocks — the vocab never sits in one block) -> signature explode ->
    hash-group by signature -> in-group banded-DP verify -> pair dedup.
    Every stage is vocab-sized, never corpus-sized; the quadratic is
    confined to single signature buckets (hot buckets are short-prefix
    signatures — cap/salt them at 10^8-word vocab)."""
    import pandas as pd

    from autoner_ray.stages.combine import exchange, keyed_combine

    def words_partial(t: pa.Table) -> pa.Table:
        txt = pc.fill_null(t["text"], "").combine_chunks()
        flat = pc.split_pattern(txt, pattern=" ").flatten()
        flat = flat.filter(pc.not_equal(flat, ""))
        agg = (
            pa.table({"word": flat})
            .group_by("word")
            .aggregate([("word", "count")])
        )
        return agg.rename_columns(["word", "n"])

    vocab = keyed_combine(
        docs_ds.map_batches(words_partial, batch_format="pyarrow"),
        pa.schema([("word", pa.string()), ("n", pa.int64())]),
        [("n", "sum")],
    )

    def explode_sigs(t: pa.Table) -> pa.Table:
        sigs, words = [], []
        for w in t["word"].to_pylist():
            for s in _deletion_variants(w, max_dist):
                sigs.append(s)
                words.append(w)
        return pa.table(
            {
                "sig": pa.array(sigs, pa.string()),
                "word": pa.array(words, pa.string()),
            }
        )

    pair_schema = pa.schema(
        [("word_a", pa.string()), ("word_b", pa.string()),
         ("dist", pa.int64())]
    )

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_d = [], [], []
        for _, words in df.groupby("sig")["word"]:
            ws = sorted(set(words))
            for i in range(len(ws)):
                for j in range(i + 1, len(ws)):
                    dist = _levenshtein_leq(ws[i], ws[j], max_dist)
                    if 1 <= dist <= max_dist:
                        out_a.append(ws[i])
                        out_b.append(ws[j])
                        out_d.append(dist)
        return pd.DataFrame(
            {"word_a": out_a, "word_b": out_b, "dist": out_d}
        )

    pairs = exchange(
        vocab.map_batches(explode_sigs, batch_format="pyarrow"),
        ("sig",), bucket_pairs, pair_schema, batch_format="pandas",
    )
    # same pair reachable through many shared signatures -> dedup;
    # dist is identical on every path so min == the exact distance
    return keyed_combine(
        pairs, pair_schema, [("dist", "min")], part_on=("word_a",)
    )


def vocab_alias_clusters(docs_ds, max_dist: int = 2):
    """Alias clustering for KG entity resolution: connected components
    over the ed<=``max_dist`` vocab pair graph, canonical form = the
    lexicographically smallest member. Emits ``(word, canonical)`` for
    every word with at least one edit-neighbor.

    The pair table is VOCAB-sized (never corpus-sized);
    ``graph.component_labels`` labels it (driver union-find by min
    string, or min-STRING label propagation above its edge bound), and
    a node's min-string label IS the canonical pick."""
    import ray

    from autoner_ray.stages.graph import component_labels

    def to_edges(t: pa.Table) -> pa.Table:
        return pa.table({"subj": t["word_a"], "obj": t["word_b"]})

    labels = component_labels(
        vocab_edit_distance_pairs(docs_ds, max_dist).map_batches(
            to_edges, batch_format="pyarrow"
        )
    )
    # the cast types the empty table a neighbor-less vocab gives
    return ray.data.from_arrow(
        labels.rename_columns(["word", "canonical"]).cast(
            pa.schema([("word", pa.string()), ("canonical", pa.string())])
        )
    )


# -- snapshot diff (incremental crawl) --------------------------------------


def snapshot_diff(docs_ds, new_ds):
    """Corpus snapshot diff: classify every doc_id across two corpus
    versions as added / removed / changed / unchanged (by text md5) and
    report counts per status — the incremental-crawl planning pass that
    decides how much of a re-crawl actually needs reprocessing.

    Scale shape: each side streams to (doc_id, md5, side) rows — the
    md5 is the only payload that travels — then ONE exchange on doc_id
    classifies (a doc_id's two rows always co-locate) and the bounded
    tier sums the four status counts on the driver.
    """
    import pandas as pd

    from autoner_ray.stages.combine import exchange, keyed_combine

    def keyed(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            hs = [
                hashlib.md5((t or "").encode()).hexdigest()
                for t in batch["text"].to_pylist()
            ]
            return pa.table(
                {
                    "doc_id": batch["doc_id"],
                    "md5": pa.array(hs, pa.string()),
                    "side": pa.array(
                        np.full(len(batch), side, np.int32)
                    ),
                }
            )
        return fn

    both = docs_ds.map_batches(
        keyed(0), batch_format="pyarrow"
    ).union(new_ds.map_batches(keyed(1), batch_format="pyarrow"))

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id").agg(
            sides=("side", "sum"),
            n=("side", "size"),
            nuniq=("md5", "nunique"),
        )
        status = np.where(
            g["n"] == 2,
            np.where(g["nuniq"] == 1, "unchanged", "changed"),
            np.where(g["sides"] == 0, "removed", "added"),
        )
        vals, counts = np.unique(status, return_counts=True)
        return pd.DataFrame(
            {"status": vals, "n_docs": counts.astype(np.int64)}
        )

    status = pa.schema([("status", pa.string()), ("n_docs", pa.int64())])
    return keyed_combine(
        exchange(both, ("doc_id",), classify, status, batch_format="pandas"),
        # keys: the four statuses classify() can emit
        status, [("n_docs", "sum")], max_keys=4,
    )


def synthetic_snapshot(docs_ds):
    """Deterministic 'next crawl' of the documents corpus (the fixture
    for :func:`snapshot_diff`; mirrored exactly in SQL):
    - doc_id % 15 == 0  -> dropped (dead page)
    - doc_id % 5 == 0   -> text + ' updated' (re-crawled, changed)
    - doc_id % 7 == 0   -> ALSO re-emitted under doc_id + 2^40
                           (new page discovered; the offset sits far
                           above any real doc_id so re-emits can never
                           collide with an existing id — 10^12-doc safe)
    """

    def mutate(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["doc_id"].to_pylist(), np.int64)
        texts = batch["text"].to_pylist()
        out_ids, out_texts = [], []
        for i, t in zip(ids, texts):
            if i % 15 == 0:
                pass  # dead page
            elif i % 5 == 0:
                out_ids.append(int(i))
                out_texts.append((t or "") + " updated")
            else:
                out_ids.append(int(i))
                out_texts.append(t)
            if i % 7 == 0:
                out_ids.append(int(i) + (1 << 40))
                out_texts.append(t)
        return pa.table(
            {
                "doc_id": pa.array(out_ids, pa.int64()),
                "text": pa.array(out_texts, pa.string()),
            }
        )

    return docs_ds.map_batches(mutate, batch_format="pyarrow")


def snapshot_diff_oracle_sql() -> str:
    return """
        WITH new_snap AS (
            SELECT doc_id,
                   CASE WHEN doc_id % 5 = 0 THEN text || ' updated'
                        ELSE text END AS text
            FROM documents WHERE doc_id % 15 <> 0
            UNION ALL
            SELECT doc_id + 1099511627776, text
            FROM documents WHERE doc_id % 7 = 0
        ),
        a AS (SELECT doc_id, md5(text) AS m FROM documents),
        b AS (SELECT doc_id, md5(text) AS m FROM new_snap),
        j AS (
            SELECT COALESCE(a.doc_id, b.doc_id) AS doc_id,
                   a.m AS ma, b.m AS mb
            FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id
        )
        SELECT CASE WHEN ma IS NULL THEN 'added'
                    WHEN mb IS NULL THEN 'removed'
                    WHEN ma = mb THEN 'unchanged'
                    ELSE 'changed' END AS status,
               COUNT(*) AS n_docs
        FROM j GROUP BY 1
    """


def linear_probe_mention(docs_ds, dict_words: list[str] | None = None,
                         scale: int = 1000):
    """Closed-form LINEAR PROBE trained distributed: least-squares fit
    of the mention label (y = 1 iff the doc contains a dictionary word)
    on two surface features (x1 = token count, x2 = total word chars),
    then per-doc scores from the fitted plane. The classic
    sufficient-statistics training shape — map-side integer moment
    partials, one tiny reduce, closed-form solve, broadcast scoring —
    with EVERY step exact integer arithmetic: normal equations solved
    by Cramer's rule in python bigints, scores floor-scaled to milli
    units, so the DuckDB HUGEINT twin matches bit-for-bit.

    Scale shape: pass 1 is a stateless partial-moment map (9 integers
    per batch) + driver sum of B rows; the solve is O(1); pass 2 is a
    stateless scoring map with the 4 determinants broadcast. No
    shuffle anywhere. (The engine's bigints are unbounded; the SQL
    twin's HUGEINT bounds the certifiable scale at ~1e38 moments.)
    """
    if dict_words is None:
        from autoner_ray.dicts import UNIGRAM_DICT

        dict_words = sorted(UNIGRAM_DICT)
    wset = list(dict_words)

    def feats(df) -> "pd.DataFrame":
        import pandas as pd

        words = df["text"].fillna("").str.split(" ")
        ex = pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy().repeat(
                    words.str.len().to_numpy()
                ),
                "word": np.concatenate(words.to_numpy()),
            }
        )
        ex = ex[ex["word"] != ""]
        ex["wlen"] = ex["word"].str.len().astype("int64")
        ex["hit"] = ex["word"].isin(wset).astype("int64")
        g = ex.groupby("doc_id", sort=False)
        agg = g.agg(
            x1=("word", "size"), x2=("wlen", "sum"), y=("hit", "max")
        ).reset_index()
        for c in ("x1", "x2", "y"):
            agg[c] = agg[c].astype("int64")
        return agg

    def moment_partial(df) -> "pd.DataFrame":
        import pandas as pd

        cols = ["s00", "s01", "s02", "s11", "s12", "s22",
                "v0", "v1", "v2"]
        if df.empty:
            return pd.DataFrame(
                {c: pd.Series([], dtype="int64") for c in cols}
            )
        f = feats(df)
        x1 = f["x1"].to_numpy()
        x2 = f["x2"].to_numpy()
        y = f["y"].to_numpy()
        return pd.DataFrame(
            {
                "s00": [len(f)],
                "s01": [int(x1.sum())],
                "s02": [int(x2.sum())],
                "s11": [int((x1 * x1).sum())],
                "s12": [int((x1 * x2).sum())],
                "s22": [int((x2 * x2).sum())],
                "v0": [int(y.sum())],
                "v1": [int((y * x1).sum())],
                "v2": [int((y * x2).sum())],
            }
        )

    tot = (
        docs_ds.map_batches(moment_partial, batch_format="pandas")
        .to_pandas()
        .sum()
    )
    s00, s01, s02 = int(tot["s00"]), int(tot["s01"]), int(tot["s02"])
    s11, s12, s22 = int(tot["s11"]), int(tot["s12"]), int(tot["s22"])
    v0, v1, v2 = int(tot["v0"]), int(tot["v1"]), int(tot["v2"])
    # Cramer over the symmetric normal matrix [[s00 s01 s02],
    # [s01 s11 s12], [s02 s12 s22]] — python bigints, exact
    det = (
        s00 * (s11 * s22 - s12 * s12)
        - s01 * (s01 * s22 - s12 * s02)
        + s02 * (s01 * s12 - s11 * s02)
    )
    det0 = (
        v0 * (s11 * s22 - s12 * s12)
        - s01 * (v1 * s22 - s12 * v2)
        + s02 * (v1 * s12 - s11 * v2)
    )
    det1 = (
        s00 * (v1 * s22 - s12 * v2)
        - v0 * (s01 * s22 - s12 * s02)
        + s02 * (s01 * v2 - v1 * s02)
    )
    det2 = (
        s00 * (s11 * v2 - v1 * s12)
        - s01 * (s01 * v2 - v1 * s02)
        + v0 * (s01 * s12 - s11 * s02)
    )
    assert det > 0, "degenerate feature Gram matrix"

    def score(df) -> "pd.DataFrame":
        import pandas as pd

        cols = ["doc_id", "y", "score_milli"]
        if df.empty:
            return pd.DataFrame(
                {c: pd.Series([], dtype="int64") for c in cols}
            )
        f = feats(df)
        # python-int list: magnitudes exceed int64 (det ~ 1e24)
        sc = [
            (det0 + det1 * int(a) + det2 * int(b)) * scale // det
            for a, b in zip(f["x1"], f["x2"])
        ]
        out = pd.DataFrame(
            {
                "doc_id": f["doc_id"].astype("int64"),
                "y": f["y"],
                "score_milli": pd.Series(sc, dtype="int64"),
            }
        )
        return out[cols]

    return docs_ds.map_batches(score, batch_format="pandas")


def linear_probe_oracle_sql(dict_words: list[str] | None = None,
                            scale: int = 1000) -> str:
    if dict_words is None:
        from autoner_ray.dicts import UNIGRAM_DICT

        dict_words = sorted(UNIGRAM_DICT)
    in_list = ", ".join(f"'{w}'" for w in dict_words)
    return f"""
        WITH tok AS (
            SELECT d.doc_id, t.word
            FROM documents d,
                 UNNEST(string_split(d.text, ' ')) AS t(word)
            WHERE t.word <> ''
        ),
        f AS (
            SELECT doc_id,
                   CAST(COUNT(*) AS HUGEINT) AS x1,
                   CAST(SUM(length(word)) AS HUGEINT) AS x2,
                   CAST(MAX(CASE WHEN word IN ({in_list})
                        THEN 1 ELSE 0 END) AS HUGEINT) AS y
            FROM tok GROUP BY doc_id
        ),
        m AS (
            SELECT CAST(COUNT(*) AS HUGEINT) AS s00,
                   CAST(SUM(x1) AS HUGEINT) AS s01,
                   CAST(SUM(x2) AS HUGEINT) AS s02,
                   CAST(SUM(x1 * x1) AS HUGEINT) AS s11,
                   CAST(SUM(x1 * x2) AS HUGEINT) AS s12,
                   CAST(SUM(x2 * x2) AS HUGEINT) AS s22,
                   CAST(SUM(y) AS HUGEINT) AS v0,
                   CAST(SUM(y * x1) AS HUGEINT) AS v1,
                   CAST(SUM(y * x2) AS HUGEINT) AS v2
            FROM f
        ),
        d AS (
            SELECT
                s00 * (s11 * s22 - s12 * s12)
                - s01 * (s01 * s22 - s12 * s02)
                + s02 * (s01 * s12 - s11 * s02) AS det,
                v0 * (s11 * s22 - s12 * s12)
                - s01 * (v1 * s22 - s12 * v2)
                + s02 * (v1 * s12 - s11 * v2) AS det0,
                s00 * (v1 * s22 - s12 * v2)
                - v0 * (s01 * s22 - s12 * s02)
                + s02 * (s01 * v2 - v1 * s02) AS det1,
                s00 * (s11 * v2 - v1 * s12)
                - s01 * (s01 * v2 - v1 * s02)
                + v0 * (s01 * s12 - s11 * s02) AS det2
            FROM m
        ),
        p AS (
            SELECT f.doc_id, f.y,
                   (d.det0 + d.det1 * f.x1 + d.det2 * f.x2)
                       * {scale} AS num,
                   d.det AS det
            FROM f, d
        )
        SELECT doc_id,
               CAST(y AS BIGINT) AS y,
               CAST((num - (((num % det) + det) % det)) // det
                    AS BIGINT) AS score_milli
        FROM p
    """


def postings_delta_encoding(docs_ds):
    """Delta-encoded postings audit — the storage kernel behind
    inverted-index compaction: per term, the sorted doc-id posting list
    becomes a gap list (first id, then successive differences) and the
    exact LEB128/varint byte cost of those gaps. Output
    (word, df, first_doc, max_gap, varint_bytes): the sizing numbers an
    index shard planner needs, with the gap construction itself pinned
    by the SQL twin's list reconstruction.

    Scale shape: the (word, doc_id) explode pre-dedups per batch, the
    one exchange sorts on the word hash (posting lists co-locate by
    construction), and the per-word gap/varint math is one numpy diff + digitize. Varint
    bytes use exact integer THRESHOLD compares (1 byte under 2^7, 2
    under 2^14, ...), never float log2."""
    import numpy as np
    import pandas as pd

    from autoner_ray.stages.combine import exchange
    from autoner_ray.stages.tokenize import sentence_token_stream

    _th = np.array([1 << 7, 1 << 14, 1 << 21, 1 << 28, 1 << 35],
                   dtype=np.int64)

    def explode(batch: pa.Table) -> pa.Table:
        words, docs = [], []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            for w in set(sentence_token_stream(text or "")):
                words.append(w)
                docs.append(did)
        return pa.table(
            {
                "word": pa.array(words, pa.string()),
                "doc_id": pa.array(docs, pa.int64()),
            }
        )

    def per_word(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for w, g in df.groupby("word", sort=False):
            ids = np.sort(g["doc_id"].to_numpy(np.int64))
            gaps = np.diff(ids, prepend=np.int64(0))
            nbytes = int(
                (np.digitize(gaps, _th, right=False) + 1).sum()
            )
            out.append(
                (w, len(ids), int(ids[0]), int(gaps.max()), nbytes)
            )
        return pd.DataFrame(
            out,
            columns=["word", "df", "first_doc", "max_gap",
                     "varint_bytes"],
        )

    return exchange(
        docs_ds.map_batches(explode, batch_format="pyarrow"), ("word",),
        per_word,
        pa.schema([("word", pa.string()), ("df", pa.int64()),
                   ("first_doc", pa.int64()), ("max_gap", pa.int64()),
                   ("varint_bytes", pa.int64())]),
        batch_format="pandas",
    )


def fair_token_budget(docs_ds, budget_ratio: float = 0.5):
    """Max-min fair (water-filling) token-budget allocation across
    sources — the mixing-schedule solver: given per-source token
    counts and a global budget ``B = floor(total * budget_ratio)``,
    find the fair cap ``t`` so every source gets
    ``min(tokens_s, t)`` and the budget is exactly exhausted; the
    integer remainder goes +1 each to the alphabetically-first uncapped
    sources (fully deterministic). Output per source:
    (source, n_tokens, allocation, capped) — small sources keep
    everything, big sources share the leftovers equally, Σ allocation
    == B exactly.

    Scale shape: per-source token counts ride the keyed combine's
    exchange (source is corpus data, so no key bound holds); the
    water-filling solve is driver arithmetic over that per-source
    table, mirrored step-for-step by the SQL twin (sorted prefix sums +
    threshold window)."""
    import numpy as np

    from autoner_ray.stages.combine import keyed_combine
    from autoner_ray.stages.tokenize import sentence_token_stream

    _t_schema = pa.schema(
        [("source", pa.string()), ("n", pa.int64())]
    )

    def tok_partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        n = [len(sentence_token_stream(s or ""))
             for s in t["text"].to_pylist()]
        g = (
            pd.DataFrame({"source": t["source"].to_pylist(), "n": n})
            .groupby("source", as_index=False)["n"].sum()
        )
        return pa.table(
            {
                "source": pa.array(g["source"], pa.string()),
                "n": pa.array(g["n"].to_numpy(), pa.int64()),
            },
            schema=_t_schema,
        )

    counts = keyed_combine(
        docs_ds.select_columns(["source", "text"]).map_batches(
            tok_partial, batch_format="pyarrow", batch_size=65536
        ),
        _t_schema, [("n", "sum")],
    ).to_pandas().sort_values("source").reset_index(drop=True)
    total = int(counts["n"].sum())
    B = int(total * 1_000_000 * budget_ratio) // 1_000_000
    # water-filling: ascending by size, sources smaller than the cap
    # keep everything; the rest split the remainder equally
    by_size = counts.sort_values(
        ["n", "source"], kind="mergesort"
    ).reset_index(drop=True)
    ns = by_size["n"].to_numpy(np.int64)
    S = len(ns)
    spent = 0
    cap = None
    for i in range(S):
        remaining = S - i
        # if every remaining source got the equal split, would the
        # current (smallest) still be under it? then it keeps all.
        share = (B - spent) // remaining
        if ns[i] <= share:
            spent += int(ns[i])
        else:
            cap = share
            rem = (B - spent) - share * remaining
            break
    alloc = {}
    capped = {}
    if cap is None:
        for src, n in zip(by_size["source"], ns):
            alloc[src] = int(n)
            capped[src] = 0
    else:
        uncapped = by_size.iloc[:i]
        for src, n in zip(uncapped["source"], ns[:i]):
            alloc[src] = int(n)
            capped[src] = 0
        big = sorted(by_size["source"].iloc[i:])
        for j, src in enumerate(big):
            alloc[src] = cap + (1 if j < rem else 0)
            capped[src] = 1
    out = counts
    return pa.table(
        {
            "source": pa.array(out["source"], pa.string()),
            "n_tokens": pa.array(out["n"].to_numpy(), pa.int64()),
            "allocation": pa.array(
                [alloc[s] for s in out["source"]], pa.int64()
            ),
            "capped": pa.array(
                [capped[s] for s in out["source"]], pa.int64()
            ),
        }
    )


def passage_chunks(docs_ds, window: int = 200, stride: int = 150):
    """RAG-style passage chunking with overlap — the retrieval-corpus
    prep step: each doc splits into character windows of ``window``
    chars at ``stride`` offsets (overlap = window - stride), one chunk
    always emitted even for short docs, the last window clipped to the
    doc end. Output one row per chunk: (doc_id, chunk_id, start_char,
    end_char, n_chars) — offsets, not text, so the census is
    value-hash-checkable and the text gather stays a cheap slice at
    embed time.

    Scale shape: stateless vectorized map (pure numpy index
    arithmetic, np.repeat/arange — no per-row Python), no shuffle at
    all; chunk count per doc is 1 + ceil(max(len - window, 0) /
    stride)."""
    import numpy as np

    _schema = pa.schema(
        [("doc_id", pa.int64()), ("chunk_id", pa.int64()),
         ("start_char", pa.int64()), ("end_char", pa.int64()),
         ("n_chars", pa.int64())]
    )

    def chunk_batch(t: pa.Table) -> pa.Table:
        # null-text docs emit nothing (the oracle's length(NULL) ->
        # range(0, NULL) behavior; a NaN length would cast to garbage)
        valid = pc.is_valid(t["text"])
        t = t.filter(valid)
        if len(t) == 0:
            return _schema.empty_table()
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lens = pc.utf8_length(t["text"]).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        n_chunks = np.where(
            lens <= window,
            1,
            (lens - window + stride - 1) // stride + 1,
        ).astype(np.int64)
        doc_rep = np.repeat(ids, n_chunks)
        len_rep = np.repeat(lens, n_chunks)
        # chunk_id: 0..n_chunks-1 within each doc
        total = int(n_chunks.sum())
        cid = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(n_chunks)[:-1]]), n_chunks
        )
        start = cid * stride
        end = np.minimum(start + window, len_rep)
        return pa.table(
            {
                "doc_id": pa.array(doc_rep, pa.int64()),
                "chunk_id": pa.array(cid, pa.int64()),
                "start_char": pa.array(start, pa.int64()),
                "end_char": pa.array(end, pa.int64()),
                "n_chars": pa.array(end - start, pa.int64()),
            },
            schema=_schema,
        )

    return docs_ds.map_batches(chunk_batch, batch_format="pyarrow")


def training_pack_census(docs_ds, budget: int = 512):
    """GPT-style training-sequence packing census — concatenate each
    source's docs in doc_id order into one token stream, cut it into
    fixed ``budget``-token sequences, and report per source how the
    packing lands: (source, n_docs, total_tokens, n_sequences,
    n_docs_split) where ``n_docs_split`` counts docs whose tokens
    straddle a sequence boundary (the attention-mask/document-bleed
    cost of dense packing). Token = ``string_split(text, ' ')``
    element, the corpus convention shared with the SQL twins.

    Scale shape: one exchange on ``source`` (same key as the other
    per-source rollups), per-source vectorized cumsum over
    the doc_id-sorted token counts — rows shuffled are (source,
    doc_id, n) partials, never text."""
    import numpy as np
    import pandas as pd

    from autoner_ray.stages.combine import exchange

    _p_schema = pa.schema(
        [("source", pa.string()), ("doc_id", pa.int64()),
         ("n", pa.int64())]
    )

    def tok_rows(t: pa.Table) -> pa.Table:
        n = [len((s or "").split(" ")) for s in t["text"].to_pylist()]
        return pa.table(
            {
                "source": t["source"],
                "doc_id": t["doc_id"],
                "n": pa.array(n, pa.int64()),
            },
            schema=_p_schema,
        )

    def pack_source(df: pd.DataFrame) -> tuple:
        df = df.sort_values("doc_id", kind="mergesort")
        n = df["n"].to_numpy(np.int64)
        start = np.concatenate([[0], np.cumsum(n)[:-1]])
        end = start + n - 1
        split = ((n > 0) & (start // budget != end // budget)).sum()
        total = int(n.sum())
        return (df["source"].iloc[0], len(df), total,
                (total + budget - 1) // budget, int(split))

    def pack(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            [pack_source(g) for _, g in df.groupby("source")],
            columns=["source", "n_docs", "total_tokens", "n_sequences",
                     "n_docs_split"],
        )

    return exchange(
        docs_ds.map_batches(tok_rows, batch_format="pyarrow"), ("source",),
        pack,
        pa.schema([("source", pa.string()), ("n_docs", pa.int64()),
                   ("total_tokens", pa.int64()), ("n_sequences", pa.int64()),
                   ("n_docs_split", pa.int64())]),
        batch_format="pandas",
    )


def dsir_importance(docs_ds, target_lang: str = "en"):
    """DSIR-style importance weights (Xie et al. 2023, "Data Selection
    for Language Models via Importance Resampling"): score every doc by
    how much more likely its unigrams are under the TARGET domain (here
    the ``lang == target_lang`` slice) than under the whole corpus —
    the weight a curation pass resamples by to steer the mixture
    toward the target. Add-one smoothing over the corpus vocab V:
    per-word micro-nat term ``t(w) = floor(ln(((c_t(w)+1)/(N_t+V)) /
    ((c_c(w)+1)/(N_c+V))) * 1e6 + 0.5)`` (identical float expression
    in the SQL twin — the established LN-twin convention), and the doc
    weight is the INTEGER sum of its tokens' terms — order-independent
    by construction. Output (doc_id, n_tokens, dsir_microweight).
    Token = ``string_split(text, ' ')`` element, the corpus
    convention.

    Scale shape: target and corpus word counts ride one word-keyed
    :func:`combine.keyed_combine` (vocab is corpus-sized, NEVER
    a driver dict); per-doc scoring is a word-keyed cogroup join of
    (word, doc_id, k) occurrence partials against the term table; the
    doc rollup is a doc-keyed combine whose precombine reduces per doc
    per batch. Three exchanges total (word x2, doc), scalars
    N_t/N_c/V are tiny Dataset aggregates.
    """
    import pandas as pd

    from autoner_ray.stages.combine import keyed_combine
    from autoner_ray.stages.joins import cogroup_join

    _w_schema = pa.schema(
        [("word", pa.string()), ("n_c", pa.int64()),
         ("n_t", pa.int64())]
    )

    def word_partials(t: pa.Table) -> pa.Table:
        import collections

        cc: collections.Counter = collections.Counter()
        ct: collections.Counter = collections.Counter()
        for text, lang in zip(t["text"].to_pylist(),
                              t["lang"].to_pylist()):
            words = (text or "").split(" ")
            cc.update(words)
            if lang == target_lang:
                ct.update(words)
        keys = list(cc)
        return pa.table(
            {
                "word": pa.array(keys, pa.string()),
                "n_c": pa.array([cc[k] for k in keys], pa.int64()),
                "n_t": pa.array([ct.get(k, 0) for k in keys],
                                pa.int64()),
            },
            schema=_w_schema,
        )

    counts = keyed_combine(
        docs_ds.map_batches(word_partials, batch_format="pyarrow"),
        _w_schema, [("n_c", "sum"), ("n_t", "sum")],
    ).materialize()
    n_c_total = counts.sum("n_c")
    n_t_total = counts.sum("n_t")
    vocab = counts.count()
    denom_t = float(n_t_total + vocab)
    denom_c = float(n_c_total + vocab)

    _t_schema = pa.schema(
        [("word", pa.string()), ("term", pa.int64())]
    )

    def term_batch(t: pa.Table) -> pa.Table:
        import numpy as np

        ct = t["n_t"].to_numpy(zero_copy_only=False).astype(np.float64)
        cc = t["n_c"].to_numpy(zero_copy_only=False).astype(np.float64)
        ratio = ((ct + 1.0) / denom_t) / ((cc + 1.0) / denom_c)
        term = np.floor(np.log(ratio) * 1_000_000 + 0.5).astype(np.int64)
        return pa.table(
            {"word": t["word"], "term": pa.array(term, pa.int64())},
            schema=_t_schema,
        )

    terms = counts.map_batches(term_batch, batch_format="pyarrow")

    _o_schema = pa.schema(
        [("word", pa.string()), ("doc_id", pa.int64()),
         ("k", pa.int64())]
    )

    def occ_partials(t: pa.Table) -> pa.Table:
        import collections

        w_col, d_col, k_col = [], [], []
        for did, text in zip(t["doc_id"].to_pylist(),
                             t["text"].to_pylist()):
            c = collections.Counter((text or "").split(" "))
            for w, k in c.items():
                w_col.append(w)
                d_col.append(int(did))
                k_col.append(int(k))
        return pa.table(
            {
                "word": pa.array(w_col, pa.string()),
                "doc_id": pa.array(d_col, pa.int64()),
                "k": pa.array(k_col, pa.int64()),
            },
            schema=_o_schema,
        )

    occ = docs_ds.map_batches(occ_partials, batch_format="pyarrow")
    joined = cogroup_join(occ, terms, on=("word",))

    def per_doc_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": t["k"],
                "dsir_microweight": pc.multiply(t["k"], t["term"]),
            }
        )

    return keyed_combine(
        joined.map_batches(per_doc_rows, batch_format="pyarrow"),
        pa.schema([("doc_id", pa.int64()), ("n_tokens", pa.int64()),
                   ("dsir_microweight", pa.int64())]),
        [("n_tokens", "sum"), ("dsir_microweight", "sum")],
    )


def heavy_hitter_words(docs_ds, phi_denom: int = 200, slack: int = 4):
    """Corpus heavy hitters — every word with frequency >= 1/phi_denom
    of all tokens (default 0.5%) with EXACT counts, found WITHOUT a
    corpus-wide word shuffle: the two-pass local-threshold scheme
    (the Misra-Gries guarantee in its batch form).

    Pass 1 (candidates): each batch counts its own words exactly and
    emits only those with ``c_b * slack * phi_denom >= N_b`` (batch
    token count N_b) plus a token-total partial. Pigeonhole: a word
    with global count >= N/phi_denom must clear that bar in at least
    one batch (if it cleared none, summing gives c < N/phi_denom — a
    contradiction for slack >= 1), so the candidate union is a
    guaranteed superset. Candidate volume per batch is bounded by
    slack * phi_denom rows — tiny, whatever the corpus size.

    Pass 2 (verify): candidates broadcast via ``ray.put``; each batch
    counts ONLY candidate words; a keyed combine sums them and the
    exact integer filter ``n * phi_denom >= N`` emits the final
    (word, n) rows — the sketch never leaks into the answer, it only
    prunes the shuffle down to candidate rows.
    """
    import collections

    import ray

    from autoner_ray.stages.combine import keyed_combine

    _c_schema = pa.schema(
        [("word", pa.string()), ("n", pa.int64())]
    )

    def candidates_batch(t: pa.Table) -> pa.Table:
        c: collections.Counter = collections.Counter()
        for text in t["text"].to_pylist():
            c.update((text or "").split(" "))
        n_b = sum(c.values())
        keys = [w for w, k in c.items()
                if k * slack * phi_denom >= n_b]
        out = pa.table(
            {
                "word": pa.array(keys, pa.string()),
                "n": pa.array([0] * len(keys), pa.int64()),
            },
            schema=_c_schema,
        )
        # token-total partial rides the same stream under a reserved key
        return pa.concat_tables([
            out,
            pa.table(
                {
                    "word": pa.array(["\x00__total__"], pa.string()),
                    "n": pa.array([n_b], pa.int64()),
                },
                schema=_c_schema,
            ),
        ])

    # the partitioned tier: each batch bounds its own candidates, but
    # their union grows with the batch count
    partials = keyed_combine(
        docs_ds.map_batches(candidates_batch, batch_format="pyarrow"),
        _c_schema, [("n", "sum")],
    ).to_pandas()
    if len(partials) == 0 or "word" not in partials.columns:
        # empty corpus: Ray's to_pandas drops columns on empty
        # datasets — return the schema'd empty result
        return _c_schema.empty_table()
    total = int(partials.loc[
        partials["word"] == "\x00__total__", "n"
    ].iloc[0])
    cand = sorted(
        w for w in partials["word"] if w != "\x00__total__"
    )
    cand_ref = ray.put(set(cand))

    def verify_batch(t: pa.Table) -> pa.Table:
        want = ray.get(cand_ref)
        c: collections.Counter = collections.Counter()
        for text in t["text"].to_pylist():
            c.update(w for w in (text or "").split(" ") if w in want)
        keys = list(c)
        return pa.table(
            {
                "word": pa.array(keys, pa.string()),
                "n": pa.array([c[k] for k in keys], pa.int64()),
            },
            schema=_c_schema,
        )

    counts = keyed_combine(
        docs_ds.map_batches(verify_batch, batch_format="pyarrow"),
        _c_schema, [("n", "sum")],
    )

    def finish(t: pa.Table) -> pa.Table:
        keep = pc.greater_equal(
            pc.multiply(t["n"], pa.scalar(phi_denom, pa.int64())),
            pa.scalar(total, pa.int64()),
        )
        return pa.table(
            {
                "word": t["word"].filter(keep),
                "n": t["n"].filter(keep),
            },
            schema=_c_schema,
        )

    return counts.map_batches(finish, batch_format="pyarrow")
