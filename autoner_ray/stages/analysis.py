"""Text-analysis stages for training-data pipelines (engine extensions).

All stateless ``map_batches`` kernels over the ``documents`` table:
- token / char stats (SQL-checkable)
- quality scoring: stopword ratio, mean word length (SQL-checkable)
- exact-dedup keying via md5 content hash (SQL-checkable)
- language ID: character-n-gram profile heuristic (deterministic)
- rolling-hash document fingerprint (deterministic)

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


def token_stats_batch(batch: pa.Table) -> pa.Table:
    """doc_id, n_tokens (word tokens), n_chars."""
    texts = batch["text"].to_pylist()
    n_tokens = [len(sentence_token_stream(t or "")) for t in texts]
    n_chars = [len(t or "") for t in texts]
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(n_tokens, pa.int64()),
            "n_chars": pa.array(n_chars, pa.int64()),
        }
    )


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


def seeded_sample(docs_ds, rate: float = 0.25, seed: int = 19910724):
    """Deterministic Bernoulli sample by content-key hash (reference O3,
    train_partial_ner.py --sample_ratio, re-expressed scale-first).

    Unlike ``Dataset.random_sample`` the decision is a pure function of
    (doc_id, seed): reproducible across runs, cluster sizes and block
    layouts, and a resumed job re-selects the identical subset — the
    property a 100-TB curation pass actually needs. md5 keeps the oracle
    expressible in DuckDB (same hash on both sides).
    """
    threshold = int(rate * (1 << 32))

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        mask = [
            int(
                hashlib.md5(f"{i}:{seed}".encode()).hexdigest()[:8], 16
            ) < threshold
            for i in ids
        ]
        return batch.filter(pa.array(mask, pa.bool_()))

    return docs_ds.map_batches(keep, batch_format="pyarrow")


def seeded_sample_oracle_sql(rate: float = 0.25, seed: int = 19910724) -> str:
    threshold = int(rate * (1 << 32))
    return f"""
        SELECT doc_id, text FROM documents
        WHERE CAST(('0x' || substring(
                  md5(CAST(doc_id AS VARCHAR) || ':{seed}'), 1, 8))
              AS UBIGINT) < {threshold}
    """


# -- rolling-hash fingerprint ------------------------------------------------

_B = 1_000_003
_MOD = (1 << 61) - 1


def rolling_fingerprint(text: str, window: int = 8) -> str:
    """Deterministic doc fingerprint: min of rolling polynomial hashes over
    ``window``-token shingles (a winnowing-style sketch; whole-doc hash when
    shorter than the window)."""
    from autoner_ray.functions.hashing import md5_64

    toks = sentence_token_stream(text)
    if not toks:
        return "0" * 16
    hs = [md5_64(t) for t in toks]
    if len(hs) < window:
        acc = 0
        for h in hs:
            acc = (acc * _B + h) % _MOD
        return f"{acc:016x}"
    best = None
    acc = 0
    pw = pow(_B, window - 1, _MOD)
    for i, h in enumerate(hs):
        if i < window:
            acc = (acc * _B + h) % _MOD
            if i == window - 1 and (best is None or acc < best):
                best = acc
        else:
            acc = ((acc - hs[i - window] * pw) * _B + h) % _MOD
            if acc < best:
                best = acc
    return f"{best:016x}"


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    fps = [rolling_fingerprint(t or "") for t in batch["text"].to_pylist()]
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "fingerprint": pa.array(fps, pa.string()),
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


def tfidf_top_terms(docs_ds, k: int = 3):
    """Per-doc top-k TF-IDF terms (ties: lexicographic smallest word).

    Fully distributed — the corpus VOCABULARY never lands on the driver
    (a web corpus's term set grows with the corpus, so a df-dict
    broadcast is unbounded):
    (1) explode each doc to DISTINCT (doc_id, word, cnt, n_toks) rows;
    (2) doc frequency = groupby(word) row count over the exploded rows
        (one row per doc per word);
    (3) cogroup_join df back to the exploded rows on word — one hash
        shuffle, df stays sharded by word;
    (4) per-doc top-k: hash-partition by doc_id, vectorized pandas
        rank inside each partition group.
    tf = cnt/n_toks; idf = ln(N/df); score rounded to 6 dp (same
    expression tree as the DuckDB oracle). The explode plan executes
    twice (df branch + join input) — recompute is the streaming-friendly
    choice vs pinning the exploded corpus in the object store.
    """
    import math

    import numpy as np
    from ray.data.aggregate import Sum

    from autoner_ray.cluster import default_num_partitions
    from autoner_ray.stages.joins import cogroup_join
    from autoner_ray.stages.tokenize import sentence_token_stream

    n_docs = docs_ds.count()
    P = default_num_partitions()

    def explode(batch: pa.Table) -> pa.Table:
        from collections import Counter

        doc_ids, words, cnts, ntoks = [], [], [], []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            toks = sentence_token_stream(text or "")
            if not toks:
                continue
            n = len(toks)
            for w, c in Counter(toks).items():
                doc_ids.append(did)
                words.append(w)
                cnts.append(c)
                ntoks.append(n)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "word": pa.array(words, pa.string()),
                "cnt": pa.array(cnts, pa.int64()),
                "n_toks": pa.array(ntoks, pa.int64()),
            }
        )

    terms = docs_ds.map_batches(explode, batch_format="pyarrow")

    def df_partial(batch: pa.Table) -> pa.Table:
        # per-batch combine: rows are (doc, DISTINCT word), so a word's
        # in-batch row count is a valid df partial — the shuffle moves
        # ≤ |batch vocab| rows per batch instead of every exploded row
        vc = batch["word"].value_counts()
        return pa.table(
            {
                "word": vc.field("values"),
                "one": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    df_ds = (
        # num_cpus=0.5 keeps this combiner UNFUSED from the expensive
        # explode stage (fused chains bundle to the largest batch_size,
        # capping explode at docs/65536 tasks — stages/combine.py
        # keyed_combine documents the measured effect)
        terms.map_batches(
            df_partial, batch_format="pyarrow", batch_size=65536,
            num_cpus=0.5,
        )
        .groupby("word")
        .aggregate(Sum("one", alias_name="df"))
    )

    joined = cogroup_join(terms, df_ds, on=("word",), num_partitions=P)

    def score(batch: pa.Table) -> pa.Table:
        cnt = batch["cnt"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = batch["n_toks"].to_numpy(zero_copy_only=False).astype(np.float64)
        df = batch["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        # np.round is round-half-even on float64 exactly like the
        # oracle's Python round(x, 6); the driver value-hash pins this
        tfidf = np.round(cnt / n * np.log(n_docs / df), 6)
        part = np.mod(
            batch["doc_id"].to_numpy(zero_copy_only=False), P
        ).astype(np.int32)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "word": batch["word"],
                "tfidf": pa.array(tfidf, pa.float64()),
                "__part": pa.array(part),
            }
        )

    scored = joined.map_batches(score, batch_format="pyarrow")

    def topk_part(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(
            ["doc_id", "tfidf", "word"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        df["rk"] = df.groupby("doc_id").cumcount() + 1
        df = df[df["rk"] <= k]
        return df[["doc_id", "word", "tfidf", "rk"]]

    return scored.groupby("__part").map_groups(
        topk_part, batch_format="pandas"
    )


def inverted_index_stats(docs_ds):
    """Inverted-index summary per term: posting count (docs), total
    occurrences, smallest doc id — the aggregate face of a term->postings
    index (posting LISTS shard by hash(term) at scale; the stats here are
    the SQL-checkable projection)."""
    from ray.data.aggregate import Min, Sum

    from autoner_ray.stages.tokenize import sentence_token_stream

    def explode(batch: pa.Table) -> pa.Table:
        from collections import Counter

        words, docs, counts = [], [], []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            for w, c in Counter(
                sentence_token_stream(text or "")
            ).items():
                words.append(w)
                docs.append(did)
                counts.append(c)
        return pa.table(
            {
                "word": pa.array(words, pa.string()),
                "doc_id": pa.array(docs, pa.int64()),
                "n": pa.array(counts, pa.int64()),
            }
        )

    def index_partial(batch: pa.Table) -> pa.Table:
        # per-batch combine (count/sum/min all re-associate): the
        # shuffle moves ≤ |batch vocab| rows per batch, not every
        # exploded (doc, word) row
        agg = batch.group_by("word").aggregate(
            [("doc_id", "count"), ("n", "sum"), ("doc_id", "min")]
        )
        return agg.rename_columns(
            ["word", "n_docs", "total_occurrences", "first_doc"]
        )

    return (
        docs_ds.map_batches(explode, batch_format="pyarrow")
        # num_cpus=0.5: unfused from explode (see tfidf_top_terms note)
        .map_batches(index_partial, batch_format="pyarrow",
                     batch_size=65536, num_cpus=0.5)
        .groupby("word")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("total_occurrences", alias_name="total_occurrences"),
            Min("first_doc", alias_name="first_doc"),
        )
    )


def bm25_topk(docs_ds, terms, k: int = 10, k1: float = 1.2, b: float = 0.75):
    """BM25 top-k docs for a fixed term list (classic Robertson idf).

    Distributed shape: (1) one aggregate pass for N, sum(dl) and per-term
    doc frequencies (per-batch partials -> tiny merge); (2) broadcast the
    (terms-sized) stats and score every batch locally; (3) partial top-k
    per batch, tiny final merge. Float discipline for the DuckDB twin:
    dl and tf are integers, avgdl = sum(dl)/N is one exact division, and
    the per-term contributions are added in sorted-term order — the same
    IEEE expression tree as the oracle, so scores match to the bit before
    the 6-dp round.
    """
    import heapq
    import math

    from ray.data.aggregate import Sum

    from autoner_ray.stages.tokenize import sentence_token_stream

    terms = sorted(terms)

    def stat_partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        n, dl_sum = 0, 0
        df: Counter[str] = Counter()
        for text in batch["text"].to_pylist():
            toks = sentence_token_stream(text or "")
            n += 1
            dl_sum += len(toks)
            seen = set(toks)
            for t in terms:
                if t in seen:
                    df[t] += 1
        cols = {"n": [n], "dl_sum": [dl_sum]}
        for t in terms:
            cols[f"df_{t}"] = [df[t]]
        return pa.table({c: pa.array(v, pa.int64()) for c, v in cols.items()})

    stats = (
        docs_ds.map_batches(stat_partial, batch_format="pyarrow")
        .sum(["n", "dl_sum"] + [f"df_{t}" for t in terms])
    )
    n_docs = stats["sum(n)"]
    avgdl = stats["sum(dl_sum)"] / n_docs  # ints -> one exact division
    idf = {
        t: math.log(
            (n_docs - stats[f"sum(df_{t})"] + 0.5)
            / (stats[f"sum(df_{t})"] + 0.5)
            + 1.0
        )
        for t in terms
    }

    import ray

    cfg = ray.put((terms, idf, avgdl, k1, b))

    class Scorer:
        def __init__(self) -> None:
            self.terms, self.idf, self.avgdl, self.k1, self.b = ray.get(cfg)

        def __call__(self, batch: pa.Table) -> pa.Table:
            from collections import Counter

            rows = []
            for did, text in zip(
                batch["doc_id"].to_pylist(), batch["text"].to_pylist()
            ):
                toks = sentence_token_stream(text or "")
                if not toks:
                    continue
                tf = Counter(toks)
                dl = len(toks)
                score = 0.0
                for t in self.terms:  # fixed order == oracle's (+ chain)
                    f = tf.get(t, 0)
                    if f:
                        score += self.idf[t] * (
                            f * (self.k1 + 1.0)
                        ) / (
                            f
                            + self.k1
                            * (1.0 - self.b + self.b * dl / self.avgdl)
                        )
                if score > 0.0:
                    rows.append((round(score, 6), did))
            rows = sorted(rows, key=lambda r: (-r[0], r[1]))[:k]
            return pa.table(
                {
                    "doc_id": pa.array([d for _, d in rows], pa.int64()),
                    "score": pa.array([s for s, _ in rows], pa.float64()),
                }
            )

    partials = docs_ds.map_batches(
        Scorer, batch_format="pyarrow", concurrency=2
    )
    heap: list[tuple[float, int]] = []
    for bt in partials.iter_batches(batch_size=4096, batch_format="pyarrow"):
        for did, s in zip(bt["doc_id"].to_pylist(), bt["score"].to_pylist()):
            heapq.heappush(heap, (s, -did))
            if len(heap) > k:
                heapq.heappop(heap)
    top = sorted(heap, key=lambda t: (-t[0], -t[1]))
    return pa.table(
        {
            "doc_id": pa.array([-d for _, d in top], pa.int64()),
            "score": pa.array([s for s, _ in top], pa.float64()),
        }
    )


# -- BPE-ish token counting ----------------------------------------------------

# GPT-2-style pretokenizer, alternation-only so the SAME pattern runs
# under Python `regex` (engine) and RE2 (DuckDB oracle): contractions,
# space-prefixed letter runs, digit runs, punctuation runs, whitespace.
BPE_PATTERN = (
    r"'s|'t|'re|'ve|'m|'ll|'d"
    r"| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+"
)
_BPE_RE = None


def bpe_token_counts_batch(batch: pa.Table) -> pa.Table:
    """doc_id, n_bpe_tokens (pretokenizer matches), n_ws_tokens
    (non-empty whitespace-split tokens) — the two token budgets an LLM
    data pipeline tracks. Pattern compiled once per worker process."""
    global _BPE_RE
    if _BPE_RE is None:
        import regex

        _BPE_RE = regex.compile(BPE_PATTERN)
    texts = batch["text"].to_pylist()
    n_bpe = [len(_BPE_RE.findall(t or "")) for t in texts]
    n_ws = [len((t or "").split()) for t in texts]
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_bpe_tokens": pa.array(n_bpe, pa.int64()),
            "n_ws_tokens": pa.array(n_ws, pa.int64()),
        }
    )


DEFAULT_STRATA_RATES = {"en": 0.5, "de": 0.25, "es": 0.25, "fr": 0.25,
                        "zh": 0.1}


def stratified_sample(docs_ds, rates: dict[str, float] | None = None,
                      default_rate: float = 0.0, seed: int = 19910724):
    """Per-language deterministic Bernoulli sample — the curation move
    that rebalances a web corpus's language mix (e.g. downsample the en
    head, keep the tail). Same content-hash contract as
    :func:`seeded_sample`: keep iff md5(doc_id:seed) < rate(lang)·2³²,
    a pure function of (doc_id, lang, seed) — reproducible across runs,
    cluster sizes and resumes; languages missing from ``rates`` use
    ``default_rate``."""
    if rates is None:
        rates = DEFAULT_STRATA_RATES
    thresholds = {
        lang: int(rate * (1 << 32)) for lang, rate in rates.items()
    }
    default_threshold = int(default_rate * (1 << 32))

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        langs = batch["lang"].to_pylist()
        mask = [
            int(
                hashlib.md5(f"{i}:{seed}".encode()).hexdigest()[:8], 16
            ) < thresholds.get(lang, default_threshold)
            for i, lang in zip(ids, langs)
        ]
        return batch.filter(pa.array(mask, pa.bool_()))

    return docs_ds.map_batches(keep, batch_format="pyarrow")


def stratified_sample_oracle_sql(rates: dict[str, float] | None = None,
                                 default_rate: float = 0.0,
                                 seed: int = 19910724) -> str:
    if rates is None:
        rates = DEFAULT_STRATA_RATES
    cases = "\n".join(
        f"WHEN '{lang}' THEN {int(rate * (1 << 32))}"
        for lang, rate in sorted(rates.items())
    )
    return f"""
        SELECT doc_id, lang, text FROM documents
        WHERE CAST(('0x' || substring(
                  md5(CAST(doc_id AS VARCHAR) || ':{seed}'), 1, 8))
              AS UBIGINT)
              < CASE lang {cases}
                ELSE {int(default_rate * (1 << 32))} END
    """


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


def source_stats(docs_ds):
    """Per-source (domain-like) corpus profile: doc count, total chars,
    smallest doc id. The web-curation "which hosts dominate my crawl"
    probe. Source cardinality is bounded (hosts ≪ docs), so the tail is
    the shuffle-free bounded-key combine over per-batch arrow hash
    partials — the documents stream itself never sort-shuffles."""
    from autoner_ray.stages.combine import bounded_key_sum

    def partial(t: pa.Table) -> pa.Table:
        agg = (
            t.select(["source", "n_chars", "doc_id"])
            .group_by("source")
            .aggregate([("doc_id", "count"), ("n_chars", "sum")])
        )
        return agg.rename_columns(["source", "n_docs", "total_chars"])

    return bounded_key_sum(
        docs_ds.map_batches(partial, batch_format="pyarrow",
                            batch_size=65536),
        ["source"], ["n_docs", "total_chars"],
    )


def length_histogram(docs_ds, bucket: int = 100):
    """Doc-length histogram: floor(n_chars / bucket) -> doc count. The
    curation length-profile probe; bucket count is bounded by the max
    doc length, so the tail is the shuffle-free bounded-key combine."""
    from autoner_ray.stages.combine import bounded_key_sum

    def partial(t: pa.Table) -> pa.Table:
        b = pc.cast(
            pc.floor(
                pc.divide(
                    pc.cast(t["n_chars"], pa.float64()), float(bucket)
                )
            ),
            pa.int64(),
        )
        vc = b.value_counts() if not isinstance(b, pa.ChunkedArray) \
            else b.combine_chunks().value_counts()
        return pa.table(
            {
                "bucket": vc.field("values"),
                "n_docs": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    return bounded_key_sum(
        docs_ds.map_batches(partial, batch_format="pyarrow",
                            batch_size=65536),
        ["bucket"], ["n_docs"],
    )


def temperature_sample(docs_ds, tau: float = 0.7, seed: int = 19910724):
    """Temperature-based language rebalancing (the multilingual-mixing
    pass of LLM data pipelines: keep-rate ∝ (n_lang/N)^(τ-1), scaled so
    the rarest language keeps everything — τ<1 downsamples the head
    toward the tail, τ=1 keeps all).

    Two passes, both scale-clean: (1) per-language counts via the
    shuffle-free bounded-key combine (|langs| is bounded); (2) the same
    deterministic md5(doc_id:seed) Bernoulli filter as
    :func:`stratified_sample`, thresholds broadcast in the closure.
    Keep-set is a pure function of (corpus lang histogram, doc_id, seed)
    — reproducible across runs, widths and resumes. The DuckDB twin
    recomputes the same thresholds in SQL; both sides use float64
    ``pow``, and a boundary flip would need the two pows to differ by
    ~2⁻³² relative — not observed at either oracle scale.
    """
    import math

    from autoner_ray.stages.combine import bounded_key_sum

    def lang_partial(t: pa.Table) -> pa.Table:
        vc = t["lang"].value_counts()
        return pa.table(
            {
                "lang": vc.field("values"),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    counts = bounded_key_sum(
        docs_ds.select_columns(["lang"]).map_batches(
            lang_partial, batch_format="pyarrow", batch_size=65536
        ),
        ["lang"], ["n"],
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
    num_partitions: int | None = None,
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
      model (distinct-vocab count V; groupby(w1, w2) over per-batch
      bigram-count partials), c1 folds locally from the collected
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

    from ray.data.aggregate import Sum

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
        return pa.table({"word": pa.array(sorted(out), pa.string())})

    # V: distinct tokens over ALL positions (shuffle of per-batch
    # distinct partials; the count is the only thing the driver holds)
    vocab_size = (
        docs_ds.map_batches(distinct_words, batch_format="pyarrow")
        .groupby("word")
        .count()
        .count()
    )

    def c2_partial(batch: pa.Table) -> pa.Table:
        agg = batch.group_by(["w1", "w2"]).aggregate([("occ", "sum")])
        return agg.rename_columns(["w1", "w2", "c2"])

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
    bigrams = (
        exploded
        .map_batches(
            c2_partial, batch_format="pyarrow", batch_size=65536,
            num_cpus=0.5,  # fusion break: keep explode at its own width
        )
        .groupby(["w1", "w2"])
        .aggregate(Sum("c2", alias_name="c2"))
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

    def c1_partial(batch: pa.Table) -> pa.Table:
        agg = batch.group_by("w1").aggregate([("c2", "sum")])
        return agg.rename_columns(["w1", "c1"])

    contexts = (
        bigrams.map_batches(c1_partial, batch_format="pyarrow")
        .groupby("w1")
        .aggregate(Sum("c1", alias_name="c1"))
    )

    model = cogroup_join(
        bigrams, contexts, on=("w1",), num_partitions=num_partitions
    )

    doc_bigrams = exploded
    scored = cogroup_join(
        doc_bigrams, model, on=("w1", "w2"), num_partitions=num_partitions
    )

    def score(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_bigrams": pa.array([], pa.int64()),
                    "nll_micro": pa.array([], pa.int64()),
                }
            )
        c1 = batch["c1"].to_numpy().astype(np.float64)
        c2 = batch["c2"].to_numpy().astype(np.float64)
        occ = batch["occ"].to_numpy()
        nll = np.floor(
            np.log((c1 + float(vocab_size)) / (c2 + 1.0)) * 1e6 + 0.5
        ).astype(np.int64)
        part = pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_bigrams": pa.array(occ, pa.int64()),
                "nll_micro": pa.array(occ * nll, pa.int64()),
            }
        )
        agg = part.group_by("doc_id").aggregate(
            [("n_bigrams", "sum"), ("nll_micro", "sum")]
        )
        return agg.rename_columns(["doc_id", "n_bigrams", "nll_micro"])

    return (
        scored.map_batches(score, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(
            Sum("n_bigrams", alias_name="n_bigrams"),
            Sum("nll_micro", alias_name="nll_micro"),
        )
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


def source_lang_rollup(docs_ds):
    """Hierarchical corpus profile: doc count + char volume by
    (source, lang) with ROLLUP subtotal rows — per-source totals (lang
    NULL) and the grand total (both NULL), the standard GROUPING SETS
    shape a curation dashboard reads.

    Scale shape: the (source, lang) key set is bounded (site × language
    taxonomy, not corpus-sized), so the finest level reduces via the
    shuffle-free two-level ``bounded_key_sum``; every coarser rollup
    level is derivable from that small table, computed in one final
    single-block kernel instead of re-scanning the corpus once per
    level (what a naive UNION of GROUP BYs would do).
    """
    from autoner_ray.stages.combine import bounded_key_sum

    def partial(t: pa.Table) -> pa.Table:
        agg = (
            t.select(["source", "lang", "n_chars"])
            .group_by(["source", "lang"])
            .aggregate([("n_chars", "sum"), ("n_chars", "count")])
        )
        return agg.rename_columns(
            ["source", "lang", "total_chars", "n_docs"]
        )

    fine = bounded_key_sum(
        docs_ds.map_batches(partial, batch_format="pyarrow"),
        ["source", "lang"],
        ["total_chars", "n_docs"],
    )

    def rollup(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = t.to_pandas()
        per_source = (
            df.groupby("source", as_index=False)[["total_chars", "n_docs"]]
            .sum()
        )
        per_source["lang"] = None
        grand = pd.DataFrame(
            {
                "source": [None],
                "lang": [None],
                "total_chars": [df["total_chars"].sum()],
                "n_docs": [df["n_docs"].sum()],
            }
        )
        out = pd.concat([df, per_source, grand], ignore_index=True)
        return pa.table(
            {
                "source": pa.array(out["source"], pa.string()),
                "lang": pa.array(out["lang"], pa.string()),
                "total_chars": pa.array(
                    out["total_chars"].astype("int64"), pa.int64()
                ),
                "n_docs": pa.array(out["n_docs"].astype("int64"), pa.int64()),
            }
        )

    return fine.repartition(1).map_batches(
        rollup, batch_format="pyarrow", batch_size=None
    )


def source_lang_rollup_oracle_sql() -> str:
    return """
        SELECT source, lang,
               SUM(n_chars) AS total_chars,
               COUNT(*) AS n_docs
        FROM documents
        GROUP BY ROLLUP(source, lang)
    """


def source_lang_cube(docs_ds):
    """Full CUBE(source, lang) profile: all four grouping sets —
    (source, lang), per-source, per-lang, grand total — with NULL
    markers on the rolled-up axes (GROUP BY CUBE semantics).

    Same scale shape as :func:`source_lang_rollup`: ONE corpus pass
    into the bounded (source, lang) combine; every coarser grouping
    set is derived from that tiny table in a single-block kernel —
    a naive UNION of four GROUP BYs would scan the corpus four times
    and shuffle each one.
    """
    from autoner_ray.stages.combine import bounded_key_sum

    def partial(t: pa.Table) -> pa.Table:
        agg = (
            t.select(["source", "lang", "n_chars"])
            .group_by(["source", "lang"])
            .aggregate([("n_chars", "sum"), ("n_chars", "count")])
        )
        return agg.rename_columns(
            ["source", "lang", "total_chars", "n_docs"]
        )

    fine = bounded_key_sum(
        docs_ds.map_batches(partial, batch_format="pyarrow"),
        ["source", "lang"],
        ["total_chars", "n_docs"],
    )

    def cube(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = t.to_pandas()
        cols = ["total_chars", "n_docs"]
        per_source = df.groupby("source", as_index=False)[cols].sum()
        per_source["lang"] = None
        per_lang = df.groupby("lang", as_index=False)[cols].sum()
        per_lang["source"] = None
        grand = pd.DataFrame(
            {
                "source": [None],
                "lang": [None],
                "total_chars": [df["total_chars"].sum()],
                "n_docs": [df["n_docs"].sum()],
            }
        )
        out = pd.concat([df, per_source, per_lang, grand],
                        ignore_index=True)
        return pa.table(
            {
                "source": pa.array(out["source"], pa.string()),
                "lang": pa.array(out["lang"], pa.string()),
                "total_chars": pa.array(
                    out["total_chars"].astype("int64"), pa.int64()
                ),
                "n_docs": pa.array(
                    out["n_docs"].astype("int64"), pa.int64()
                ),
            }
        )

    return fine.repartition(1).map_batches(
        cube, batch_format="pyarrow", batch_size=None
    )


_PIVOT_LANGS = ("de", "en", "es", "fr", "zh")


def source_lang_pivot(docs_ds, langs: tuple[str, ...] = _PIVOT_LANGS):
    """Crosstab: one row per source, one doc-count column per language
    (``n_<lang>``) plus ``n_total`` — the wide layout a mixing
    dashboard plots directly.  The language axis must be a FIXED,
    declared column set (schemas are static in Arrow and in SQL);
    unexpected langs land in ``n_other`` rather than silently dropping.

    Scale shape: same bounded-(source, lang) combine as the rollup —
    per-batch arrow hash partials, shuffle-free two-level sum — then a
    single-block long->wide reshape of the tiny aggregate.
    """
    from autoner_ray.stages.combine import bounded_key_sum

    langs = tuple(langs)

    def partial(t: pa.Table) -> pa.Table:
        agg = (
            t.select(["source", "lang"])
            .group_by(["source", "lang"])
            .aggregate([("lang", "count")])
        )
        return agg.rename_columns(["source", "lang", "n"])

    fine = bounded_key_sum(
        docs_ds.map_batches(partial, batch_format="pyarrow"),
        ["source", "lang"],
        ["n"],
    )

    out_schema = pa.schema(
        [("source", pa.string())]
        + [(f"n_{lg}", pa.int64()) for lg in langs]
        + [("n_other", pa.int64()), ("n_total", pa.int64())]
    )

    def widen(t: pa.Table) -> pa.Table:
        import pandas as pd

        if t.num_columns == 0 or len(t) == 0:
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
        if t.num_columns == 0 or len(t) == 0:
            return empty
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
    from autoner_ray.stages.combine import partitioned_key_sum

    def words_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "word": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        txt = pc.fill_null(t["text"], "").combine_chunks()
        flat = pc.split_pattern(txt, pattern=" ").flatten()
        flat = flat.filter(pc.not_equal(flat, ""))
        agg = (
            pa.table({"word": flat})
            .group_by("word")
            .aggregate([("word", "count")])
        )
        return agg.rename_columns(["word", "n"])

    vocab = partitioned_key_sum(
        docs_ds.map_batches(words_partial, batch_format="pyarrow"),
        ["word"], ["n"],
    )

    def explode_sigs(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "sig": pa.array([], pa.string()),
                    "word": pa.array([], pa.string()),
                }
            )
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

    def bucket_pairs(df) -> "pd.DataFrame":
        import pandas as pd

        empty = pd.DataFrame(
            {
                "word_a": pd.Series(dtype="object"),
                "word_b": pd.Series(dtype="object"),
                "dist": pd.Series(dtype="int64"),
            }
        )
        if len(df) == 0 or "word" not in df.columns:
            return empty
        ws = sorted(set(df["word"]))
        out_a, out_b, out_d = [], [], []
        for i in range(len(ws)):
            for j in range(i + 1, len(ws)):
                dist = _levenshtein_leq(ws[i], ws[j], max_dist)
                if 1 <= dist <= max_dist:
                    out_a.append(ws[i])
                    out_b.append(ws[j])
                    out_d.append(dist)
        if not out_a:
            return empty
        return pd.DataFrame(
            {"word_a": out_a, "word_b": out_b, "dist": out_d}
        )

    pairs = (
        vocab.map_batches(explode_sigs, batch_format="pyarrow")
        .groupby("sig")
        .map_groups(bucket_pairs, batch_format="pandas")
    )
    # same pair reachable through many shared signatures -> dedup;
    # dist is identical on every path so min == the exact distance
    dedup = pairs.groupby(["word_a", "word_b"]).min("dist")

    def finish(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "word_a": pa.array([], pa.string()),
                    "word_b": pa.array([], pa.string()),
                    "dist": pa.array([], pa.int64()),
                }
            )
        return t.rename_columns(["word_a", "word_b", "dist"])

    return dedup.map_batches(finish, batch_format="pyarrow")


def _source_word_counts(docs_ds):
    """(source, word) -> count over the corpus: vectorized per-batch
    arrow partials, word-partitioned combine — one row per key spread
    across blocks (vocab never in a single block or on the driver)."""
    from autoner_ray.stages.combine import partitioned_key_sum

    def word_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "word": pa.array([], pa.string()),
                    "c": pa.array([], pa.int64()),
                }
            )
        txt = pc.fill_null(t["text"], "").combine_chunks()
        words = pc.split_pattern(txt, pattern=" ")
        n_per = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        src = pa.array(
            np.repeat(t["source"].to_numpy(zero_copy_only=False), n_per)
        )
        flat = words.flatten()
        keep = pc.not_equal(flat, "")
        agg = (
            pa.table({"source": src.filter(keep), "word": flat.filter(keep)})
            .group_by(["source", "word"])
            .aggregate([("word", "count")])
        )
        return agg.rename_columns(["source", "word", "c"])

    return partitioned_key_sum(
        docs_ds.map_batches(word_partial, batch_format="pyarrow"),
        ["source", "word"], ["c"], part_on=("word",),
    )


def source_lang_chi2(docs_ds):
    """Chi-square independence cells for the (source, lang) crosstab:
    observed count, expected count under independence, and the chi2
    contribution per cell — the drift/association test a curation
    dashboard runs on its mixing table.

    One bounded combine; expected = row_total * col_total / N and the
    contribution are derived inside the single final block from exact
    int64 counts, converting to float64 in the same operation order as
    the SQL window twin (6-dp round on both)."""
    from autoner_ray.stages.combine import bounded_key_sum

    def partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "lang": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        agg = (
            t.select(["source", "lang"])
            .group_by(["source", "lang"])
            .aggregate([("lang", "count")])
        )
        return agg.rename_columns(["source", "lang", "n"])

    fine = bounded_key_sum(
        docs_ds.map_batches(partial, batch_format="pyarrow"),
        ["source", "lang"], ["n"],
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "lang": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "expected": pa.array([], pa.float64()),
                    "contrib": pa.array([], pa.float64()),
                }
            )
        src = t["source"].to_pylist()
        lng = t["lang"].to_pylist()
        ns = t["n"].to_pylist()
        total = sum(ns)
        row_tot: dict[str, int] = {}
        col_tot: dict[str, int] = {}
        for s, lg, n in zip(src, lng, ns):
            row_tot[s] = row_tot.get(s, 0) + n
            col_tot[lg] = col_tot.get(lg, 0) + n
        exp, contrib = [], []
        for s, lg, n in zip(src, lng, ns):
            e = float(row_tot[s] * col_tot[lg]) / float(total)
            d = float(n) - e
            exp.append(round(e, 6))
            contrib.append(round(d * d / e, 6))
        return pa.table(
            {
                "source": t["source"],
                "lang": t["lang"],
                "n": t["n"],
                "expected": pa.array(exp, pa.float64()),
                "contrib": pa.array(contrib, pa.float64()),
            }
        )

    return fine.map_batches(finish, batch_format="pyarrow")


def source_share(docs_ds):
    """RATIO_TO_REPORT window: per-source doc count and its share of
    the corpus total, 6-dp. One bounded combine; the share divides the
    exact int64 counts inside the single final block (the grand total
    is derivable there — no second pass, no window shuffle)."""
    from autoner_ray.stages.combine import bounded_key_sum

    def partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "n_docs": pa.array([], pa.int64()),
                }
            )
        agg = t.group_by("source").aggregate([("source", "count")])
        return agg.rename_columns(["source", "n_docs"])

    counts = bounded_key_sum(
        docs_ds.map_batches(partial, batch_format="pyarrow"),
        ["source"], ["n_docs"],
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "n_docs": pa.array([], pa.int64()),
                    "share": pa.array([], pa.float64()),
                }
            )
        ns = t["n_docs"].to_pylist()
        total = sum(ns)
        share = [round(float(n) / float(total), 6) for n in ns]
        return t.append_column("share", pa.array(share, pa.float64()))

    return counts.map_batches(finish, batch_format="pyarrow")


def top_word_per_source(docs_ds):
    """Per-source MODE: the most frequent word, ties broken by the
    lexicographically smallest word (deterministic at any parallelism).

    Mergeable-argmax shape: global (source, word) counts (word-
    partitioned, so each word's total is complete within one block) ->
    per-block argmax partial per source (<=|sources| rows each) ->
    single-block idempotent re-argmax. The merge kernel is its own
    combiner, so the tiny final step is the same function."""

    counts = _source_word_counts(docs_ds)

    def argmax_partial(df):
        import pandas as pd

        empty = pd.DataFrame(
            {
                "source": pd.Series(dtype="object"),
                "top_word": pd.Series(dtype="object"),
                "n": pd.Series(dtype="int64"),
            }
        )
        if len(df) == 0:
            return empty
        cols = {"c", "word"} if "c" in df.columns else {"n", "top_word"}
        if not cols <= set(df.columns):
            return empty
        cc, ww = ("c", "word") if "c" in df.columns else ("n", "top_word")
        best = (
            df.sort_values([cc, ww], ascending=[False, True],
                           kind="mergesort")
            .groupby("source", as_index=False)
            .first()
        )
        return pd.DataFrame(
            {
                "source": best["source"],
                "top_word": best[ww],
                "n": best[cc].astype("int64"),
            }
        )

    return (
        counts.map_batches(
            argmax_partial, batch_format="pandas", batch_size=None
        )
        .repartition(1)
        .map_batches(argmax_partial, batch_format="pandas",
                     batch_size=None)
    )


def source_word_entropy(docs_ds):
    """Per-source Shannon entropy (nats) of the word distribution — the
    corpus-diversity signal curation dashboards track per site/crawl.

    Scale shape: per-batch (source, word) count partials -> word-
    partitioned (source x vocab) combine (distributed across blocks)
    -> per-block micro-nat partials -> tiny per-source combine. The
    float term c*ln(c) is quantized to integer MICRO-NATS before any
    summation (the ``lm_perplexity`` trick), so the distributed sum is
    order-independent and exactly matches the SQL twin; only the final
    ln(N) derivation touches floats, on identical exact integers both
    sides.
    """
    from autoner_ray.stages.combine import bounded_key_sum

    counts = _source_word_counts(docs_ds)

    def micro_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "v": pa.array([], pa.int64()),
                    "s_micro": pa.array([], pa.int64()),
                }
            )
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        # mirror the SQL term order: ln(c) * c * 1e6 + 0.5, floored
        micro = np.floor(np.log(c) * c * 1e6 + 0.5).astype(np.int64)
        part = pa.table(
            {
                "source": t["source"],
                "n": t["c"],
                "v": pa.array(np.ones(len(t), np.int64)),
                "s_micro": pa.array(micro),
            }
        )
        agg = part.group_by("source").aggregate(
            [("n", "sum"), ("v", "sum"), ("s_micro", "sum")]
        )
        return agg.rename_columns(["source", "n", "v", "s_micro"])

    per_source = bounded_key_sum(
        counts.map_batches(micro_partial, batch_format="pyarrow"),
        ["source"], ["n", "v", "s_micro"],
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "n_words": pa.array([], pa.int64()),
                    "distinct_words": pa.array([], pa.int64()),
                    "entropy": pa.array([], pa.float64()),
                }
            )
        ent = [
            round(math.log(float(n)) - s / 1e6 / float(n), 6)
            for n, s in zip(t["n"].to_pylist(), t["s_micro"].to_pylist())
        ]
        return pa.table(
            {
                "source": t["source"],
                "n_words": t["n"],
                "distinct_words": t["v"],
                "entropy": pa.array(ent, pa.float64()),
            }
        )

    return per_source.map_batches(finish, batch_format="pyarrow")


def source_vocab_jaccard(docs_ds):
    """Source-similarity matrix: exact Jaccard overlap of the DISTINCT
    vocabularies of every source pair — the crawl-redundancy signal
    that decides which sources add new content vs mirror each other.

    Scale shape: per-batch distinct (source, word) partials -> WORD-
    partitioned distinct combine (|sources| x vocab rows spread across
    blocks, same word always co-located) -> per-block local pair counts
    (a word in k sources emits C(k,2) pairs, k <= |sources|) -> bounded
    (a, b) combine. Source count is a bounded taxonomy, so the size
    lookup is a tiny driver dict; zero-overlap pairs are omitted
    (inner-join semantics, matching the SQL twin).
    """
    from autoner_ray.stages.combine import (
        bounded_key_sum,
        partitioned_key_sum,
    )

    def sw_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "word": pa.array([], pa.string()),
                    "one": pa.array([], pa.int64()),
                }
            )
        txt = pc.fill_null(t["text"], "").combine_chunks()
        words = pc.split_pattern(txt, pattern=" ")
        n_per = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        src = pa.array(
            np.repeat(t["source"].to_numpy(zero_copy_only=False), n_per)
        )
        flat = words.flatten()
        keep = pc.not_equal(flat, "")
        agg = (
            pa.table({"source": src.filter(keep), "word": flat.filter(keep)})
            .group_by(["source", "word"])
            .aggregate([])
        )
        return agg.append_column(
            "one", pa.array(np.ones(len(agg), np.int64))
        )

    # "sum of ones" collapses per-batch duplicates into the distinct
    # set; word-partitioned, so every block holds complete word groups
    distinct = partitioned_key_sum(
        docs_ds.map_batches(sw_partial, batch_format="pyarrow"),
        ["source", "word"], ["one"], part_on=("word",),
    )

    def pair_counts(df):
        import pandas as pd

        empty = pd.DataFrame(
            {
                "source_a": pd.Series(dtype="object"),
                "source_b": pd.Series(dtype="object"),
                "intersection": pd.Series(dtype="int64"),
            }
        )
        if len(df) == 0 or "word" not in df.columns:
            return empty
        a_col, b_col = [], []
        for _, grp in df.groupby("word"):
            ss = sorted(grp["source"])
            for i in range(len(ss)):
                for j in range(i + 1, len(ss)):
                    a_col.append(ss[i])
                    b_col.append(ss[j])
        if not a_col:
            return empty
        out = (
            pd.DataFrame({"source_a": a_col, "source_b": b_col})
            .groupby(["source_a", "source_b"], as_index=False)
            .size()
            .rename(columns={"size": "intersection"})
        )
        return out

    inter = bounded_key_sum(
        # batch_size=None: one call per word-partitioned block; any
        # bundling of blocks is safe (pair_counts groups by word itself)
        distinct.map_batches(
            pair_counts, batch_format="pandas", batch_size=None
        ),
        ["source_a", "source_b"], ["intersection"],
    )

    # per-source distinct-vocab sizes: one row per (source, word)
    # globally, so per-batch row COUNTS sum to the distinct size
    def size_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        return (
            t.group_by("source")
            .aggregate([("one", "count")])
            .rename_columns(["source", "n"])
        )

    sizes_t = bounded_key_sum(
        distinct.map_batches(size_partial, batch_format="pyarrow"),
        ["source"], ["n"],
    )
    sizes = {r["source"]: int(r["n"]) for r in sizes_t.take_all()}

    def finish(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "source_a": pa.array([], pa.string()),
                    "source_b": pa.array([], pa.string()),
                    "intersection": pa.array([], pa.int64()),
                    "union_n": pa.array([], pa.int64()),
                    "jaccard": pa.array([], pa.float64()),
                }
            )
        av = t["source_a"].to_pylist()
        bv = t["source_b"].to_pylist()
        iv = t["intersection"].to_pylist()
        un = [sizes[a] + sizes[b] - i for a, b, i in zip(av, bv, iv)]
        jc = [round(float(i) / float(u), 6) for i, u in zip(iv, un)]
        return pa.table(
            {
                "source_a": t["source_a"],
                "source_b": t["source_b"],
                "intersection": t["intersection"],
                "union_n": pa.array(un, pa.int64()),
                "jaccard": pa.array(jc, pa.float64()),
            }
        )

    return inter.map_batches(finish, batch_format="pyarrow")


def vocab_alias_clusters(docs_ds, max_dist: int = 2,
                         driver_uf_max_pairs: int = 2_000_000):
    """Alias clustering for KG entity resolution: connected components
    over the ed<=``max_dist`` vocab pair graph, canonical form = the
    lexicographically smallest member. Emits ``(word, canonical)`` for
    every word with at least one edit-neighbor.

    Tiered like ``neardup_keep_one``: the pair table is VOCAB-sized
    (never corpus-sized), so under ``driver_uf_max_pairs`` edges a
    driver union-find (path halving, union-by-min-string) is cheapest;
    above it, :func:`connected_components_distributed` runs min-STRING
    label propagation with the label table as a Dataset — its per-node
    min over string dtype IS the canonical pick, so no extra join."""
    import ray

    pairs = vocab_edit_distance_pairs(docs_ds, max_dist).materialize()

    out_schema = pa.schema(
        [("word", pa.string()), ("canonical", pa.string())]
    )
    if pairs.count() <= driver_uf_max_pairs:
        pdf = pairs.to_pandas()
        parent: dict[str, str] = {}

        def find(w: str) -> str:
            while parent.setdefault(w, w) != w:
                parent[w] = parent[parent[w]]  # path halving
                w = parent[w]
            return w

        for a, b in zip(pdf["word_a"], pdf["word_b"]):
            ra, rb = find(a), find(b)
            if ra != rb:
                # union by min string: root is the canonical form
                parent[max(ra, rb)] = min(ra, rb)
        words = sorted(parent)
        return ray.data.from_arrow(
            pa.table(
                {
                    "word": pa.array(words, pa.string()),
                    "canonical": pa.array(
                        [find(w) for w in words], pa.string()
                    ),
                },
                schema=out_schema,
            )
        )

    from autoner_ray.stages.graph import connected_components_distributed

    def to_edges(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.schema(
                [("subj", pa.string()), ("obj", pa.string())]
            ).empty_table()
        return pa.table({"subj": t["word_a"], "obj": t["word_b"]})

    labels = connected_components_distributed(
        pairs.map_batches(to_edges, batch_format="pyarrow"),
        as_dataset=True,
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return out_schema.empty_table()
        return t.rename_columns(["word", "canonical"])

    return labels.map_batches(finish, batch_format="pyarrow")


def vocab_degree_distribution(docs_ds, max_dist: int = 2):
    """Degree histogram of the vocab edit-distance graph (how many
    words have k near-spelling variants) — the alias-cluster shape
    profile. Reuses the SymSpell pair miner and the generic
    ``graph.degree_distribution`` combine."""
    import pyarrow as pa

    from autoner_ray.stages.graph import degree_distribution

    def rename(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "subj": pa.array([], pa.string()),
                    "obj": pa.array([], pa.string()),
                }
            )
        return t.select(["word_a", "word_b"]).rename_columns(
            ["subj", "obj"]
        )

    pairs = vocab_edit_distance_pairs(docs_ds, max_dist=max_dist)
    return degree_distribution(
        pairs.map_batches(rename, batch_format="pyarrow")
    )


def source_kl_divergence(docs_ds):
    """Per-source KL divergence (nats) of the source's word distribution
    from the whole-corpus distribution — the distribution-shift signal
    curation uses to spot outlier crawls/sites.

    KL(P_s || P) decomposes as
    ``(1/n_s) * SUM_w c_sw*(ln c_sw - ln c_w) - ln n_s + ln N``,
    so the only cross-source term is the global word count ``c_w``.
    ``_source_word_counts`` word-partitions its output (all sources of
    a word co-located per block), so each block computes its words'
    ``c_w`` locally — no second shuffle or join. The float term is
    quantized to integer MICRO-NATS before any summation (the
    ``source_word_entropy`` trick), making the distributed sum
    order-independent and exactly matched by the SQL twin.
    """
    import math

    from autoner_ray.stages.combine import bounded_key_sum

    counts = _source_word_counts(docs_ds)

    def kl_partial(df):
        import pandas as pd

        if len(df) == 0 or "word" not in df.columns:
            return pd.DataFrame(
                {
                    "source": pd.Series(dtype="string"),
                    "n": pd.Series(dtype="int64"),
                    "m": pd.Series(dtype="int64"),
                }
            )
        c = df["c"].to_numpy(np.float64)
        cw = df.groupby("word")["c"].transform("sum").to_numpy(np.float64)
        # mirror the SQL term order: (ln(c) - ln(cw)) * c * 1e6 + 0.5
        micro = np.floor((np.log(c) - np.log(cw)) * c * 1e6 + 0.5).astype(
            np.int64
        )
        out = pd.DataFrame(
            {"source": df["source"].values, "n": df["c"].values,
             "m": micro}
        )
        return out.groupby("source", as_index=False, sort=False).sum()

    # batch_size=None: one batch per word-partition block, so every
    # word's full (source, c) group is visible for the local c_w
    per_source = bounded_key_sum(
        counts.map_batches(
            kl_partial, batch_format="pandas", batch_size=None
        ),
        ["source"], ["n", "m"],
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "n_words": pa.array([], pa.int64()),
                    "kl_nats": pa.array([], pa.float64()),
                }
            )
        ns = t["n"].to_pylist()
        ms = t["m"].to_pylist()
        big_n = float(sum(ns))
        kl = [
            round(m / 1e6 / n - math.log(n) + math.log(big_n), 6)
            for n, m in zip(ns, ms)
        ]
        return pa.table(
            {
                "source": t["source"],
                "n_words": t["n"],
                "kl_nats": pa.array(kl, pa.float64()),
            }
        )

    return per_source.map_batches(
        finish, batch_format="pyarrow", batch_size=None
    )


def source_dup_stats(docs_ds):
    """Per-source exact-duplicate report: total docs, distinct contents
    (by md5), duplicate count and duplicate parts-per-million — the
    dedup dashboard row a curation pipeline tracks per site/crawl.

    Scale shape: per-batch (source, md5) count partials -> HASH-
    partitioned distinct combine (a source's content-hash set never
    sits in one block; partitioning on the md5 avoids hot-source skew)
    -> per-block source partials -> tiny bounded combine. All-integer
    arithmetic (ppm via integer division), hash-exact vs the SQL twin.
    """
    from autoner_ray.stages.combine import (
        bounded_key_sum,
        partitioned_key_sum,
    )

    def hash_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "h": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        hashes = [
            hashlib.md5((x or "").encode()).hexdigest()
            for x in t["text"].to_pylist()
        ]
        agg = (
            pa.table({"source": t["source"], "h": pa.array(hashes)})
            .group_by(["source", "h"])
            .aggregate([([], "count_all")])
        )
        return agg.rename_columns(["source", "h", "n"])

    uniq = partitioned_key_sum(
        docs_ds.map_batches(hash_partial, batch_format="pyarrow"),
        ["source", "h"], ["n"], part_on=("h",),
    )

    def per_source(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "n_docs": pa.array([], pa.int64()),
                    "n_unique": pa.array([], pa.int64()),
                }
            )
        agg = (
            t.select(["source", "n"])
            .group_by("source")
            .aggregate([("n", "sum"), ([], "count_all")])
        )
        return agg.rename_columns(["source", "n_docs", "n_unique"])

    stats = bounded_key_sum(
        uniq.map_batches(per_source, batch_format="pyarrow"),
        ["source"], ["n_docs", "n_unique"],
    )

    def finish(t: pa.Table) -> pa.Table:
        nd = t["n_docs"].to_numpy(zero_copy_only=False)
        nu = t["n_unique"].to_numpy(zero_copy_only=False)
        dup = nd - nu
        ppm = np.where(nd > 0, dup * 1_000_000 // np.maximum(nd, 1), 0)
        return pa.table(
            {
                "source": t["source"],
                "n_docs": t["n_docs"],
                "n_unique": t["n_unique"],
                "dup_docs": pa.array(dup, pa.int64()),
                "dup_ppm": pa.array(ppm.astype(np.int64), pa.int64()),
            }
        )

    return stats.map_batches(finish, batch_format="pyarrow")


def weighted_sample(docs_ds, k: int = 64):
    """Weight-proportional systematic sample of documents (weight =
    ``n_chars``): ~``k`` docs (k minus one per extra boundary any
    single doc longer than total_chars/k spans — see
    ``ranking.weighted_systematic_select``), each selected with
    probability proportional to its length — the standard PPS design
    for building
    eval/inspection subsets that reflect token mass rather than doc
    count. Deterministic (pure function of the corpus), resume-stable,
    and exactly matched by the window-function SQL twin. Distributed
    via :func:`ranking.weighted_systematic_select` (range-bucketed
    exact prefix sums; nothing corpus-sized on the driver)."""
    from autoner_ray.stages.ranking import weighted_systematic_select

    return weighted_systematic_select(
        docs_ds, key_col="doc_id", weight_col="n_chars", k=k
    )


def weighted_sample_oracle_sql(k: int = 64) -> str:
    return f"""
        WITH t AS (
            SELECT doc_id, n_chars,
                   SUM(n_chars) OVER (
                       ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
                   ) AS cum
            FROM documents
        ), tot AS (SELECT SUM(n_chars) AS w FROM documents)
        SELECT doc_id, n_chars
        FROM t, tot
        WHERE (cum * {k}) // w > ((cum - n_chars) * {k}) // w
    """


def zipf_fit(docs_ds, top_n: int = 1000):
    """Zipf-law fit of the corpus vocabulary: OLS slope of ln(freq) on
    ln(rank) over the ``top_n`` most frequent words (rank order:
    freq desc, word asc). The corpus-health scalar curation tracks —
    natural text sits near -1.

    Determinism: ln(rank)/ln(freq) are quantized to integer
    MILLI-NATS, all OLS moments are exact int64 sums of those (the
    quantization scale cancels in the slope), and only the final
    division touches floats — identical on both sides. milli (not
    micro) keeps ``n*sum(x*y)`` < 2^63 for top_n <= 10^4.

    Scale shape: word counts via the key-distributed combine; top-n by
    per-block partial top-n -> single tiny final block (top_n rows).
    """
    from autoner_ray.stages.combine import partitioned_key_sum

    def word_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "word": pa.array([], pa.string()),
                    "c": pa.array([], pa.int64()),
                }
            )
        txt = pc.fill_null(t["text"], "").combine_chunks()
        flat = pc.split_pattern(txt, pattern=" ").flatten()
        keep = pc.not_equal(flat, "")
        agg = (
            pa.table({"word": flat.filter(keep)})
            .group_by("word")
            .aggregate([([], "count_all")])
        )
        return agg.rename_columns(["word", "c"])

    counts = partitioned_key_sum(
        docs_ds.map_batches(word_partial, batch_format="pyarrow"),
        ["word"], ["c"], part_on=("word",),
    )

    def topn_partial(df):
        import pandas as pd

        if len(df) == 0 or "word" not in df.columns:
            return pd.DataFrame(
                {
                    "word": pd.Series(dtype="string"),
                    "c": pd.Series(dtype="int64"),
                }
            )
        df = df.sort_values(
            ["c", "word"], ascending=[False, True], kind="mergesort"
        )
        return df.head(top_n)

    def fit(df):
        import math

        import pandas as pd

        if len(df) == 0 or "word" not in df.columns:
            return pd.DataFrame(
                {
                    "n_terms": pd.Series(dtype="int64"),
                    "zipf_slope": pd.Series(dtype="float64"),
                }
            )
        df = df.sort_values(
            ["c", "word"], ascending=[False, True], kind="mergesort"
        ).head(top_n)
        rank = np.arange(1, len(df) + 1, dtype=np.float64)
        c = df["c"].to_numpy(np.float64)
        x = np.floor(np.log(rank) * 1000 + 0.5).astype(np.int64)
        y = np.floor(np.log(c) * 1000 + 0.5).astype(np.int64)
        n = len(x)
        sx, sy = int(x.sum()), int(y.sum())
        sxy, sxx = int((x * y).sum()), int((x * x).sum())
        num = n * sxy - sx * sy
        den = n * sxx - sx * sx
        slope = round(float(num) / float(den), 6) if den else 0.0
        return pd.DataFrame(
            {"n_terms": [n], "zipf_slope": [slope]}
        )

    return (
        counts.map_batches(
            topn_partial, batch_format="pandas", batch_size=None
        )
        .repartition(1)
        .map_batches(fit, batch_format="pandas", batch_size=None)
    )


def rare_word_ratio(docs_ds, max_count: int = 2):
    """Per-document RARE-token ratio (ppm of tokens whose corpus
    frequency is <= ``max_count``) — the OOV/noise curation signal
    (high ratio flags gibberish, boilerplate hashes, OCR junk).

    Two passes: (1) corpus word counts via the key-distributed
    combine, filtered to the rare tail and broadcast once via
    ``ray.put`` (the rare SET is vocab-scale — at 10^8+ vocab swap the
    broadcast for a Bloom prefilter + cogroup join, same policy as the
    semi-join op); (2) a streamed vectorized ``is_in`` per doc.
    All-integer output (ppm by integer division), hash-exact."""
    import ray

    from autoner_ray.stages.combine import partitioned_key_sum

    def word_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "word": pa.array([], pa.string()),
                    "c": pa.array([], pa.int64()),
                }
            )
        txt = pc.fill_null(t["text"], "").combine_chunks()
        flat = pc.split_pattern(txt, pattern=" ").flatten()
        keep = pc.not_equal(flat, "")
        agg = (
            pa.table({"word": flat.filter(keep)})
            .group_by("word")
            .aggregate([([], "count_all")])
        )
        return agg.rename_columns(["word", "c"])

    counts = partitioned_key_sum(
        docs_ds.map_batches(word_partial, batch_format="pyarrow"),
        ["word"], ["c"], part_on=("word",),
    )

    def rare_only(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table({"word": pa.array([], pa.string())})
        return t.filter(
            pc.less_equal(t["c"], pa.scalar(max_count))
        ).select(["word"])

    rare_words = pa.concat_tables(
        ray.get(
            counts.map_batches(
                rare_only, batch_format="pyarrow"
            ).to_arrow_refs()
        )
    )["word"].combine_chunks()
    rare_ref = ray.put(rare_words)

    def per_doc(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_words": pa.array([], pa.int64()),
                    "rare_ppm": pa.array([], pa.int64()),
                }
            )
        rare = ray.get(rare_ref)
        txt = pc.fill_null(t["text"], "").combine_chunks()
        words = pc.split_pattern(txt, pattern=" ")
        n_per = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        flat = words.flatten()
        nonempty = pc.not_equal(flat, "")
        is_rare = pc.and_(pc.is_in(flat, value_set=rare), nonempty)
        doc_ix = np.repeat(np.arange(len(t)), n_per)
        n_words = np.bincount(
            doc_ix,
            weights=nonempty.to_numpy(zero_copy_only=False),
            minlength=len(t),
        ).astype(np.int64)
        n_rare = np.bincount(
            doc_ix,
            weights=is_rare.to_numpy(zero_copy_only=False),
            minlength=len(t),
        ).astype(np.int64)
        ppm = np.where(
            n_words > 0, n_rare * 1_000_000 // np.maximum(n_words, 1), 0
        ).astype(np.int64)
        keep = n_words > 0
        return pa.table(
            {
                "doc_id": t["doc_id"].combine_chunks().filter(
                    pa.array(keep)
                ),
                "n_words": pa.array(n_words[keep], pa.int64()),
                "rare_ppm": pa.array(ppm[keep], pa.int64()),
            }
        )

    return docs_ds.map_batches(per_doc, batch_format="pyarrow")


# -- winnowing fingerprint selection ----------------------------------------


def _winnow_positions(grams: np.ndarray, w: int) -> np.ndarray:
    """0-based selected positions: rightmost minimum of every length-``w``
    window over the gram-hash sequence (the winnowing guarantee of
    Schleimer/Wilkerson/Aiken 2003, SIGMOD — one fingerprint per window,
    shared fingerprints align across documents). Single window over all
    grams when fewer than ``w`` exist."""
    n = len(grams)
    if n == 0:
        return np.empty(0, np.int64)
    if n <= w:
        return np.array([n - 1 - int(np.argmin(grams[::-1]))], np.int64)
    from numpy.lib.stride_tricks import sliding_window_view

    win = sliding_window_view(grams, w)
    rightmost = (w - 1) - np.argmin(win[:, ::-1], axis=1)
    return np.unique(np.arange(n - w + 1, dtype=np.int64) + rightmost)


def _poly_gram_hashes(toks: list[str], k: int) -> list[int]:
    """All k-gram rolling polynomial hashes (base ``_B`` mod 2^61-1) over
    md5_64 token hashes; the whole-doc hash as a single entry when the
    doc is shorter than ``k`` tokens. Python-int accumulators because the
    61-bit modmul overflows int64; O(tokens) per doc with the memoized
    md5 cache, same cost class as :func:`rolling_fingerprint`."""
    from autoner_ray.functions.hashing import md5_64

    hs = [md5_64(t) for t in toks]
    n = len(hs)
    if n < k:
        acc = 0
        for h in hs:
            acc = (acc * _B + h) % _MOD
        return [acc]
    out = []
    pw = pow(_B, k - 1, _MOD)
    acc = 0
    for i, h in enumerate(hs):
        if i < k:
            acc = (acc * _B + h) % _MOD
            if i == k - 1:
                out.append(acc)
        else:
            acc = ((acc - hs[i - k] * pw) * _B + h) % _MOD
            out.append(acc)
    return out


def winnowing_fingerprints(docs_ds, k: int = 8, w: int = 4):
    """Winnowed document fingerprints: (doc_id, pos, fp) for every
    k-gram selected by rightmost-min winnowing with window ``w`` — the
    MOSS / The-Stack-style robust fingerprint set that powers
    substring-level near-dup detection (two docs sharing any length-
    ``k+w-1`` token run are guaranteed a common fp).

    Scale shape: a single stateless vectorized map over docs (no
    shuffle at all; ~(tokens/w)·2 fingerprints per doc stream straight
    to the sink); downstream pair-finding is a fp-partitioned
    self-join, the ``ngram_jaccard_exact`` shape. ``pos`` is the
    1-based k-gram start index, so matching fps also align offsets."""

    def fp_batch(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "pos": pa.array([], pa.int64()),
                "fp": pa.array([], pa.string()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        ids: list[int] = []
        poss: list[int] = []
        fps: list[str] = []
        doc_ids = t["doc_id"].to_pylist()
        for doc_id, text in zip(doc_ids, t["text"].to_pylist()):
            grams = _poly_gram_hashes((text or "").split(" "), k)
            arr = np.array(grams, np.uint64)
            for p in _winnow_positions(arr, w):
                ids.append(doc_id)
                poss.append(int(p) + 1)
                fps.append(f"{grams[p]:016x}")
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "pos": pa.array(poss, pa.int64()),
                "fp": pa.array(fps, pa.string()),
            }
        )

    return docs_ds.map_batches(fp_batch, batch_format="pyarrow")


def _winnow_ctes(k: int = 8, w: int = 4) -> str:
    """Shared CTE chain ending in ``fpset(doc_id, pos, whash)`` — the
    pre-hex winnowed fingerprint set; reused by the per-doc oracle and
    the shared-fp near-dup pair oracle."""
    pws = ", ".join(
        f"({e}, {pow(_B, e, _MOD)})" for e in range(k)
    )
    return f"""
        hs AS MATERIALIZED (
            SELECT d.doc_id, g.i AS idx,
                   CAST(('0x' || substring(
                       md5(string_split(d.text, ' ')[g.i]), 1, 16))
                        AS UBIGINT) AS h
            FROM documents d,
                 UNNEST(generate_series(1,
                     len(string_split(d.text, ' ')))) AS g(i)
        ), nn AS MATERIALIZED (
            SELECT doc_id, MAX(idx) AS n FROM hs GROUP BY doc_id
        ), o(e, pw) AS (VALUES {pws}),
        gram AS MATERIALIZED (
            SELECT h1.doc_id, h1.idx,
                   SUM(CAST(h2.h AS HUGEINT) * o.pw) % {_MOD} AS whash
            FROM hs h1
            JOIN hs h2 ON h2.doc_id = h1.doc_id
                      AND h2.idx BETWEEN h1.idx AND h1.idx + {k - 1}
            JOIN o ON o.e = h1.idx + {k - 1} - h2.idx
            JOIN nn ON nn.doc_id = h1.doc_id
            WHERE h1.idx + {k - 1} <= nn.n AND nn.n >= {k}
            GROUP BY h1.doc_id, h1.idx
        ), ng AS (
            SELECT doc_id, COUNT(*) AS g FROM gram GROUP BY doc_id
        ), starts AS (
            SELECT ng.doc_id, s.i AS st
            FROM ng, UNNEST(generate_series(
                1, GREATEST(1, ng.g - {w} + 1))) AS s(i)
        ), winmin AS (
            SELECT st.doc_id, st.st, MIN(gr.whash) AS mn
            FROM starts st JOIN gram gr ON gr.doc_id = st.doc_id
               AND gr.idx BETWEEN st.st AND st.st + {w} - 1
            GROUP BY st.doc_id, st.st
        ), sel AS (
            SELECT wm.doc_id, MAX(gr.idx) AS pos
            FROM winmin wm JOIN gram gr ON gr.doc_id = wm.doc_id
               AND gr.idx BETWEEN wm.st AND wm.st + {w} - 1
               AND gr.whash = wm.mn
            GROUP BY wm.doc_id, wm.st
        ), selected AS (
            SELECT DISTINCT s.doc_id, s.pos, gr.whash
            FROM sel s JOIN gram gr
              ON gr.doc_id = s.doc_id AND gr.idx = s.pos
        ), short_w AS (
            SELECT hs.doc_id, 1 AS pos,
                   SUM(CAST(hs.h AS HUGEINT) * o.pw) % {_MOD} AS whash
            FROM hs JOIN nn ON nn.doc_id = hs.doc_id
            JOIN o ON o.e = nn.n - hs.idx
            WHERE nn.n < {k}
            GROUP BY hs.doc_id
        ), fpset AS MATERIALIZED (
            SELECT * FROM selected UNION ALL SELECT * FROM short_w
        )
    """


def winnowing_oracle_sql(k: int = 8, w: int = 4) -> str:
    return f"""
        WITH {_winnow_ctes(k, w)}
        SELECT doc_id, CAST(pos AS BIGINT) AS pos,
               lower(lpad(to_hex(CAST(whash AS UBIGINT)), 16, '0')) AS fp
        FROM fpset
    """
# -- per-source length outliers (exact integer z-score) ---------------------


def length_outliers(docs_ds, k_num: int = 3, k_den: int = 2):
    """Docs whose length deviates more than (k_num/k_den)·σ from their
    source's mean — the per-domain anomaly cut (truncated pages, pasted
    binaries) a curation pipeline applies before quality scoring.

    EXACT integer semantics (no float flakiness in the driver hash):
    flag iff ``k_den²·(n·len − s)² > k_num²·(n·ssq − s²)`` over int
    moments n, s=Σlen, ssq=Σlen² per source. The vectorized path
    compares against a float sqrt threshold with a ±2 guard band;
    rows inside the band are re-checked with arbitrary-precision
    Python ints, so the result is exact even where (n·len − s)²
    exceeds int64 (10¹²-doc sources).

    Scale shape: pass 1 is a shuffle-free bounded combine of per-source
    moments (sources are a bounded dimension, the ``docs_source_stats``
    assumption); the moment dict broadcasts via ``ray.put`` and pass 2
    is a stateless vectorized filter map.
    """
    import ray

    from autoner_ray.stages.combine import bounded_key_sum

    def moment_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "source": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
                "s": pa.array([], pa.int64()),
                "ssq": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        import pandas as pd

        ln = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame(
            {
                "source": t["source"].to_pylist(),
                "n": 1,
                "s": ln,
                "ssq": ln * ln,
            }
        )
        agg = df.groupby("source", sort=False).sum()
        return pa.table(
            {
                "source": pa.array(agg.index.to_numpy(), pa.string()),
                "n": pa.array(agg["n"].to_numpy(), pa.int64()),
                "s": pa.array(agg["s"].to_numpy(), pa.int64()),
                "ssq": pa.array(agg["ssq"].to_numpy(), pa.int64()),
            }
        )

    moments = bounded_key_sum(
        docs_ds.map_batches(moment_partial, batch_format="pyarrow"),
        ["source"], ["n", "s", "ssq"],
    ).to_pandas()
    # python ints: n*ssq - s*s can pass int64 at 10^12-doc sources
    stats = {
        r.source: (int(r.n), int(r.s), int(r.ssq))
        for r in moments.itertuples()
    }
    stats_ref = ray.put(stats)

    def flag(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "source": pa.array([], pa.string()),
                "n_chars": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        import pandas as pd

        st = ray.get(stats_ref)
        srcs = t["source"].to_pylist()
        ln = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        # per-UNIQUE-source python work only (sources are a bounded
        # dimension); the per-row gather is a numpy fancy-index
        codes, uniques = pd.factorize(np.asarray(srcs, dtype=object))
        n_u = np.array([st[u][0] for u in uniques], np.int64)
        s_u = np.array([st[u][1] for u in uniques], np.int64)
        rhs_u = np.array(
            [
                float(
                    k_num * k_num
                    * (st[u][0] * st[u][2] - st[u][1] * st[u][1])
                )
                for u in uniques
            ],
            np.float64,
        )
        n = n_u[codes]
        s = s_u[codes]
        rhs = rhs_u[codes]
        # d is EXACT in int64 (n·len <= ~9e18 covers 10^12 docs of 10^6
        # chars); only the squaring and the rhs conversion round, so the
        # 4-ulp band below bounds the total comparison error
        d = (n * ln - s).astype(np.float64)
        lhs = (k_den * d) ** 2
        # guard band: float error of the comparison is << 4 ulps; rows
        # within the band get the exact arbitrary-precision check
        band = np.abs(lhs - rhs) <= 4.0 * np.finfo(np.float64).eps * (
            np.abs(lhs) + np.abs(rhs)
        )
        keep = lhs > rhs
        if band.any():
            for i in np.flatnonzero(band):
                nn, ss, ssq = st[srcs[i]]
                di = nn * int(ln[i]) - ss
                keep[i] = (
                    k_den * k_den * di * di
                    > k_num * k_num * (nn * ssq - ss * ss)
                )
        return pa.table(
            {
                "doc_id": t["doc_id"].filter(pa.array(keep)),
                "source": t["source"].filter(pa.array(keep)),
                "n_chars": t["n_chars"].filter(pa.array(keep)),
            }
        )

    return docs_ds.map_batches(flag, batch_format="pyarrow")


def length_outliers_oracle_sql(k_num: int = 3, k_den: int = 2) -> str:
    return f"""
        WITH s AS (
            SELECT source, COUNT(*) AS n,
                   CAST(SUM(n_chars) AS BIGINT) AS s,
                   CAST(SUM(n_chars * n_chars) AS BIGINT) AS ssq
            FROM documents GROUP BY source
        )
        SELECT d.doc_id, d.source, d.n_chars
        FROM documents d JOIN s USING (source)
        WHERE {k_den * k_den}
              * CAST(s.n * d.n_chars - s.s AS HUGEINT)
              * CAST(s.n * d.n_chars - s.s AS HUGEINT)
              > {k_num * k_num}
              * (CAST(s.n AS HUGEINT) * s.ssq
                 - CAST(s.s AS HUGEINT) * s.s)
    """


# -- deterministic train/val/test splitter -----------------------------------


def train_val_test_split(docs_ds, val_ppm: int = 100_000,
                         test_ppm: int = 100_000, seed: int = 20260819):
    """One-pass deterministic corpus splitter: every doc gets a split
    label from the md5 of (doc_id, seed) — ``test`` below ``test_ppm``
    of hash space, ``val`` in the next ``val_ppm``, ``train``
    otherwise — plus the per-(source, split) count report. The decision
    is a pure content-key function, so it is reproducible across runs,
    cluster widths and block layouts, resumable mid-corpus, and a doc
    can never migrate between splits when the corpus grows (the
    property random_split lacks).

    Scale shape: stateless vectorized map (the split column streams to
    the sink in a real run) -> shuffle-free bounded combine over the
    (source, split) dimension for the report this query returns.
    """
    from autoner_ray.stages.combine import bounded_key_sum

    t_cut = int(test_ppm / 1_000_000 * (1 << 32))
    v_cut = t_cut + int(val_ppm / 1_000_000 * (1 << 32))

    def label(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or len(batch) == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "split": pa.array([], pa.string()),
                    "n_docs": pa.array([], pa.int64()),
                }
            )
        hs = np.array(
            [
                int(
                    hashlib.md5(f"{i}:{seed}".encode()).hexdigest()[:8],
                    16,
                )
                for i in batch["doc_id"].to_pylist()
            ],
            np.int64,
        )
        split = np.where(
            hs < t_cut, "test", np.where(hs < v_cut, "val", "train")
        )
        agg = (
            pa.table(
                {
                    "source": batch["source"],
                    "split": pa.array(split, pa.string()),
                }
            )
            .group_by(["source", "split"])
            .aggregate([([], "count_all")])
        )
        return agg.rename_columns(["source", "split", "n_docs"])

    return bounded_key_sum(
        docs_ds.map_batches(label, batch_format="pyarrow"),
        ["source", "split"], ["n_docs"],
    )


def train_val_test_oracle_sql(val_ppm: int = 100_000,
                              test_ppm: int = 100_000,
                              seed: int = 20260819) -> str:
    t_cut = int(test_ppm / 1_000_000 * (1 << 32))
    v_cut = t_cut + int(val_ppm / 1_000_000 * (1 << 32))
    return f"""
        WITH h AS (
            SELECT source,
                   CAST(('0x' || substring(
                       md5(CAST(doc_id AS VARCHAR) || ':{seed}'), 1, 8))
                   AS UBIGINT) AS h
            FROM documents
        )
        SELECT source,
               CASE WHEN h < {t_cut} THEN 'test'
                    WHEN h < {v_cut} THEN 'val'
                    ELSE 'train' END AS split,
               COUNT(*) AS n_docs
        FROM h GROUP BY 1, 2
    """


# -- snapshot diff (incremental crawl) --------------------------------------


def snapshot_diff(docs_ds, new_ds, num_partitions: int | None = None):
    """Corpus snapshot diff: classify every doc_id across two corpus
    versions as added / removed / changed / unchanged (by text md5) and
    report counts per status — the incremental-crawl planning pass that
    decides how much of a re-crawl actually needs reprocessing.

    Scale shape: each side streams to (doc_id, md5, side) rows — the
    md5 is the only payload that travels — then ONE doc_id-partitioned
    ``map_groups`` classifies (a doc_id's two rows always co-locate)
    and a shuffle-free bounded combine sums the four status counts.
    """
    import pandas as pd

    from autoner_ray.cluster import default_num_partitions
    from autoner_ray.stages.combine import bounded_key_sum
    from autoner_ray.stages.joins import _stable_part_col

    if num_partitions is None:
        num_partitions = default_num_partitions()

    def keyed(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            empty = pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "md5": pa.array([], pa.string()),
                    "side": pa.array([], pa.int32()),
                    "part": pa.array([], pa.int32()),
                }
            )
            if batch.num_columns == 0 or len(batch) == 0:
                return empty
            hs = [
                hashlib.md5((t or "").encode()).hexdigest()
                for t in batch["text"].to_pylist()
            ]
            t = pa.table(
                {
                    "doc_id": batch["doc_id"],
                    "md5": pa.array(hs, pa.string()),
                    "side": pa.array(
                        np.full(len(batch), side, np.int32)
                    ),
                }
            )
            return t.append_column(
                "part", _stable_part_col(t, ("doc_id",), num_partitions)
            )
        return fn

    both = docs_ds.map_batches(
        keyed(0), batch_format="pyarrow"
    ).union(new_ds.map_batches(keyed(1), batch_format="pyarrow"))

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "doc_id" not in df.columns:
            return pd.DataFrame(
                {
                    "status": pd.Series(dtype="object"),
                    "n_docs": pd.Series(dtype="int64"),
                }
            )
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

    return bounded_key_sum(
        both.groupby("part").map_groups(classify, batch_format="pandas"),
        ["status"], ["n_docs"],
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
        if batch.num_columns == 0 or len(batch) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "text": pa.array([], pa.string()),
                }
            )
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


# -- character-class profile -------------------------------------------------


def char_class_profile(docs_ds):
    """Per-source character-class composition in integer ppm: the share
    of alphabetic / digit / space / other characters — the cheap
    encoding-health probe that catches binary-paste and
    wrong-charset sources before tokenization ever runs.

    Fully vectorized on both sides: Arrow's RE2
    ``count_substring_regex`` per class here, DuckDB
    ``len(regexp_replace(...))`` arithmetic in the twin; per-batch
    (source, counts) partials -> shuffle-free bounded combine -> ppm by
    integer floor-div."""
    from autoner_ray.stages.combine import bounded_key_sum

    def partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "n_chars": pa.array([], pa.int64()),
                    "n_alpha": pa.array([], pa.int64()),
                    "n_digit": pa.array([], pa.int64()),
                    "n_space": pa.array([], pa.int64()),
                }
            )
        text = t["text"]
        agg = (
            pa.table(
                {
                    "source": t["source"],
                    "n_chars": pc.cast(
                        pc.utf8_length(text), pa.int64()
                    ),
                    "n_alpha": pc.cast(
                        pc.count_substring_regex(text, r"[A-Za-z]"),
                        pa.int64(),
                    ),
                    "n_digit": pc.cast(
                        pc.count_substring_regex(text, r"[0-9]"),
                        pa.int64(),
                    ),
                    "n_space": pc.cast(
                        pc.count_substring_regex(text, r" "), pa.int64()
                    ),
                }
            )
            .group_by("source")
            .aggregate(
                [
                    ("n_chars", "sum"),
                    ("n_alpha", "sum"),
                    ("n_digit", "sum"),
                    ("n_space", "sum"),
                ]
            )
        )
        return agg.rename_columns(
            ["source", "n_chars", "n_alpha", "n_digit", "n_space"]
        )

    agg = bounded_key_sum(
        docs_ds.map_batches(partial, batch_format="pyarrow"),
        ["source"], ["n_chars", "n_alpha", "n_digit", "n_space"],
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "n_chars": pa.array([], pa.int64()),
                    "alpha_ppm": pa.array([], pa.int64()),
                    "digit_ppm": pa.array([], pa.int64()),
                    "space_ppm": pa.array([], pa.int64()),
                    "other_ppm": pa.array([], pa.int64()),
                }
            )
        n = t["n_chars"].to_numpy(zero_copy_only=False)
        a = t["n_alpha"].to_numpy(zero_copy_only=False)
        d = t["n_digit"].to_numpy(zero_copy_only=False)
        s = t["n_space"].to_numpy(zero_copy_only=False)
        o = n - a - d - s
        safe = np.maximum(n, 1)
        return pa.table(
            {
                "source": t["source"],
                "n_chars": t["n_chars"],
                "alpha_ppm": pa.array(a * 1_000_000 // safe, pa.int64()),
                "digit_ppm": pa.array(d * 1_000_000 // safe, pa.int64()),
                "space_ppm": pa.array(s * 1_000_000 // safe, pa.int64()),
                "other_ppm": pa.array(o * 1_000_000 // safe, pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def char_class_profile_oracle_sql() -> str:
    return """
        WITH c AS (
            SELECT source,
                   CAST(SUM(length(text)) AS BIGINT) AS n_chars,
                   CAST(SUM(length(text)
                        - length(regexp_replace(text, '[A-Za-z]', '',
                                                'g'))) AS BIGINT)
                       AS n_alpha,
                   CAST(SUM(length(text)
                        - length(regexp_replace(text, '[0-9]', '',
                                                'g'))) AS BIGINT)
                       AS n_digit,
                   CAST(SUM(length(text)
                        - length(replace(text, ' ', ''))) AS BIGINT)
                       AS n_space
            FROM documents GROUP BY source
        )
        SELECT source, n_chars,
               n_alpha * 1000000 // GREATEST(n_chars, 1) AS alpha_ppm,
               n_digit * 1000000 // GREATEST(n_chars, 1) AS digit_ppm,
               n_space * 1000000 // GREATEST(n_chars, 1) AS space_ppm,
               (n_chars - n_alpha - n_digit - n_space) * 1000000
                   // GREATEST(n_chars, 1) AS other_ppm
        FROM c
    """


# -- pushdown-filtered read --------------------------------------------------


def filtered_read_stats(sf_dir: str, min_chars: int = 280,
                        max_chars: int = 320):
    """Per-source stats over a length band, with the predicate PUSHED
    INTO the Parquet read (``read_parquet(filter=...)`` — row groups
    outside the band never leave storage, and only the needed columns
    are read). The explicit witness for the "prune at the read"
    rule: the filter runs in the scan, not in a downstream map.

    Scale shape: pushdown scan -> per-batch (source, n, sum) partials
    -> shuffle-free bounded combine."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from autoner_ray.stages.combine import bounded_key_sum

    expr = (pads.field("n_chars") >= min_chars) & (
        pads.field("n_chars") <= max_chars
    )
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["source", "n_chars"],
        filter=expr,
    )

    def partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "n_docs": pa.array([], pa.int64()),
                    "sum_chars": pa.array([], pa.int64()),
                }
            )
        agg = (
            t.group_by("source")
            .aggregate([("n_chars", "count"), ("n_chars", "sum")])
        )
        return agg.rename_columns(["source", "n_docs", "sum_chars"])

    return bounded_key_sum(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["source"], ["n_docs", "sum_chars"],
    )


def filtered_read_oracle_sql(min_chars: int = 280,
                             max_chars: int = 320) -> str:
    return f"""
        SELECT source, COUNT(*) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS sum_chars
        FROM documents
        WHERE n_chars BETWEEN {min_chars} AND {max_chars}
        GROUP BY source
    """


def word_length_histogram(docs_ds):
    """Corpus-wide word-length histogram (len -> occurrences, distinct
    words) — the tokenizer-design diagnostic (where to cap word length,
    how much tail the char-CNN must absorb).

    Shape: per-batch explode + np.unique partials; distinct-word
    counts come from a word-partitioned first-occurrence pass
    (vocab never on the driver); bounded combine over lengths."""
    import pandas as pd

    from autoner_ray.stages.combine import (
        bounded_key_sum,
        keyed_combine,
    )

    def occ_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "length": pa.array([], pa.int64()),
                "n_occurrences": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        lens = np.concatenate(
            [
                np.array([len(w) for w in (x or "").split(" ")], np.int64)
                for x in t["text"].to_pylist()
            ]
        )
        vals, counts = np.unique(lens, return_counts=True)
        return pa.table(
            {
                "length": pa.array(vals, pa.int64()),
                "n_occurrences": pa.array(counts, pa.int64()),
            }
        )

    occ = bounded_key_sum(
        docs_ds.map_batches(occ_partial, batch_format="pyarrow"),
        ["length"], ["n_occurrences"],
    )

    def word_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "word": pa.array([], pa.string()),
                "one": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        ws = sorted(
            {w for x in t["text"].to_pylist() for w in (x or "").split(" ")}
        )
        return pa.table(
            {
                "word": pa.array(ws, pa.string()),
                "one": pa.array(np.ones(len(ws), np.int64)),
            }
        )

    distinct = keyed_combine(
        docs_ds.map_batches(word_partial, batch_format="pyarrow"),
        ["word"], [("one", "max")], part_on=("word",),
    )

    def dist_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0 or "word" not in (
            t.column_names
        ):
            return pa.table(
                {
                    "length": pa.array([], pa.int64()),
                    "n_words": pa.array([], pa.int64()),
                }
            )
        lens = np.array(
            [len(w) for w in t["word"].to_pylist()], np.int64
        )
        vals, counts = np.unique(lens, return_counts=True)
        return pa.table(
            {
                "length": pa.array(vals, pa.int64()),
                "n_words": pa.array(counts, pa.int64()),
            }
        )

    dist = bounded_key_sum(
        distinct.map_batches(dist_partial, batch_format="pyarrow",
                             batch_size=None),
        ["length"], ["n_words"],
    )
    o = occ.to_pandas()
    d = dist.to_pandas()
    out = o.merge(d, on="length", how="outer").fillna(0).sort_values(
        "length", kind="mergesort"
    )
    return pa.table(
        {
            "length": pa.array(out["length"].to_numpy(np.int64)),
            "n_occurrences": pa.array(
                out["n_occurrences"].to_numpy(np.int64)
            ),
            "n_words": pa.array(out["n_words"].to_numpy(np.int64)),
        }
    )


def word_length_histogram_oracle_sql() -> str:
    return """
        WITH w AS (
            SELECT unnest(string_split(text, ' ')) AS word FROM documents
        ),
        occ AS (
            SELECT length(word) AS length, COUNT(*) AS n_occurrences
            FROM w GROUP BY 1
        ),
        dist AS (
            SELECT length(word) AS length, COUNT(*) AS n_words
            FROM (SELECT DISTINCT word FROM w) GROUP BY 1
        )
        SELECT length, CAST(n_occurrences AS BIGINT) AS n_occurrences,
               CAST(COALESCE(n_words, 0) AS BIGINT) AS n_words
        FROM occ LEFT JOIN dist USING (length)
    """


def source_quality_rollup(docs_ds):
    """Per-source quality aggregate in exact integer ppm: total words,
    stopword share and mean word length (milli-chars) — the
    which-host-is-gibberish rollup over the same signals
    ``quality_batch`` scores per doc, but with INTEGER sums so the
    rollup is order-independent and hash-exact (per-doc ratios do not
    aggregate; the counts do)."""
    import pandas as pd

    from autoner_ray.stages.combine import bounded_key_sum

    def partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "n_words": pa.array([], pa.int64()),
                    "n_stop": pa.array([], pa.int64()),
                    "n_chars_words": pa.array([], pa.int64()),
                }
            )
        rows = []
        for src, text in zip(
            t["source"].to_pylist(), t["text"].to_pylist()
        ):
            ws = (text or "").split(" ")
            rows.append(
                (
                    src,
                    len(ws),
                    sum(1 for w in ws if w in ("a", "the")),
                    sum(len(w) for w in ws),
                )
            )
        df = pd.DataFrame(
            rows, columns=["source", "n_words", "n_stop", "n_chars_words"]
        )
        agg = df.groupby("source", sort=False).sum().reset_index()
        return pa.Table.from_pandas(
            agg, preserve_index=False
        ).replace_schema_metadata(None)

    agg = bounded_key_sum(
        docs_ds.map_batches(partial, batch_format="pyarrow"),
        ["source"], ["n_words", "n_stop", "n_chars_words"],
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "n_words": pa.array([], pa.int64()),
                    "stop_ppm": pa.array([], pa.int64()),
                    "mean_word_len_milli": pa.array([], pa.int64()),
                }
            )
        w = t["n_words"].to_numpy(zero_copy_only=False)
        st = t["n_stop"].to_numpy(zero_copy_only=False)
        c = t["n_chars_words"].to_numpy(zero_copy_only=False)
        safe = np.maximum(w, 1)
        return pa.table(
            {
                "source": t["source"],
                "n_words": t["n_words"],
                "stop_ppm": pa.array(st * 1_000_000 // safe, pa.int64()),
                "mean_word_len_milli": pa.array(
                    c * 1_000 // safe, pa.int64()
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def source_quality_oracle_sql() -> str:
    return """
        WITH per AS (
            SELECT source,
                   CAST(len(string_split(text, ' ')) AS BIGINT)
                       AS n_words,
                   CAST(len(list_filter(string_split(text, ' '),
                            w -> w IN ('a', 'the'))) AS BIGINT)
                       AS n_stop,
                   CAST(list_aggregate(
                        list_transform(string_split(text, ' '),
                                       w -> length(w)), 'sum')
                        AS BIGINT) AS n_chars_words
            FROM documents
        ),
        agg AS (
            SELECT source, SUM(n_words) AS n_words,
                   SUM(n_stop) AS n_stop,
                   SUM(n_chars_words) AS n_chars_words
            FROM per GROUP BY source
        )
        SELECT source, CAST(n_words AS BIGINT) AS n_words,
               CAST(n_stop * 1000000 // GREATEST(n_words, 1) AS BIGINT)
                   AS stop_ppm,
               CAST(n_chars_words * 1000 // GREATEST(n_words, 1)
                    AS BIGINT) AS mean_word_len_milli
        FROM agg
    """


def pack_sequences_report(docs_ds, bin_tokens: int = 512):
    """Training-sequence packing layout over the corpus: concatenate
    the whitespace token streams of all docs in ``doc_id`` order and
    cut every ``bin_tokens`` tokens; report each resulting sequence as
    ``(seq_id, n_docs, n_tokens, first_key, last_key)`` where a doc
    belongs to the bin its FIRST token lands in (greedy streaming
    packing — the layout an LLM pretraining loader materializes).

    Token count is ``count(' ') + 1`` — the exact length of
    ``string_split(text, ' ')`` on both engine and oracle sides,
    including empty tokens on space runs. Distributed via
    :func:`ranking.pack_sequences` (range-bucketed exact prefix sums;
    nothing corpus-sized on the driver)."""
    from autoner_ray.stages.ranking import pack_sequences

    def tok_counts(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_tok": pa.array([], pa.int64()),
                }
            )
        n = pc.add(
            pc.count_substring(t["text"].combine_chunks(), " "),
            pa.scalar(1),
        )
        return pa.table(
            {"doc_id": t["doc_id"], "n_tok": pc.cast(n, pa.int64())}
        )

    return pack_sequences(
        docs_ds.map_batches(tok_counts, batch_format="pyarrow"),
        key_col="doc_id", weight_col="n_tok", bin_size=bin_tokens,
    )


def pack_sequences_oracle_sql(bin_tokens: int = 512) -> str:
    return f"""
        WITH t AS (
            SELECT doc_id,
                   CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tok
            FROM documents
        ), c AS (
            SELECT doc_id, n_tok,
                   SUM(n_tok) OVER (
                       ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
                   ) - n_tok AS prev_cum
            FROM t
        )
        SELECT prev_cum // {bin_tokens} AS seq_id,
               COUNT(*) AS n_docs,
               SUM(n_tok) AS n_tokens,
               MIN(doc_id) AS first_key,
               MAX(doc_id) AS last_key
        FROM c
        GROUP BY 1
    """


def domain_cap(docs_ds, cap: int = 20):
    """Per-domain document cap — the crawl-balancing pass that stops a
    single hot domain from dominating the training mix (C4/RefinedWeb
    keep per-domain quotas): keep the ``cap`` LOWEST doc_ids of every
    source (ingestion order = doc_id order, so "first K crawled"),
    returning (source, doc_id) of the survivors.

    Scale shape: min-K per key is RE-ASSOCIATIVE, so each batch
    pre-combines to ≤ cap rows per source seen (a hot domain's
    millions of rows reduce inside the map; the shuffle moves
    ≤ cap × sources × blocks rows, never the corpus) -> ONE hash
    shuffle on source -> per-partition final top-K in the same grouped
    pass."""
    import pandas as pd

    from autoner_ray.cluster import default_num_partitions
    from autoner_ray.stages.joins import _stable_part_col

    P = default_num_partitions()

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "source": pa.array([], pa.string()),
                "doc_id": pa.array([], pa.int64()),
                "part": pa.array([], pa.int32()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        df = pd.DataFrame(
            {
                "source": np.asarray(
                    t["source"].to_numpy(zero_copy_only=False)
                ),
                "doc_id": t["doc_id"].to_numpy(),
            }
        )
        keep = (
            df.sort_values(["source", "doc_id"], kind="mergesort")
            .groupby("source", sort=False)
            .head(cap)
        )
        out = pa.table(
            {
                "source": pa.array(
                    keep["source"].to_numpy(), pa.string()
                ),
                "doc_id": pa.array(
                    keep["doc_id"].to_numpy(np.int64), pa.int64()
                ),
            }
        )
        return out.append_column(
            "part", _stable_part_col(out, ("source",), P)
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "source": pd.Series(dtype="object"),
                "doc_id": pd.Series(dtype="int64"),
            }
        )
        if len(df) == 0 or "source" not in df.columns:
            return empty
        keep = (
            df.sort_values(["source", "doc_id"], kind="mergesort")
            .groupby("source", sort=False)
            .head(cap)
        )
        return keep[["source", "doc_id"]].reset_index(drop=True)

    return (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(final, batch_format="pandas")
    )


def domain_cap_oracle_sql(cap: int = 20) -> str:
    return f"""
        SELECT source, doc_id FROM (
            SELECT source, doc_id, row_number() OVER (
                PARTITION BY source ORDER BY doc_id
            ) AS rn
            FROM documents
        ) WHERE rn <= {cap}
    """


def normalize_text(docs_ds):
    """Canonical text normalization — the first cleaning pass of every
    curation pipeline: lowercase, collapse whitespace runs to one
    space, trim. Returns (doc_id, norm_text, changed). Both engine
    (Arrow kernels) and oracle (DuckDB) run RE2, so ``\\s`` has the
    same character class on both sides.

    Scale shape: a stateless fully-vectorized Arrow map — zero-copy
    in, no shuffle, streams at read speed."""

    def norm(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "norm_text": pa.array([], pa.string()),
                    "changed": pa.array([], pa.bool_()),
                }
            )
        txt = t["text"].combine_chunks()
        n = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(pc.utf8_lower(txt), r"\s+", " ")
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "norm_text": n,
                "changed": pc.not_equal(n, txt),
            }
        )

    return docs_ds.map_batches(norm, batch_format="pyarrow")


def normalize_text_oracle_sql() -> str:
    return r"""
        SELECT doc_id,
               trim(regexp_replace(lower(text), '\s+', ' ', 'g'))
                   AS norm_text,
               trim(regexp_replace(lower(text), '\s+', ' ', 'g'))
                   <> text AS changed
        FROM documents
    """


def corpus_card(docs_ds):
    """One-row dataset card — the summary block a corpus release ships
    with: doc count, token count (``count(' ')+1`` per doc), char
    count, distinct-word vocabulary size and languages present.

    Scale shape: doc-level stats are one streaming pass of scalar
    partials; the vocabulary size runs word-partitioned (per-batch
    distinct -> ONE hash shuffle -> per-partition distinct counts ->
    scalar sum) so no word set ever gathers in one place; the two
    tiny partial streams union into a single final block."""
    from autoner_ray.cluster import default_num_partitions
    from autoner_ray.stages.joins import _stable_part_col

    P = default_num_partitions()

    def doc_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "n_docs": pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
                "n_chars": pa.array([], pa.int64()),
                "n_langs_seen": pa.array([], pa.int64()),
                "vocab_size": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        txt = t["text"].combine_chunks()
        toks = pc.sum(
            pc.add(pc.count_substring(txt, " "), pa.scalar(1))
        ).as_py()
        chars = pc.sum(pc.utf8_length(txt)).as_py()
        return pa.table(
            {
                "n_docs": pa.array([len(t)], pa.int64()),
                "n_tokens": pa.array([int(toks or 0)], pa.int64()),
                "n_chars": pa.array([int(chars or 0)], pa.int64()),
                "n_langs_seen": pa.array([0], pa.int64()),
                "vocab_size": pa.array([0], pa.int64()),
            }
        )

    def word_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "w": pa.array([], pa.string()),
                "part": pa.array([], pa.int32()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        txt = t["text"].combine_chunks()
        words = pc.unique(
            pc.list_flatten(pc.split_pattern(txt, " "))
        )
        out = pa.table({"w": words})
        return out.append_column(
            "part", _stable_part_col(out, ("w",), P)
        )

    def lang_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table({"lang": pa.array([], pa.string())})
        return pa.table(
            {"lang": pc.unique(t["lang"].combine_chunks())}
        )

    def _one_row(**vals) -> pa.Table:
        base = {
            "n_docs": 0, "n_tokens": 0, "n_chars": 0,
            "n_langs_seen": 0, "vocab_size": 0,
        }
        base.update(vals)
        return pa.table(
            {k: pa.array([int(v)], pa.int64()) for k, v in base.items()}
        )

    def vocab_count(t: pa.Table) -> pa.Table:
        n = (
            len(pc.unique(t["w"].combine_chunks()))
            if "w" in t.column_names and len(t)
            else 0
        )
        return _one_row(vocab_size=n)

    vocab = (
        docs_ds.map_batches(word_partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(vocab_count, batch_format="pyarrow")
    )

    def lang_count(t: pa.Table) -> pa.Table:
        n = (
            len(pc.unique(t["lang"].combine_chunks()))
            if "lang" in t.column_names and len(t)
            else 0
        )
        return _one_row(n_langs_seen=n)

    langs = (
        docs_ds.map_batches(lang_partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(lang_count, batch_format="pyarrow", batch_size=None)
    )

    cols = ["n_docs", "n_tokens", "n_chars", "n_langs_seen",
            "vocab_size"]

    def finish(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {c: pa.array([0], pa.int64()) for c in cols}
            )
        return pa.table(
            {
                c: pa.array(
                    [int(pc.sum(t[c]).as_py() or 0)], pa.int64()
                )
                for c in cols
            }
        )

    return (
        docs_ds.map_batches(doc_partial, batch_format="pyarrow")
        .union(vocab, langs)
        .repartition(1)
        .map_batches(finish, batch_format="pyarrow", batch_size=None)
    )


def corpus_card_oracle_sql() -> str:
    return """
        WITH w AS (
            SELECT COUNT(DISTINCT word) AS vocab
            FROM documents,
                 unnest(string_split(text, ' ')) AS t(word)
        )
        SELECT COUNT(*) AS n_docs,
               CAST(SUM(len(string_split(text, ' '))) AS BIGINT)
                   AS n_tokens,
               CAST(SUM(length(text)) AS BIGINT) AS n_chars,
               CAST(COUNT(DISTINCT lang) AS BIGINT) AS n_langs_seen,
               CAST(MAX(w.vocab) AS BIGINT) AS vocab_size
        FROM documents, w
    """


def readability(docs_ds):
    """Per-language Flesch-reading-ease rollup in integer milli-points
    — the web-curation readability gate (e.g. "drop docs below
    score X") aggregated for reporting. Per doc: words = spaces + 1,
    sentences = terminal-punctuation runs ``[.!?]+`` (min 1),
    syllables = vowel runs ``[aeiouyAEIOUY]+``; the score
    ``206.835 - 1.015·(w/s) - 84.6·(y/w)`` is computed over the common
    denominator ``s·w`` as ONE floored integer division
    ``max(0, 206835·s·w - 1015·w² - 84600·y·s) // (s·w)`` so engine
    and SQL agree bit-for-bit (clamped at 0: both ``//`` semantics
    coincide on non-negative numerators).

    Scale shape: fully vectorized RE2 counts per batch (three
    ``count_substring_regex`` kernels), per-batch partials keyed by the
    bounded lang space, shuffle-free combine, tiny final division."""
    from autoner_ray.stages.combine import bounded_key_sum

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "lang": pa.array([], pa.string()),
                "n_docs": pa.array([], pa.int64()),
                "sum_words": pa.array([], pa.int64()),
                "sum_sentences": pa.array([], pa.int64()),
                "sum_syllables": pa.array([], pa.int64()),
                "sum_flesch_milli": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        txt = t["text"].combine_chunks()
        w = pc.add(pc.count_substring(txt, " "), 1).to_numpy().astype(
            np.int64
        )
        s = np.maximum(
            pc.count_substring_regex(txt, r"[.!?]+")
            .to_numpy().astype(np.int64),
            1,
        )
        y = pc.count_substring_regex(txt, r"[aeiouyAEIOUY]+").to_numpy(
        ).astype(np.int64)
        num = 206835 * s * w - 1015 * w * w - 84600 * y * s
        milli = np.maximum(num, 0) // (s * w)
        agg = (
            pa.table(
                {
                    "lang": t["lang"],
                    "n_docs": pa.array(np.ones(len(w), np.int64)),
                    "sum_words": pa.array(w),
                    "sum_sentences": pa.array(s),
                    "sum_syllables": pa.array(y),
                    "sum_flesch_milli": pa.array(milli),
                }
            )
            .group_by("lang")
            .aggregate(
                [
                    ("n_docs", "sum"),
                    ("sum_words", "sum"),
                    ("sum_sentences", "sum"),
                    ("sum_syllables", "sum"),
                    ("sum_flesch_milli", "sum"),
                ]
            )
        )
        return agg.rename_columns(
            [
                "lang", "n_docs", "sum_words", "sum_sentences",
                "sum_syllables", "sum_flesch_milli",
            ]
        )

    sums = bounded_key_sum(
        docs_ds.map_batches(
            partial, batch_format="pyarrow", batch_size=65536
        ),
        ["lang"],
        [
            "n_docs", "sum_words", "sum_sentences", "sum_syllables",
            "sum_flesch_milli",
        ],
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "lang": pa.array([], pa.string()),
                    "n_docs": pa.array([], pa.int64()),
                    "sum_words": pa.array([], pa.int64()),
                    "sum_syllables": pa.array([], pa.int64()),
                    "avg_flesch_milli": pa.array([], pa.int64()),
                }
            )
        n = t["n_docs"].to_numpy()
        avg = t["sum_flesch_milli"].to_numpy() // n
        return pa.table(
            {
                "lang": t["lang"],
                "n_docs": t["n_docs"],
                "sum_words": t["sum_words"],
                "sum_syllables": t["sum_syllables"],
                "avg_flesch_milli": pa.array(avg, pa.int64()),
            }
        )

    return sums.map_batches(finish, batch_format="pyarrow")


def readability_oracle_sql() -> str:
    return """
        WITH per AS (
            SELECT lang,
                   CAST(len(string_split(text, ' ')) AS BIGINT) AS w,
                   greatest(CAST(len(regexp_extract_all(text, '[.!?]+'))
                                 AS BIGINT), 1) AS s,
                   CAST(len(regexp_extract_all(text, '[aeiouyAEIOUY]+'))
                        AS BIGINT) AS y
            FROM documents
        ),
        scored AS (
            SELECT lang, w, s, y,
                   greatest(206835 * s * w - 1015 * w * w
                            - 84600 * y * s, 0) // (s * w) AS milli
            FROM per
        )
        SELECT lang, COUNT(*) AS n_docs,
               CAST(SUM(w) AS BIGINT) AS sum_words,
               CAST(SUM(y) AS BIGINT) AS sum_syllables,
               CAST(SUM(milli) // COUNT(*) AS BIGINT)
                   AS avg_flesch_milli
        FROM scored GROUP BY lang
    """


def ccnet_buckets(docs_ds, n_buckets: int = 3):
    """CCNet-style quality bucketing (Wenzek et al. 2020): per
    language, split documents into ``n_buckets`` equal-frequency
    perplexity tiers (head / middle / tail) by the bigram-LM score of
    :func:`lm_perplexity`, and report each tier's size and metric
    range. The metric is integer milli-micro-nats per bigram
    (``nll_micro · 1000 // n_bigrams``) so tier boundaries are exact;
    tiling follows SQL ``NTILE`` semantics (first ``n %% k`` tiles get
    the extra row) with a (metric, doc_id) deterministic order.

    Scale shape: the per-doc score table cogroup-joins to the
    (doc_id, lang) projection sharded by int doc_id — one corpus-row
    shuffle, no driver materialization — then per-lang pandas tiling.
    At 100 TB, per-lang groups are corpus/|langs| rows; swap the exact
    NTILE for tier BOUNDARIES from a distributed value histogram and a
    stateless bucketing map —
    kept exact here because the oracle certifies the tier contract."""
    import pandas as pd

    from autoner_ray.stages.joins import cogroup_join

    scored = lm_perplexity(docs_ds)

    def metric_col(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_bigrams": pa.array([], pa.int64()),
                    "metric": pa.array([], pa.int64()),
                }
            )
        nb = t["n_bigrams"].to_numpy()
        m = t["nll_micro"].to_numpy() * 1000 // nb
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_bigrams": t["n_bigrams"],
                "metric": pa.array(m, pa.int64()),
            }
        )

    langs = docs_ds.map_batches(
        lambda t: t.select(["doc_id", "lang"])
        if t.num_columns
        else pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "lang": pa.array([], pa.string()),
            }
        ),
        batch_format="pyarrow",
    )
    joined = cogroup_join(
        scored.map_batches(metric_col, batch_format="pyarrow"),
        langs,
        on=("doc_id",),
    )

    def tile(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "lang" not in df.columns:
            return pd.DataFrame(
                {
                    "lang": pd.Series(dtype="object"),
                    "bucket": pd.Series(dtype="int64"),
                    "n_docs": pd.Series(dtype="int64"),
                    "min_metric": pd.Series(dtype="int64"),
                    "max_metric": pd.Series(dtype="int64"),
                    "sum_bigrams": pd.Series(dtype="int64"),
                }
            )
        df = df.sort_values(
            ["metric", "doc_id"], kind="mergesort"
        ).reset_index(drop=True)
        n = len(df)
        base, extra = divmod(n, n_buckets)
        sizes = [base + (1 if i < extra else 0) for i in range(n_buckets)]
        buckets = np.repeat(
            np.arange(1, n_buckets + 1, dtype=np.int64), sizes
        )
        df["bucket"] = buckets
        g = df.groupby("bucket", as_index=False).agg(
            n_docs=("doc_id", "size"),
            min_metric=("metric", "min"),
            max_metric=("metric", "max"),
            sum_bigrams=("n_bigrams", "sum"),
        )
        g.insert(0, "lang", df["lang"].iloc[0])
        return g[g["n_docs"] > 0]

    return joined.groupby("lang").map_groups(
        tile, batch_format="pandas"
    )


def ccnet_buckets_oracle_sql(n_buckets: int = 3) -> str:
    inner = lm_perplexity_oracle_sql()
    return f"""
        WITH ppl AS ({inner}),
        m AS (
            SELECT p.doc_id, d.lang, p.n_bigrams,
                   p.nll_micro * 1000 // p.n_bigrams AS metric
            FROM ppl p JOIN documents d USING (doc_id)
        ),
        t AS (
            SELECT lang, n_bigrams, metric,
                   NTILE({n_buckets}) OVER (
                       PARTITION BY lang ORDER BY metric, doc_id
                   ) AS bucket
            FROM m
        )
        SELECT lang, CAST(bucket AS BIGINT) AS bucket,
               COUNT(*) AS n_docs,
               MIN(metric) AS min_metric,
               MAX(metric) AS max_metric,
               CAST(SUM(n_bigrams) AS BIGINT) AS sum_bigrams
        FROM t GROUP BY lang, bucket
    """


def chunk_overlap(docs_ds, chunk_words: int = 32, stride: int = 24):
    """Fixed-stride overlapping word-window chunker — the
    context-window preprocessor every RAG / pretraining pipeline runs:
    each document's whitespace tokens become windows of ``chunk_words``
    words starting every ``stride`` words (so consecutive chunks share
    ``chunk_words - stride`` words); the tail chunk is short. Emits one
    row per chunk with its md5 fingerprint so downstream chunk-level
    dedup (exact or winnowing) can run without re-carrying text.

    Chunk contract (mirrored exactly by the SQL twin): a chunk starts
    at word offset ``k*stride`` for every k with ``k*stride < n_words``
    (empty text splits to the single empty word, n=1, one chunk).

    Scale shape: stateless per-batch flat-map — one pass, no shuffle;
    output is ~``n_words/stride`` rows per doc. Chunk hashing is the
    same per-string md5 the exact-dedup stage pays."""

    def chunk_batch(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "chunk_idx": pa.array([], pa.int64()),
                "n_words": pa.array([], pa.int64()),
                "chunk_md5": pa.array([], pa.string()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        ids_out: list[int] = []
        idx_out: list[int] = []
        nw_out: list[int] = []
        md5_out: list[str] = []
        for doc_id, text in zip(
            t["doc_id"].to_pylist(), t["text"].to_pylist()
        ):
            words = (text or "").split(" ")
            n = len(words)
            k = 0
            while k * stride < n:
                piece = words[k * stride: k * stride + chunk_words]
                ids_out.append(doc_id)
                idx_out.append(k)
                nw_out.append(len(piece))
                md5_out.append(
                    hashlib.md5(" ".join(piece).encode()).hexdigest()
                )
                k += 1
        return pa.table(
            {
                "doc_id": pa.array(ids_out, pa.int64()),
                "chunk_idx": pa.array(idx_out, pa.int64()),
                "n_words": pa.array(nw_out, pa.int64()),
                "chunk_md5": pa.array(md5_out, pa.string()),
            }
        )

    return docs_ds.map_batches(chunk_batch, batch_format="pyarrow")


def chunk_overlap_oracle_sql(chunk_words: int = 32,
                             stride: int = 24) -> str:
    # 1-based inclusive list slicing; the scalar generate_series list
    # (unnested) enumerates exactly the starts with (start-1) < n —
    # the lateral table-function form can't reference w.n in DuckDB
    return f"""
        WITH w AS (
            SELECT doc_id, string_split(text, ' ') AS ws,
                   len(string_split(text, ' ')) AS n
            FROM documents
        ),
        c AS (
            SELECT doc_id, ws, n,
                   unnest(generate_series(1, CAST(n AS BIGINT),
                                          {stride})) AS gs
            FROM w
        )
        SELECT doc_id,
               (gs - 1) // {stride} AS chunk_idx,
               least(gs + {chunk_words} - 1, n) - gs + 1 AS n_words,
               md5(array_to_string(
                   ws[gs:least(gs + {chunk_words} - 1, n)], ' '
               )) AS chunk_md5
        FROM c
    """


def vocab_coverage_curve(docs_ds, ks: tuple[int, ...] = (
        1, 2, 5, 10, 20, 50, 100, 1000)):
    """Token-coverage curve of the frequency-ranked vocabulary: for
    each k, the integer-ppm share of ALL corpus tokens covered by the
    top-k words (count DESC, word ASC tie-break) — the
    tokenizer-budget diagnostic (how big a vocab buys how much of the
    stream). k beyond the vocab saturates at 1e6 ppm.

    Scale shape: word counts reduce through the word-partitioned
    distributed sum (vocab never on the driver); each partition then
    ships only its local top-max(k) rows plus a single total row, so
    the driver merge sees P × max(k) rows regardless of vocab size."""
    import pandas as pd

    from autoner_ray.stages.combine import partitioned_key_sum

    kmax = max(ks)

    def word_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "word": pa.array([], pa.string()),
                "c": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        words, counts = np.unique(
            np.concatenate(
                [
                    np.array((x or "").split(" "), dtype=object)
                    for x in t["text"].to_pylist()
                ]
            ),
            return_counts=True,
        )
        return pa.table(
            {
                "word": pa.array(words.astype(str), pa.string()),
                "c": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    counts = partitioned_key_sum(
        docs_ds.map_batches(word_partial, batch_format="pyarrow"),
        keys=["word"], sum_cols=["c"], part_on=("word",),
    )

    def topk_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "kind": pa.array([], pa.int64()),
                "word": pa.array([], pa.string()),
                "c": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0 or "word" not in (
            t.column_names
        ):
            return empty
        df = t.select(["word", "c"]).to_pandas()
        total = int(df["c"].sum())
        top = df.sort_values(
            ["c", "word"], ascending=[False, True], kind="mergesort"
        ).head(kmax)
        return pa.table(
            {
                "kind": pa.array(
                    [0] * len(top) + [1], pa.int64()
                ),
                "word": pa.array(
                    list(top["word"]) + [""], pa.string()
                ),
                "c": pa.array(
                    list(top["c"].astype(np.int64)) + [total],
                    pa.int64(),
                ),
            }
        )

    parts = counts.map_batches(
        topk_partial, batch_format="pyarrow", batch_size=None
    ).to_pandas()
    total = int(parts.loc[parts["kind"] == 1, "c"].sum())
    top = (
        parts[parts["kind"] == 0]
        .sort_values(["c", "word"], ascending=[False, True],
                     kind="mergesort")
        .head(kmax)
    )
    cum = top["c"].to_numpy(np.int64).cumsum()
    ppm = [
        int(cum[min(k, len(cum)) - 1] * 1_000_000 // total)
        if len(cum) and total else 0
        for k in ks
    ]
    return pa.table(
        {
            "k": pa.array(list(ks), pa.int64()),
            "coverage_ppm": pa.array(ppm, pa.int64()),
        }
    )


def vocab_coverage_oracle_sql(ks: tuple[int, ...] = (
        1, 2, 5, 10, 20, 50, 100, 1000)) -> str:
    kvals = ", ".join(f"({k})" for k in ks)
    return f"""
        WITH w AS (
            SELECT unnest(string_split(text, ' ')) AS word FROM documents
        ),
        cnt AS (SELECT word, COUNT(*) AS c FROM w GROUP BY 1),
        rk AS (
            SELECT c, ROW_NUMBER() OVER (ORDER BY c DESC, word) AS r
            FROM cnt
        ),
        cum AS (
            SELECT r, SUM(c) OVER (ORDER BY r) AS cs FROM rk
        ),
        tot AS (SELECT SUM(c) AS t FROM cnt),
        ks(k) AS (VALUES {kvals})
        SELECT CAST(ks.k AS BIGINT) AS k,
               CAST(COALESCE(
                   (SELECT MAX(cs) FROM cum WHERE cum.r <= ks.k), 0
               ) * 1000000 // tot.t AS BIGINT) AS coverage_ppm
        FROM ks, tot
    """


def corpus_fingerprint(docs_ds):
    """Order-insensitive corpus content fingerprint — the dataset
    version id a curation pipeline stamps on every artifact (same rows
    in any order / any partitioning => same fingerprint; one changed
    byte flips it): doc count, XOR and modular sum of each document's
    60-bit md5(text) prefix. XOR and sum are commutative-associative,
    so the reduction is layout-independent by construction.

    Scale shape: per-batch partials collapse to ONE row each (n, xor,
    sum mod 2^61); a single-task combine folds them — no shuffle, no
    driver iteration."""
    import hashlib

    MOD = 1 << 61

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "n_docs": pa.array([], pa.int64()),
                "xor_fp": pa.array([], pa.int64()),
                "sum_fp": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        x = 0
        s = 0
        n = 0
        for text in t["text"].to_pylist():
            h = int(
                hashlib.md5((text or "").encode()).hexdigest()[:15], 16
            )
            x ^= h
            s = (s + h) % MOD
            n += 1
        return pa.table(
            {
                "n_docs": pa.array([n], pa.int64()),
                "xor_fp": pa.array([x], pa.int64()),
                "sum_fp": pa.array([s], pa.int64()),
            }
        )

    def combine(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "n_docs": pa.array([0], pa.int64()),
                    "xor_fp": pa.array([0], pa.int64()),
                    "sum_fp": pa.array([0], pa.int64()),
                }
            )
        x = 0
        for v in t["xor_fp"].to_pylist():
            x ^= int(v)
        return pa.table(
            {
                "n_docs": pa.array(
                    [int(np.sum(t["n_docs"].to_numpy()))], pa.int64()
                ),
                "xor_fp": pa.array([x], pa.int64()),
                "sum_fp": pa.array(
                    [int(np.sum(t["sum_fp"].to_numpy()) % (1 << 61))],
                    pa.int64(),
                ),
            }
        )

    return (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(combine, batch_format="pyarrow", batch_size=None)
    )


def corpus_fingerprint_oracle_sql() -> str:
    h = "CAST('0x' || substr(md5(text), 1, 15) AS BIGINT)"
    return f"""
        SELECT COUNT(*) AS n_docs,
               CAST(bit_xor({h}) AS BIGINT) AS xor_fp,
               CAST(SUM(CAST({h} AS HUGEINT))
                    % CAST(2305843009213693952 AS HUGEINT) AS BIGINT)
                   AS sum_fp
        FROM documents
    """


def word_burstiness(docs_ds):
    """Per-word burstiness table: document frequency, total
    occurrences, sum of squared per-doc counts, and the
    variance-to-mean ratio in EXACT integer ppm —
    vmr = var/mean over docs containing the word
        = (sum_sq·df − occ²) / (df·occ),
    reported as ``(10^6·(sum_sq·df − occ²)) // (df·occ)`` so engine and
    SQL agree with no float in sight. VMR ≈ 1e6 means Poisson-like
    function words; high VMR flags topical/bursty words — the signal
    keyword extractors and stopword-list builders threshold on.

    Scale shape: per-batch (word, occ, sum_sq, df) partials from a
    vectorized doc×word count, merged by the word-partitioned
    distributed sum (vocab never on the driver); the ppm ratio is a
    stateless final map."""
    import pandas as pd

    from autoner_ray.stages.combine import partitioned_key_sum

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "word": pa.array([], pa.string()),
                "df": pa.array([], pa.int64()),
                "occurrences": pa.array([], pa.int64()),
                "sum_sq": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        words, docs = [], []
        for i, x in enumerate(t["text"].to_pylist()):
            ws = (x or "").split(" ")
            words.extend(ws)
            docs.extend([i] * len(ws))
        df = pd.DataFrame({"w": words, "d": docs})
        per_doc = df.groupby(["w", "d"], sort=False).size()
        agg = per_doc.groupby(level=0).agg(["count", "sum"])
        sq = (per_doc * per_doc).groupby(level=0).sum()
        return pa.table(
            {
                "word": pa.array(agg.index.to_numpy(object), pa.string()),
                "df": pa.array(
                    agg["count"].to_numpy(np.int64), pa.int64()
                ),
                "occurrences": pa.array(
                    agg["sum"].to_numpy(np.int64), pa.int64()
                ),
                "sum_sq": pa.array(sq.to_numpy(np.int64), pa.int64()),
            }
        )

    summed = partitioned_key_sum(
        docs_ds.map_batches(partial, batch_format="pyarrow"),
        keys=["word"], sum_cols=["df", "occurrences", "sum_sq"],
        part_on=("word",),
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0 or "word" not in (
            t.column_names
        ):
            return pa.table(
                {
                    "word": pa.array([], pa.string()),
                    "df": pa.array([], pa.int64()),
                    "occurrences": pa.array([], pa.int64()),
                    "sum_sq": pa.array([], pa.int64()),
                    "vmr_ppm": pa.array([], pa.int64()),
                }
            )
        # arbitrary-precision ints, matching the twin's HUGEINT sums:
        # sum_sq*df and the ppm-scaled numerator exceed int64 for
        # frequent words at real corpus sizes and would silently wrap
        # under numpy. The loop runs over the post-aggregation
        # vocab-sized table, not the corpus. (numerator ≥ 0 by
        # Cauchy-Schwarz, so floor == DuckDB's truncating //.)
        vmr = [
            (1_000_000 * (int(s) * int(d) - int(o) * int(o)))
            // (int(d) * int(o))
            for s, d, o in zip(
                t["sum_sq"].to_pylist(),
                t["df"].to_pylist(),
                t["occurrences"].to_pylist(),
            )
        ]
        return t.append_column("vmr_ppm", pa.array(vmr, pa.int64()))

    return summed.map_batches(finish, batch_format="pyarrow")


def word_burstiness_oracle_sql() -> str:
    return """
        WITH pd AS (
            SELECT doc_id, word, COUNT(*) AS c
            FROM (
                SELECT doc_id, unnest(string_split(text, ' ')) AS word
                FROM documents
            ) GROUP BY 1, 2
        ),
        agg AS (
            SELECT word, COUNT(*) AS df, SUM(c) AS occurrences,
                   SUM(c * c) AS sum_sq
            FROM pd GROUP BY 1
        )
        SELECT word, CAST(df AS BIGINT) AS df,
               CAST(occurrences AS BIGINT) AS occurrences,
               CAST(sum_sq AS BIGINT) AS sum_sq,
               CAST((1000000 * (sum_sq * df - occurrences * occurrences))
                    // (df * occurrences) AS BIGINT) AS vmr_ppm
        FROM agg
    """


def vocab_blocking_keys(docs_ds, num_partitions: int | None = None):
    """Entity-resolution BLOCKING pass over the corpus vocabulary:
    each distinct word gets a cheap blocking key (first character +
    word length — the classic initial+length blocker), and the full
    block index ``(block_key, n_words, canonical)`` is emitted with
    canonical = the lexicographically smallest member. Candidate pairs
    for the expensive pairwise compare (``vocab_edit_distance_pairs``)
    then form only WITHIN a block — the standard sub-quadratic ER
    recipe; singleton blocks are kept so the index is the complete
    key -> bucket map.

    Scale shape: per-batch distinct-word partials -> word-partitioned
    vocab combine (vocab never in one block) -> per-block (key ->
    count, min-word) partials -> KEY-hash-partitioned final combine.
    Every stage is vocab-sized; nothing corpus-sized shuffles.
    """
    from autoner_ray.cluster import default_num_partitions
    from autoner_ray.functions.hashing import md5_64_array
    from autoner_ray.stages.combine import partitioned_key_sum

    P = num_partitions or default_num_partitions()

    def words_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "word": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        txt = pc.fill_null(t["text"], "").combine_chunks()
        flat = pc.split_pattern(txt, pattern=" ").flatten()
        flat = flat.filter(pc.not_equal(flat, ""))
        agg = (
            pa.table({"word": flat})
            .group_by("word")
            .aggregate([("word", "count")])
        )
        return agg.rename_columns(["word", "n"])

    vocab = partitioned_key_sum(
        docs_ds.map_batches(words_partial, batch_format="pyarrow"),
        ["word"], ["n"],
    )

    _partial_schema = pa.schema(
        [
            ("block_key", pa.string()),
            ("n_words", pa.int64()),
            ("canonical", pa.string()),
            ("part", pa.int32()),
        ]
    )

    def key_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _partial_schema.empty_table()
        w = t["word"].combine_chunks()
        head = pc.utf8_slice_codeunits(w, 0, 1)
        ln = pc.cast(pc.utf8_length(w), pa.string())
        key = pc.binary_join_element_wise(head, ln, "")
        agg = (
            pa.table({"block_key": key, "canonical": w})
            .group_by("block_key")
            .aggregate([("block_key", "count"), ("canonical", "min")])
            .rename_columns(["block_key", "n_words", "canonical"])
        )
        pid = (
            md5_64_array(agg["block_key"].to_pylist())
            % np.uint64(P)
        ).astype(np.int32)
        return pa.table(
            {
                "block_key": agg["block_key"],
                "n_words": agg["n_words"].cast(pa.int64()),
                "canonical": agg["canonical"],
                "part": pa.array(pid),
            }
        )

    def final(df) -> "pd.DataFrame":
        import pandas as pd

        cols = ["block_key", "n_words", "canonical"]
        if len(df) == 0 or "block_key" not in df.columns:
            return pd.DataFrame(
                {
                    "block_key": pd.Series([], dtype="object"),
                    "n_words": pd.Series([], dtype="int64"),
                    "canonical": pd.Series([], dtype="object"),
                }
            )
        agg = (
            df.groupby("block_key", as_index=False)
            .agg(n_words=("n_words", "sum"), canonical=("canonical", "min"))
        )
        agg["n_words"] = agg["n_words"].astype("int64")
        return agg[cols]

    return (
        vocab.map_batches(key_partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(final, batch_format="pandas")
    )


def vocab_blocking_keys_oracle_sql() -> str:
    return """
        WITH words AS (
            SELECT DISTINCT t.word
            FROM documents d,
                 UNNEST(string_split(d.text, ' ')) AS t(word)
            WHERE t.word <> ''
        ),
        keyed AS (
            SELECT word,
                   substr(word, 1, 1) || CAST(length(word) AS VARCHAR)
                       AS block_key
            FROM words
        )
        SELECT block_key,
               CAST(COUNT(*) AS BIGINT) AS n_words,
               MIN(word) AS canonical
        FROM keyed
        GROUP BY block_key
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


def postings_delta_encoding(docs_ds, num_partitions: int | None = None):
    """Delta-encoded postings audit — the storage kernel behind
    inverted-index compaction: per term, the sorted doc-id posting list
    becomes a gap list (first id, then successive differences) and the
    exact LEB128/varint byte cost of those gaps. Output
    (word, df, first_doc, max_gap, varint_bytes): the sizing numbers an
    index shard planner needs, with the gap construction itself pinned
    by the SQL twin's list reconstruction.

    Scale shape: the (word, doc_id) explode pre-dedups per batch, the
    single hash shuffle is word-partitioned (``map_groups`` on the
    term key — posting lists co-locate by construction), and the
    per-group gap/varint math is one numpy diff + digitize. Varint
    bytes use exact integer THRESHOLD compares (1 byte under 2^7, 2
    under 2^14, ...), never float log2."""
    import numpy as np

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

    def per_word(df) -> "pd.DataFrame":
        import pandas as pd

        if len(df) == 0 or "word" not in df.columns:
            return pd.DataFrame(
                {
                    "word": pd.Series(dtype="object"),
                    "df": pd.Series(dtype="int64"),
                    "first_doc": pd.Series(dtype="int64"),
                    "max_gap": pd.Series(dtype="int64"),
                    "varint_bytes": pd.Series(dtype="int64"),
                }
            )
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

    return (
        docs_ds.map_batches(explode, batch_format="pyarrow")
        .groupby("word")
        .map_groups(per_word, batch_format="pandas")
    )


def feature_hashing_stats(docs_ds, dim: int = 64):
    """Hashing-trick audit — the collision census you run before
    committing to a feature-hashed bag-of-words dim: every word maps to
    bucket ``md5_64(word) % dim``; per bucket, how many DISTINCT words
    collide there and their total corpus occurrences. Output
    (bucket, n_distinct_words, total_count) — one row per non-empty
    bucket.

    Scale shape: per-batch (word, count) partials feed ONE
    word-partitioned combine (vocab never on the driver); bucket ids
    ride along as a pure function of the word, so the final per-bucket
    rollup is a bounded combine over ``dim`` keys. The md5 bucket map
    is memoized per worker (Zipfian hits) and mirrored bit-for-bit by
    the SQL twin."""
    import numpy as np

    from autoner_ray.functions.hashing import md5_64_array
    from autoner_ray.stages.combine import (
        bounded_key_sum,
        partitioned_key_sum,
    )
    from autoner_ray.stages.tokenize import sentence_token_stream

    _w_schema = pa.schema([("word", pa.string()), ("c", pa.int64())])

    def word_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _w_schema.empty_table()
        from collections import Counter

        counts: Counter = Counter()
        for text in t["text"].to_pylist():
            counts.update(sentence_token_stream(text or ""))
        return pa.table(
            {
                "word": pa.array(list(counts.keys()), pa.string()),
                "c": pa.array(list(counts.values()), pa.int64()),
            },
            schema=_w_schema,
        )

    per_word = partitioned_key_sum(
        docs_ds.map_batches(word_partial, batch_format="pyarrow",
                            batch_size=65536),
        keys=["word"], sum_cols=["c"], part_on=("word",),
    )

    _b_schema = pa.schema(
        [("bucket", pa.int64()), ("n_distinct_words", pa.int64()),
         ("total_count", pa.int64())]
    )

    def bucketize(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0 or "word" not in (
            t.schema.names
        ):
            return _b_schema.empty_table()
        import pandas as pd

        b = (md5_64_array(t["word"].to_pylist())
             % np.uint64(dim)).astype(np.int64)
        df = pd.DataFrame({"bucket": b, "c": t["c"].to_numpy()})
        g = df.groupby("bucket", as_index=False).agg(
            n_distinct_words=("c", "size"), total_count=("c", "sum")
        )
        return pa.Table.from_pandas(
            g, schema=_b_schema, preserve_index=False
        ).replace_schema_metadata(None)

    return bounded_key_sum(
        per_word.map_batches(bucketize, batch_format="pyarrow"),
        keys=["bucket"], sum_cols=["n_distinct_words", "total_count"],
    )


def quantile_normalize_lengths(docs_ds):
    """Quantile normalization of per-source doc-length distributions
    onto the GLOBAL length distribution — the distribution-matching
    pass that makes sources comparable before mixing (the same method
    microarray pipelines made standard): a doc at within-source
    (average-rank) quantile q is assigned the global length at
    quantile q. Ties share an average rank, so equal lengths in one
    source map to equal targets and the result is deterministic at any
    parallelism. Output (doc_id, source, n_chars, n_chars_norm), all
    integers: target index = ((r2 - 1) * N) // (2 * n_s) into the
    ascending global multiset (r2 = doubled average rank).

    Scale shape: NO global sort — per-source and global value
    histograms (bounded length domain) feed the bounded combine; both
    rank maps and the global order-statistic array derive from
    cumulative sums and broadcast; the rewrite is one vectorized
    gather per batch."""
    import numpy as np

    import ray

    from autoner_ray.stages.combine import bounded_key_sum

    _h_schema = pa.schema(
        [("source", pa.string()), ("val", pa.int64()), ("n", pa.int64())]
    )

    def hist_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _h_schema.empty_table()
        import pandas as pd

        g = (
            pd.DataFrame(
                {
                    "source": t["source"].to_pylist(),
                    "val": t["n_chars"].to_numpy(zero_copy_only=False),
                }
            )
            .groupby(["source", "val"], as_index=False)
            .size()
        )
        return pa.table(
            {
                "source": pa.array(g["source"], pa.string()),
                "val": pa.array(g["val"].to_numpy(), pa.int64()),
                "n": pa.array(g["size"].to_numpy(), pa.int64()),
            },
            schema=_h_schema,
        )

    hists = bounded_key_sum(
        docs_ds.select_columns(["source", "n_chars"]).map_batches(
            hist_partial, batch_format="pyarrow", batch_size=65536,
        ),
        keys=["source", "val"], sum_cols=["n"],
    ).to_pandas()
    # global ascending multiset as (values, cumulative counts)
    gl = hists.groupby("val", as_index=False)["n"].sum().sort_values("val")
    g_vals = gl["val"].to_numpy(np.int64)
    g_cum = gl["n"].to_numpy(np.int64).cumsum()
    n_total = int(g_cum[-1])
    # per-source doubled-average-rank map and source sizes
    rank_maps: dict = {}
    sizes: dict = {}
    for src, g in hists.groupby("source"):
        g = g.sort_values("val")
        cnt = g["n"].to_numpy(np.int64)
        below = np.concatenate([[0], np.cumsum(cnt)[:-1]])
        rank_maps[src] = dict(
            zip(g["val"], (2 * below + cnt + 1).astype(np.int64))
        )
        sizes[src] = int(cnt.sum())
    state = ray.put((rank_maps, sizes, g_vals, g_cum, n_total))

    _o_schema = pa.schema(
        [("doc_id", pa.int64()), ("source", pa.string()),
         ("n_chars", pa.int64()), ("n_chars_norm", pa.int64())]
    )

    class Rewrite:
        def __init__(self) -> None:
            (self.rank_maps, self.sizes, self.g_vals, self.g_cum,
             self.n_total) = ray.get(state)

        def __call__(self, t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or len(t) == 0:
                return _o_schema.empty_table()
            import pandas as pd

            src = t["source"].to_pylist()
            val = t["n_chars"].to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            r2 = np.fromiter(
                (self.rank_maps[s][v] for s, v in zip(src, val)),
                np.int64, count=len(val),
            )
            ns = np.fromiter(
                (self.sizes[s] for s in src), np.int64, count=len(val)
            )
            idx = (r2 - 1) * self.n_total // (2 * ns)
            idx = np.minimum(idx, self.n_total - 1)
            # order statistic: first value whose cumcount exceeds idx
            pos = np.searchsorted(self.g_cum, idx, side="right")
            norm = self.g_vals[pos]
            return pa.table(
                {
                    "doc_id": t["doc_id"],
                    "source": t["source"],
                    "n_chars": pa.array(val, pa.int64()),
                    "n_chars_norm": pa.array(norm, pa.int64()),
                },
                schema=_o_schema,
            )

    return docs_ds.select_columns(
        ["doc_id", "source", "n_chars"]
    ).map_batches(Rewrite, batch_format="pyarrow", batch_size=65536,
                  concurrency=2)


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

    Scale shape: per-source token counts ride the bounded combine
    (source domain is small); the water-filling solve is driver
    arithmetic over that bounded table, mirrored step-for-step by the
    SQL twin (sorted prefix sums + threshold window)."""
    import numpy as np

    from autoner_ray.stages.combine import bounded_key_sum
    from autoner_ray.stages.tokenize import sentence_token_stream

    _t_schema = pa.schema(
        [("source", pa.string()), ("n", pa.int64())]
    )

    def tok_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _t_schema.empty_table()
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

    counts = bounded_key_sum(
        docs_ds.select_columns(["source", "text"]).map_batches(
            tok_partial, batch_format="pyarrow", batch_size=65536
        ),
        keys=["source"], sum_cols=["n"],
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
        if t.num_columns == 0 or len(t) == 0:
            return _schema.empty_table()
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

    Scale shape: one hash shuffle on ``source`` (same partition key as
    the other per-source rollups), per-group vectorized cumsum over
    the doc_id-sorted token counts — rows shuffled are (source,
    doc_id, n) partials, never text."""
    import numpy as np
    import pandas as pd

    _p_schema = pa.schema(
        [("source", pa.string()), ("doc_id", pa.int64()),
         ("n", pa.int64())]
    )

    def tok_rows(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _p_schema.empty_table()
        n = [len((s or "").split(" ")) for s in t["text"].to_pylist()]
        return pa.table(
            {
                "source": t["source"],
                "doc_id": t["doc_id"],
                "n": pa.array(n, pa.int64()),
            },
            schema=_p_schema,
        )

    _o_cols = ["source", "n_docs", "total_tokens", "n_sequences",
               "n_docs_split"]

    def pack(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("doc_id", kind="mergesort")
        n = df["n"].to_numpy(np.int64)
        start = np.concatenate([[0], np.cumsum(n)[:-1]])
        end = start + n - 1
        split = ((n > 0) & (start // budget != end // budget)).sum()
        total = int(n.sum())
        return pd.DataFrame(
            {
                "source": [df["source"].iloc[0]],
                "n_docs": [len(df)],
                "total_tokens": [total],
                "n_sequences": [(total + budget - 1) // budget],
                "n_docs_split": [int(split)],
            }
        )

    return (
        docs_ds.map_batches(tok_rows, batch_format="pyarrow")
        .groupby("source")
        .map_groups(pack, batch_format="pandas")
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

    Scale shape: word-count tables ride the word-partitioned
    :func:`combine.keyed_combine` (vocab is corpus-sized, NEVER
    a driver dict); target and corpus counts meet in a word-keyed
    cogroup join; per-doc scoring is a second word-partitioned join of
    (word, doc_id, k) occurrence partials against the term table,
    pre-reduced per doc in the join partition; the doc rollup is
    doc-partitioned. Three hash shuffles total (word x2 co-keyed,
    doc), scalars N_t/N_c/V are tiny Dataset aggregates.
    """
    import math

    import pandas as pd

    from autoner_ray.stages.combine import keyed_combine
    from autoner_ray.stages.joins import cogroup_join

    _w_schema = pa.schema(
        [("word", pa.string()), ("n_c", pa.int64()),
         ("n_t", pa.int64())]
    )

    def word_partials(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _w_schema.empty_table()
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
        keys=["word"],
        aggs=[("n_c", "sum"), ("n_t", "sum")],
        part_on=("word",),
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
        if t.num_columns == 0 or len(t) == 0:
            return _t_schema.empty_table()
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
        if t.num_columns == 0 or len(t) == 0:
            return _o_schema.empty_table()
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

    _p_cols = ["doc_id", "n_tokens", "wsum"]

    def per_doc_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {c: pa.array([], pa.int64()) for c in _p_cols}
            )
        df = pd.DataFrame(
            {
                "doc_id": t["doc_id"].to_numpy(zero_copy_only=False),
                "n_tokens": t["k"].to_numpy(zero_copy_only=False),
                "wsum": (
                    t["k"].to_numpy(zero_copy_only=False)
                    * t["term"].to_numpy(zero_copy_only=False)
                ),
            }
        ).groupby("doc_id", as_index=False).sum()
        return pa.Table.from_pandas(
            df, preserve_index=False
        ).replace_schema_metadata(None)

    rolled = keyed_combine(
        joined.map_batches(per_doc_partial, batch_format="pyarrow"),
        keys=["doc_id"],
        aggs=[("n_tokens", "sum"), ("wsum", "sum")],
        part_on=("doc_id",),
    )

    _f_schema = pa.schema(
        [("doc_id", pa.int64()), ("n_tokens", pa.int64()),
         ("dsir_microweight", pa.int64())]
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _f_schema.empty_table()
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "n_tokens": pc.cast(t["n_tokens"], pa.int64()),
                "dsir_microweight": pc.cast(t["wsum"], pa.int64()),
            },
            schema=_f_schema,
        )

    return rolled.map_batches(finish, batch_format="pyarrow")


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
    counts ONLY candidate words; a bounded combine sums them and the
    exact integer filter ``n * phi_denom >= N`` emits the final
    (word, n) rows — the sketch never leaks into the answer, it only
    prunes the shuffle down to candidate rows.
    """
    import collections

    import ray

    from autoner_ray.stages.combine import bounded_key_sum

    _c_schema = pa.schema(
        [("word", pa.string()), ("n", pa.int64())]
    )

    def candidates_batch(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _c_schema.empty_table()
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

    partials = bounded_key_sum(
        docs_ds.map_batches(candidates_batch, batch_format="pyarrow"),
        keys=["word"], sum_cols=["n"],
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
        if t.num_columns == 0 or len(t) == 0:
            return _c_schema.empty_table()
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

    counts = bounded_key_sum(
        docs_ds.map_batches(verify_batch, batch_format="pyarrow"),
        keys=["word"], sum_cols=["n"],
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _c_schema.empty_table()
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


def ngram_overlap_census(docs_ds, n: int = 5):
    """Per-doc inter-document n-gram overlap — the diversity /
    memorization census a corpus audit reads: for each doc, the
    fraction (ppm) of its DISTINCT word n-grams that also appear in at
    least one OTHER doc. High overlap = boilerplate / near-dup / heavy
    quotation; the per-doc companion of the corpus-level shingle-df
    histogram. Output (doc_id, n_grams, n_shared, overlap_ppm).

    Scale shape: (gram, doc_id) distinct rows shuffle ONCE on the
    gram's content hash (partition key only — group identity stays
    the gram STRING, so hash collisions cannot merge distinct grams
    and both sides agree exactly); the per-gram group marks rows
    whose gram has document frequency >= 2, pre-reduces to per-doc
    partials, and a doc-partitioned sum finishes — the
    substring-dedup shape with df semantics."""
    import pandas as pd

    from autoner_ray.stages.combine import keyed_combine
    from autoner_ray.stages.joins import _stable_part_col
    from autoner_ray.stages.tokenize import sentence_token_stream

    from autoner_ray.cluster import default_num_partitions

    P = default_num_partitions()
    _g_schema = pa.schema(
        [("g", pa.string()), ("doc_id", pa.int64()),
         ("part", pa.int32())]
    )

    def gram_rows(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _g_schema.empty_table()
        g_col, d_col = [], []
        for did, text in zip(t["doc_id"].to_pylist(),
                             t["text"].to_pylist()):
            toks = sentence_token_stream(text or "")
            grams = {
                " ".join(toks[i:i + n])
                for i in range(len(toks) - n + 1)
            }
            for gm in grams:
                g_col.append(gm)
                d_col.append(int(did))
        out = pa.table(
            {
                "g": pa.array(g_col, pa.string()),
                "doc_id": pa.array(d_col, pa.int64()),
            }
        )
        return out.append_column(
            "part", _stable_part_col(out, ("g",), P)
        )

    _p_cols = ["doc_id", "n_grams", "n_shared"]

    def mark_shared(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({c: [] for c in _p_cols}).astype("int64")
        df_count = df.groupby("g")["doc_id"].transform("nunique")
        shared = (df_count >= 2).astype("int64")
        out = pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_grams": 1,
                "n_shared": shared,
            }
        ).groupby("doc_id", as_index=False).sum()
        return out

    rolled = keyed_combine(
        docs_ds.map_batches(gram_rows, batch_format="pyarrow")
        .groupby("part")
        .map_groups(mark_shared, batch_format="pandas"),
        keys=["doc_id"],
        aggs=[("n_grams", "sum"), ("n_shared", "sum")],
        part_on=("doc_id",),
    )

    _o_schema = pa.schema(
        [("doc_id", pa.int64()), ("n_grams", pa.int64()),
         ("n_shared", pa.int64()), ("overlap_ppm", pa.int64())]
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _o_schema.empty_table()
        import numpy as np

        ng = t["n_grams"].to_numpy(zero_copy_only=False).astype(np.int64)
        ns = t["n_shared"].to_numpy(zero_copy_only=False).astype(np.int64)
        ppm = np.where(ng > 0, (1_000_000 * ns) // np.maximum(ng, 1),
                       0).astype(np.int64)
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "n_grams": pa.array(ng, pa.int64()),
                "n_shared": pa.array(ns, pa.int64()),
                "overlap_ppm": pa.array(ppm, pa.int64()),
            },
            schema=_o_schema,
        )

    return rolled.map_batches(finish, batch_format="pyarrow")


def zipf_slope(docs_ds, top_k: int = 100):
    """Zipf's-law exponent of the corpus frequency distribution — the
    one-number lexical-health check (natural text ~ -1; templated or
    deduplicated-to-death corpora drift off): OLS slope of
    ln(count) on ln(rank) over the TOP ``top_k`` words (count desc,
    word asc ties — deterministic ranks). Per-point micro-nat
    quantization before the driver-side OLS fold keeps both sides
    bit-identical; output one row (n_words, slope_micro,
    intercept_micro).

    Scale shape: word counts ride the word-partitioned combine; each
    partition emits its LOCAL top-k (a global top-k member must be in
    its partition's top-k — count-per-word is complete after the
    combine), the driver merges k*P candidate rows, and the OLS is
    arithmetic over top_k points."""
    import numpy as np
    import pandas as pd

    from autoner_ray.stages.combine import keyed_combine

    _w_schema = pa.schema(
        [("word", pa.string()), ("n", pa.int64())]
    )

    def word_partials(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _w_schema.empty_table()
        import collections

        c: collections.Counter = collections.Counter()
        for text in t["text"].to_pylist():
            c.update((text or "").split(" "))
        keys = list(c)
        return pa.table(
            {
                "word": pa.array(keys, pa.string()),
                "n": pa.array([c[k] for k in keys], pa.int64()),
            },
            schema=_w_schema,
        )

    counts = keyed_combine(
        docs_ds.map_batches(word_partials, batch_format="pyarrow"),
        keys=["word"], aggs=[("n", "sum")], part_on=("word",),
    )

    def local_topk(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _w_schema.empty_table()
        df = pd.DataFrame(
            {
                "word": t["word"].to_pylist(),
                "n": t["n"].to_numpy(zero_copy_only=False),
            }
        ).sort_values(["n", "word"], ascending=[False, True],
                      kind="mergesort").head(top_k)
        return pa.Table.from_pandas(
            df, schema=_w_schema, preserve_index=False
        ).replace_schema_metadata(None)

    cand = counts.map_batches(
        local_topk, batch_format="pyarrow", batch_size=None
    ).to_pandas()
    cand = cand.sort_values(["n", "word"], ascending=[False, True],
                            kind="mergesort").head(top_k)
    n = cand["n"].to_numpy(np.int64)
    k = len(n)
    # micro-nat INTEGER points + the exact moment identity, so every
    # sum is integer arithmetic (order-independent, twin-identical);
    # only the final ratios touch floats, on identical exact integers
    xi = np.floor(np.log(np.arange(1, k + 1)) * 1e6 + 0.5).astype(
        np.int64
    )
    yi = np.floor(np.log(n.astype(np.float64)) * 1e6 + 0.5).astype(
        np.int64
    )
    sx, sy = int(xi.sum()), int(yi.sum())
    sxy = int((xi * yi).sum())
    sxx = int((xi * xi).sum())
    num = k * sxy - sx * sy
    den = k * sxx - sx * sx
    slope_f = num / den
    intercept_f = (sy - slope_f * sx) / (k * 1e6)
    import math

    return pa.table(
        {
            "n_words": pa.array([k], pa.int64()),
            "slope_micro": pa.array(
                [int(math.floor(slope_f * 1e6 + 0.5))], pa.int64()
            ),
            "intercept_micro": pa.array(
                [int(math.floor(intercept_f * 1e6 + 0.5))], pa.int64()
            ),
        }
    )
