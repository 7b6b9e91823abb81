"""Seeded corpus generator: the only input the engine ever receives.

``generate(seed, spec)`` returns a ``documents`` table (doc_id, text,
lang, source, n_chars) — the same schema as the engine's fixture
corpora — and ``write_corpus`` stores it as ``documents.parquet``.
The same seed and spec give a byte-identical file; another seed gives
the same row count and the same share of every planted property,
because the planted docs are counted from the spec, not sampled.

Words are drawn Zipf-skewed over a fixed 30-word vocabulary that holds
every surface of the built-in dictionaries (``autoner_ray.dicts``), so
the dictionary matcher has real work and the edge set stays small.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# Fixed Zipf rank order; short words rank high so that an ordinary doc
# passes the curation quality filter (mean word length <= 5).
VOCAB = (
    "the", "a", "data", "key", "row", "sort", "scan", "join", "hash",
    "table", "value", "fast", "slow", "part", "line", "group", "query",
    "filter", "agg", "order", "merge", "spark", "batch", "column",
    "vector", "stream", "window", "small", "big", "customer",
)
_VOCAB_ARR = np.asarray(VOCAB)
LANGS = ("en", "de", "fr", "es", "zh")
N_SOURCES = 20
DECONTAM_SPAN = 10  # words copied from a benchmark-split doc (>= 8-gram)


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of one generated corpus.

    ``sentence_sep`` "\\n" gives multi-sentence docs for the KG
    pipelines (the tokenizer splits sentences on newlines); " " gives
    one-paragraph docs for curation, whose SQL oracle splits on single
    spaces only. The four shares plant curation properties; each is a
    share of ``n_docs`` and is realised exactly.
    """

    n_docs: int
    sentences: tuple[int, int] = (1, 4)
    words: tuple[int, int] = (8, 24)
    sentence_sep: str = "\n"
    zipf_s: float = 0.6
    dup_share: float = 0.0
    near_share: float = 0.0
    reject_share: float = 0.0
    contam_share: float = 0.0
    reject_words: tuple[int, int] = (5, 15)


def _word_probs(s: float) -> np.ndarray:
    w = 1.0 / np.arange(1, len(VOCAB) + 1) ** s
    return w / w.sum()


def _words(rng, probs, n: int) -> list[str]:
    return _VOCAB_ARR[rng.choice(len(VOCAB), size=n, p=probs)].tolist()


def _docs(rng, probs, spec: CorpusSpec) -> list[list[list[str]]]:
    """Docs as lists of sentences of words, drawn in three vector calls."""
    lo, hi = spec.sentences
    n_sent = rng.integers(lo, hi + 1, size=spec.n_docs)
    lengths = rng.integers(spec.words[0], spec.words[1] + 1,
                           size=int(n_sent.sum()))
    words = _words(rng, probs, int(lengths.sum()))
    ends = np.cumsum(lengths)
    sents = [words[e - k:e] for e, k in zip(ends.tolist(), lengths.tolist())]
    firsts = np.cumsum(n_sent) - n_sent
    return [
        sents[f:f + k] for f, k in zip(firsts.tolist(), n_sent.tolist())
    ]


def _count(share: float, n: int) -> int:
    return int(round(share * n))


def generate(seed: int, spec: CorpusSpec) -> pa.Table:
    rng = np.random.default_rng(seed)
    probs = _word_probs(spec.zipf_s)
    n = spec.n_docs
    docs = _docs(rng, probs, spec)

    # Planted properties go to disjoint doc sets, drawn by one
    # permutation so their counts never depend on the seed.
    order = [int(i) for i in rng.permutation(n)]
    counts = [
        _count(spec.reject_share, n), _count(spec.dup_share, n),
        _count(spec.near_share, n), _count(spec.contam_share, n),
    ]
    if sum(counts) > n // 2:
        raise ValueError(f"planted shares exceed half the corpus: {counts}")
    cut = np.cumsum([0] + counts)
    rejects, dups, nears, _ = (
        order[cut[i]:cut[i + 1]] for i in range(4)
    )
    plain = order[cut[-1]:]
    # contamination targets sit outside the doc_id % 10 == 0 split
    contam = [i for i in plain if i % 10 != 0][: counts[3]]
    plain_set = set(plain) - set(contam)
    bench = sorted(i for i in plain_set if i % 10 == 0)
    bases = sorted(plain_set)
    if counts[3] and (len(contam) < counts[3] or not bench):
        raise ValueError("corpus too small for the contamination share")

    for i in rejects:
        k = int(rng.integers(spec.reject_words[0], spec.reject_words[1] + 1))
        docs[i] = [_words(rng, probs, k)]
    for i in dups:
        src = bases[int(rng.integers(len(bases)))]
        docs[i] = [list(s) for s in docs[src]]
    # near-duplicates: clusters of 2-3 variants of one base doc, each
    # variant one word substitution away from the base
    j = 0
    while j < len(nears):
        src = bases[int(rng.integers(len(bases)))]
        size = min(int(rng.integers(2, 4)), len(nears) - j)
        for i in nears[j:j + size]:
            sents = [list(s) for s in docs[src]]
            s = int(rng.integers(len(sents)))
            p = int(rng.integers(len(sents[s])))
            old = sents[s][p]
            sents[s][p] = VOCAB[(VOCAB.index(old) + 1 + int(
                rng.integers(len(VOCAB) - 1))) % len(VOCAB)]
            docs[i] = sents
        j += size
    for i in contam:
        src = bench[int(rng.integers(len(bench)))]
        flat = [w for s in docs[src] for w in s]
        a = int(rng.integers(max(len(flat) - DECONTAM_SPAN, 0) + 1))
        docs[i][-1] = docs[i][-1] + flat[a:a + DECONTAM_SPAN]

    texts = [
        spec.sentence_sep.join(" ".join(s) for s in d) for d in docs
    ]
    langs = [LANGS[int(x)] for x in rng.integers(len(LANGS), size=n)]
    sources = [f"src{int(x)}" for x in rng.integers(N_SOURCES, size=n)]
    return pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
            "source": pa.array(sources, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )


def write_corpus(table: pa.Table, corpus_dir: str) -> str:
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(corpus_dir, "documents.parquet")
    pq.write_table(table, path)
    return path
