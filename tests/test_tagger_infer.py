"""Inference kernel vs the retained training forward.

``infer_states`` (per-direction scan), ``encode_batch`` and the
array decode in ``Tagger.predict_batch`` must reproduce what the training
forward (``forward`` / ``forward_v2``) decodes sentence by sentence:
identical ``(l, r, type)`` spans, hidden states and scores within 1e-5,
whatever batch a sentence is decoded in. ``HybridPairs`` must equal a
plain-Python union of ``segment_dp`` mentions and those spans, counted
with ``Counter`` over ``combinations``; ``mention_table`` must equal the
per-span row loop it replaced.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest

from autoner_ray.state.tagger import (
    NONE_TYPE,
    PAD,
    Tagger,
    build_vocabs,
    encode_batch,
    encode_sentence,
    forward,
    forward_v2,
    infer_states,
    token_budget_batches,
)

ARTIFACTS = Path(__file__).resolve().parent.parent / "autoner_ray" / "artifacts"
HYBRID_BATCH = 128
TOL = 1e-5


@lru_cache(maxsize=None)
def _artifact(name: str) -> Tagger:
    return Tagger.from_bytes((ARTIFACTS / f"{name}.npz").read_bytes())


@lru_cache(maxsize=None)
def _kg_hybrid_sentences(seed: int) -> tuple:
    """The kg_hybrid workload's corpus sentences for ``seed``."""
    from kgbench.corpus import CorpusSpec, generate
    from kgbench.workloads import KG_SPEC

    from autoner_ray.stages.tokenize import (
        sentence_token_stream,
        split_sentences,
    )

    docs = generate(seed, CorpusSpec(n_docs=400, **KG_SPEC))
    return tuple(
        toks
        for text in docs["text"].to_pylist()
        for sent in split_sentences(text or "")
        if (toks := sentence_token_stream(sent))
    )


@lru_cache(maxsize=None)
def _fixture_sentences(scale_dir: str) -> tuple:
    """Sentences of a fixture corpus (``documents.parquet``)."""
    path = Path(scale_dir) / "documents.parquet"
    if not path.exists():
        pytest.skip(f"fixture corpus not present: {path}")
    from kgbench.workloads import corpus_sentences

    return tuple(corpus_sentences(str(path)))


@lru_cache(maxsize=None)
def _random_tagger(arch: str) -> Tagger:
    """A small random-init tagger over the seed-1 kg_hybrid vocabulary
    (chars seen fewer than 3 times stay out of c_map, so UNK occurs)."""
    sents = _kg_hybrid_sentences(1)
    types = [["T"] if i % 3 else ["U"] for i in range(len(sents))]
    c_map, w_map, tl_map = build_vocabs(list(sents), types,
                                        char_min_count=3)
    hp = dict(char_dim=8, word_dim=8, hidden=16, seed=11)
    if arch == "lstm":
        hp.update(layers=2, label_dim=10)
    return Tagger(c_map, w_map, tl_map, arch=arch, **hp)


def _tagger(name: str) -> Tagger:
    if name.startswith("random_"):
        return _random_tagger(name.removeprefix("random_"))
    return _artifact(name)


def _train_forward(tg: Tagger, char_ids, word_ids):
    if tg.arch == "lstm":
        hf, hb, _ = forward_v2(tg.params, char_ids, word_ids)
    else:
        hf, hb, *_ = forward(tg.params, char_ids, word_ids)
    return hf, hb


def _oracle_predict(tg: Tagger, sentences, threshold=0.0, none_bias=0.0,
                    budget=12000):
    """Per-sentence encode, token-budget buckets, the training forward and
    a per-sentence break/typing loop. Returns (spans per sentence, chunk
    scores per sentence)."""
    records = [
        (*encode_sentence(t, tg.c_map, tg.w_map), i)
        for i, t in enumerate(sentences)
    ]
    spans: list = [None] * len(sentences)
    scores: list = [None] * len(sentences)
    for bucket in token_budget_batches(records, budget):
        hf, hb = _train_forward(tg, *tg._pad_batch(bucket))
        for b, (_ci, _wi, slots, i) in enumerate(bucket):
            sc = tg._chunk_head(
                np.concatenate([hf[slots, b], hb[slots, b]], axis=1)
            )
            breaks = [k for k, s in enumerate(sc) if s < threshold]
            if 0 not in breaks:
                breaks.insert(0, 0)
            if len(slots) - 1 not in breaks:
                breaks.append(len(slots) - 1)
            out = []
            for a, c in zip(breaks, breaks[1:]):
                logits = tg._type_head(
                    np.concatenate([hb[slots[a], b], hf[slots[c], b]])[None]
                )[0].copy()
                if none_bias:
                    logits[tg.types.index(NONE_TYPE)] += none_bias
                ti = int(np.argmax(logits))
                if tg.types[ti] != NONE_TYPE:
                    out.append((a, c, tg.types[ti], float(logits[ti])))
            spans[i] = out
            scores[i] = sc
    return spans, scores


def _assert_decodes_match(tg, sentences, threshold=0.0, none_bias=0.0):
    from autoner_ray.stages.tagger_stage import bucketed_predict

    want, want_scores = _oracle_predict(tg, sentences, threshold, none_bias)
    got, smin, smax = bucketed_predict(
        tg, list(sentences), threshold, with_chunk_stats=True,
        none_bias=none_bias,
    )
    assert [[s[:3] for s in row] for row in got] == [
        [s[:3] for s in row] for row in want
    ]
    for grow, wrow in zip(got, want):
        np.testing.assert_allclose(
            [s[3] for s in grow], [s[3] for s in wrow], atol=TOL, rtol=0
        )
    if sentences:
        flat = np.concatenate(want_scores)
        assert abs(smin - float(flat.min())) <= TOL
        assert abs(smax - float(flat.max())) <= TOL
    else:
        assert (smin, smax) == (float("inf"), float("-inf"))
    return sum(len(row) for row in got)


# -- encoder ---------------------------------------------------------------

def _assert_encodes_match(tg_maps, sentences):
    c_map, w_map = tg_maps
    got = encode_batch(list(sentences), c_map, w_map)
    assert len(got) == len(sentences)
    for toks, rec in zip(sentences, got):
        want = encode_sentence(toks, c_map, w_map)
        for g, w in zip(rec, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


def test_encode_batch_matches_encode_sentence_edge_cases():
    c_map = {"a": 4, "b": 5, "é": 6, "\U0001d518": 7, "ab": 8}
    w_map = {"ab": 2, "b": 3, "abc": 4, "é": 5}
    sentences = [
        [],
        ["ab"],
        ["AB", "Abc", "ABC", "zz", "b"],  # lower-case fallback, then unk
        ["é", "É", "\U0001d518\U0001d518", "a\U0001d518b"],  # non-BMP
        ["", "a"],  # an empty token still owns a separator
        ["\ud800x"],  # a lone surrogate encodes like any code point
        [],
    ]
    _assert_encodes_match((c_map, w_map), sentences)
    _assert_encodes_match((c_map, w_map), [])
    _assert_encodes_match(({}, {}), sentences)  # every char and word unk


@pytest.mark.parametrize("name", ["tagger_demo", "tagger_bc5cdr"])
def test_encode_batch_matches_encode_sentence_on_corpora(name, sf_dir):
    tg = _artifact(name)
    for seed in (1, 2, 3):
        _assert_encodes_match(
            (tg.c_map, tg.w_map), _kg_hybrid_sentences(seed)
        )
    _assert_encodes_match((tg.c_map, tg.w_map), _fixture_sentences(sf_dir))


# -- kernel ----------------------------------------------------------------

TAGGERS = [
    "tagger_demo", "tagger_bc5cdr", "tagger_bc5cdr_distant",
    "random_gru", "random_lstm",
]


@pytest.mark.parametrize("name", TAGGERS)
def test_infer_states_match_training_forward(name):
    """Hidden states on every real position, on a padded batch whose
    shortest sentences make the backward direction cross long PAD runs
    first."""
    tg = _tagger(name)
    sents = list(_kg_hybrid_sentences(2)[:40])
    sents[3] = sents[3][:1]
    sents[7] = ["x"]
    records = encode_batch(sents, tg.c_map, tg.w_map)
    char_ids, word_ids = tg._pad_batch(records)
    assert (char_ids == PAD).any(axis=0).sum() > 30
    hf, hb = infer_states(tg.params, tg.arch, char_ids, word_ids)
    wf, wb = _train_forward(tg, char_ids, word_ids)
    real = (char_ids != PAD)[:, :, None]
    assert hf.shape == wf.shape and hb.shape == wb.shape
    np.testing.assert_allclose(np.where(real, hf, 0), np.where(real, wf, 0),
                               atol=TOL, rtol=0)
    np.testing.assert_allclose(np.where(real, hb, 0), np.where(real, wb, 0),
                               atol=TOL, rtol=0)
    # PAD positions read as zero state
    assert not np.where(real, 0, hf).any() and not np.where(real, 0, hb).any()


@pytest.mark.parametrize("name", TAGGERS)
def test_decode_matches_training_forward_on_kg_hybrid(name):
    tg = _tagger(name)
    n_spans = 0
    for seed in (1, 2, 3):
        sents = _kg_hybrid_sentences(seed)
        for i in range(0, len(sents), HYBRID_BATCH):
            n_spans += _assert_decodes_match(tg, sents[i : i + HYBRID_BATCH])
    assert n_spans > 0


@pytest.mark.parametrize("scale", ["sf0.001", "sf0.1"])
@pytest.mark.parametrize("name", ["tagger_demo", "tagger_bc5cdr_distant"])
def test_decode_matches_training_forward_on_fixtures(name, scale, sf_dir):
    tg = _artifact(name)
    sents = _fixture_sentences(str(Path(sf_dir).parent / scale))
    if scale == "sf0.1":
        sents = sents[::8]  # every 8th sentence keeps the run short
    for i in range(0, len(sents), 512):
        _assert_decodes_match(tg, sents[i : i + 512])


@pytest.mark.parametrize("name", ["tagger_demo", "tagger_bc5cdr"])
def test_decode_threshold_and_none_bias(name):
    tg = _artifact(name)
    sents = _kg_hybrid_sentences(3)[:256]
    assert _assert_decodes_match(tg, sents, none_bias=-1.0) > 0
    _assert_decodes_match(tg, sents, threshold=0.5)
    # predict_batch (one padded call) and its sweep form agree too
    states = tg.forward_states(list(sents))
    for thr, bias in ((0.0, 0.0), (0.5, -1.0)):
        got = tg.predict_batch(list(sents), thr, none_bias=bias,
                               states=states)
        want, _ = _oracle_predict(tg, sents, thr, bias, budget=10**9)
        assert [[s[:3] for s in r] for r in got] == [
            [s[:3] for s in r] for r in want
        ]


@pytest.mark.parametrize("name", ["tagger_demo", "random_lstm"])
def test_decode_degenerate_batches(name):
    tg = _tagger(name)
    assert tg.predict_batch([]) == []
    assert tg.predict_batch([], with_chunk_stats=True) == (
        [], float("inf"), float("-inf")
    )
    _assert_decodes_match(tg, [])
    # one-token sentences, all-OOV characters (incl. non-BMP), mixed
    # lengths in one padded bucket
    long = list(_kg_hybrid_sentences(1)[0]) * 3
    batch = [
        ["data"], ["x"], ["ΩΩΩ", "\U0001f600"],
        long, ["query", "join"], ["Æ"], long[:5],
    ]
    _assert_decodes_match(tg, batch)
    want, _ = _oracle_predict(tg, batch, budget=10**9)
    got = tg.predict_batch(batch)
    assert [[s[:3] for s in r] for r in got] == [
        [s[:3] for s in r] for r in want
    ]


# -- hybrid pair stage -----------------------------------------------------

def test_cooccurrence_partials_match_counter():
    from autoner_ray.stages.triples import (
        PRED_COOCCUR,
        cooccurrence_partials,
        pair_counts_batch,
    )

    rng = np.random.default_rng(3)
    vocab = ["a", "b", "B", "é", "\U0001d518", "zz", "a b", ""]
    rows = [
        [vocab[j] for j in rng.integers(0, len(vocab), n)]
        for n in rng.integers(0, 7, 200)
    ]
    want: Counter = Counter()
    for ents in rows:
        for a, b in combinations(sorted(set(ents)), 2):
            want[(a, PRED_COOCCUR, b)] += 1
    sent = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
    flat = pa.array([e for r in rows for e in r], pa.string())
    for out in (
        cooccurrence_partials(sent, flat),
        pair_counts_batch(pa.table({"entities": pa.array(
            [sorted(set(r)) for r in rows], pa.list_(pa.string())
        )})),
    ):
        got = {(r["subj"], r["pred"], r["obj"]): r["w"]
               for r in out.to_pylist()}
        assert out.num_rows == len(got)  # one row per distinct edge
        assert got == dict(want)
    empty = cooccurrence_partials(np.zeros(0, np.int64),
                                  pa.array([], pa.string()))
    assert empty.num_rows == 0
    assert empty.column_names == ["subj", "pred", "obj", "w"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hybrid_pairs_match_plain_python_oracle(seed):
    from autoner_ray.dicts import CORE_DICT, FULL_DICT, STOPWORDS
    from autoner_ray.functions.text import normalize_surface
    from autoner_ray.stages.tagger_stage import HybridPairs
    from autoner_ray.stages.triples import PRED_COOCCUR
    from autoner_ray.state.trie import FILTERED_TYPE, build_trie, segment_dp

    blob = (ARTIFACTS / "tagger_demo.npz").read_bytes()
    stage = HybridPairs(blob, CORE_DICT, FULL_DICT, STOPWORDS)
    trie = build_trie(list(CORE_DICT), list(FULL_DICT), list(STOPWORDS))
    tg = Tagger.from_bytes(blob)
    sents = _kg_hybrid_sentences(seed)
    want: Counter = Counter()
    got: Counter = Counter()
    for i in range(0, len(sents), HYBRID_BATCH):
        batch = sents[i : i + HYBRID_BATCH]
        spans, _ = _oracle_predict(tg, batch)
        for toks, sp in zip(batch, spans):
            ents = {
                normalize_surface(" ".join(toks[l:r]))
                for l, r, ty in segment_dp(trie, toks)
                if ty and ty != FILTERED_TYPE
            }
            ents.update(normalize_surface(" ".join(toks[l:r]))
                        for l, r, *_ in sp)
            for a, b in combinations(sorted(ents), 2):
                want[(a, PRED_COOCCUR, b)] += 1
        out = stage(pa.table(
            {"tokens": pa.array(list(batch), pa.list_(pa.string()))}
        )).to_pylist()
        keys = [(r["subj"], r["pred"], r["obj"]) for r in out]
        assert len(keys) == len(set(keys))
        for k, r in zip(keys, out):
            got[k] += r["w"]
    assert got == want
    assert len(want) > 0


# -- batch invariance --------------------------------------------------------

@pytest.mark.parametrize("name", ["tagger_demo", "tagger_bc5cdr"])
def test_states_and_spans_do_not_depend_on_batching(name):
    """A sentence alone (B=1), in its 128-row batch and in the whole
    corpus as one bucket gives the same spans and states: the kgbench
    oracle and Ray batch the same rows differently."""
    tg = _artifact(name)
    records = encode_batch(list(_kg_hybrid_sentences(1)), tg.c_map,
                           tg.w_map)

    def decode(recs):
        states = tg.run_encoder(recs)
        return states[1:], tg.predict_batch(None, states=states)

    (cf, cb), corpus_spans = decode(records)
    for i in range(0, len(records), HYBRID_BATCH):
        batch = records[i : i + HYBRID_BATCH]
        (bf, bb), batch_spans = decode(batch)
        for j, rec in enumerate(batch):
            (sf, sb), (spans,) = decode([rec])
            n = len(rec[0])
            for got, col in (((bf, bb), j), ((cf, cb), i + j)):
                np.testing.assert_allclose(got[0][:n, col], sf[:n, 0],
                                           atol=1e-6, rtol=0)
                np.testing.assert_allclose(got[1][:n, col], sb[:n, 0],
                                           atol=1e-6, rtol=0)
            for other in (batch_spans[j], corpus_spans[i + j]):
                assert [s[:3] for s in other] == [s[:3] for s in spans]
                np.testing.assert_allclose(
                    [s[3] for s in other], [s[3] for s in spans],
                    atol=TOL, rtol=0,
                )


# -- mention rows ------------------------------------------------------------

def _mention_rows_loop(batch, tokens_col, preds):
    """The per-span row loop ``TaggerScorer`` used before its columnar
    builder."""
    urls = batch["url"].to_pylist()
    dids = batch["doc_id"].to_pylist()
    sids = batch["sent_id"].to_pylist()
    cols = {k: [] for k in (
        "url", "doc_id", "sent_id", "l", "r", "surface", "types", "score"
    )}
    for i, spans in enumerate(preds):
        for l, r, ty, score in spans:
            cols["url"].append(urls[i])
            cols["doc_id"].append(dids[i])
            cols["sent_id"].append(sids[i])
            cols["l"].append(l)
            cols["r"].append(r)
            cols["surface"].append(" ".join(tokens_col[i][l:r]))
            cols["types"].append(ty)
            cols["score"].append(round(score, 6))
    types = {"url": pa.string(), "doc_id": pa.int64(),
             "sent_id": pa.int32(), "l": pa.int32(), "r": pa.int32(),
             "surface": pa.string(), "types": pa.string(),
             "score": pa.float64()}
    return pa.table({k: pa.array(v, types[k]) for k, v in cols.items()})


def test_mention_table_matches_row_loop(sf_dir):
    from autoner_ray.stages.tagger_stage import (
        TaggerScorer,
        bucketed_predict,
        mention_table,
    )

    tg = _artifact("tagger_bc5cdr_distant")
    sents = list(_fixture_sentences(sf_dir)[:300]) + [["x"], []]
    batch = pa.table({
        "url": pa.array([f"u{i % 7}" for i in range(len(sents))]),
        "doc_id": pa.array(range(len(sents)), pa.int64()),
        "sent_id": pa.array([i % 5 for i in range(len(sents))], pa.int32()),
        "tokens": pa.array(sents, pa.list_(pa.string())),
    })
    preds = bucketed_predict(tg, sents)
    assert sum(map(len, preds)) > 0
    want = _mention_rows_loop(batch, sents, preds)
    assert mention_table(batch, sents, preds).equals(want)
    scorer = TaggerScorer((ARTIFACTS / "tagger_bc5cdr_distant.npz")
                          .read_bytes())
    assert scorer(batch).equals(want)
    empty = batch.slice(0, 0)
    assert mention_table(empty, [], []).equals(
        _mention_rows_loop(empty, [], [])
    )
    # hand-made spans: scores where ``np.round`` and ``round`` disagree,
    # spans on the last and a middle sentence, none elsewhere
    hand = [[] for _ in sents]
    hand[1] = [(0, 1, "Disease", 2.5e-06), (1, 2, "Chemical", 14.0000005)]
    hand[-2] = [(0, 1, "Chemical", -3.25)]
    for preds in (hand, [[] for _ in sents]):
        assert mention_table(batch, sents, preds).equals(
            _mention_rows_loop(batch, sents, preds)
        )
