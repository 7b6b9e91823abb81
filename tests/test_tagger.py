"""Neural tagger: encoder semantics, training convergence, actor stage.

Pins the numpy bi-GRU tagger (state/tagger.py) and its Ray stages
(stages/tagger_stage.py) — the engine's re-expression of the reference
model family (ner.py / encode_folder.py / dataset.py; see module
docstrings for file:line citations).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest

from autoner_ray.state.tagger import (
    BOS,
    SEP,
    Tagger,
    build_vocabs,
    encode_sentence,
    segments_to_slots,
    span_f1_counts,
    spans_from_segments,
    token_budget_batches,
)

REPO = Path(__file__).resolve().parents[1]
ARTIFACT = REPO / "autoner_ray" / "artifacts" / "tagger_demo.npz"
BC5CDR = Path("/root/reference/data/BC5CDR")


def test_encode_sentence_layout():
    c_map = {"a": 4, "b": 5}
    w_map = {"ab": 2, "b": 3}
    ci, wi, slots = encode_sentence(["ab", "b", "zz"], c_map, w_map)
    # <bos> a b <sep> b <sep> z z <sep>
    assert ci[0] == BOS
    assert list(ci) == [BOS, 4, 5, SEP, 5, SEP, 3, 3, SEP]  # z -> UNK(3)
    # word ids repeat per char incl the following separator
    assert list(wi[1:4]) == [2, 2, 2]
    # slots: bos + one per word-final separator
    assert list(slots) == [0, 3, 5, 8]
    # unknown word falls back to lower then unk
    assert wi[6] == 1  # WORD_UNK


def test_segments_to_slots_filtered_inclusive():
    # FILTERED [1,2) voids slots 1..2 INCLUSIVE (annotation.h:278-280)
    brk, known = segments_to_slots(
        4, [(0, 1, ""), (1, 2, "__FILTERED__"), (2, 4, "ENT")]
    )
    assert list(known) == [True, False, False, True, True]
    assert brk[2] == 1.0 and brk[4] == 1.0 and brk[3] == 0.0


def test_spans_supervise_none_class():
    tl = {"None": 0, "ENT": 1}
    spans = spans_from_segments([(0, 1, ""), (1, 3, "ENT")], tl)
    assert len(spans) == 2
    assert spans[0][2][0] == 1.0  # None khot
    assert spans[1][2][1] == 1.0


def test_token_budget_batcher():
    recs = [(np.zeros(n),) for n in (100, 10, 50, 100, 10)]
    batches = list(token_budget_batches(recs, budget=200))
    # sorted desc by length; first batch: len-100 rows, 200//100 = 2 rows
    assert [len(rec[0]) for rec in batches[0]] == [100, 100]
    total = sum(len(b) for b in batches)
    assert total == 5


def test_training_learns_toy_task():
    sents = [["aa", "bb", "cc"], ["bb", "cc", "aa"], ["cc", "aa", "bb"]]
    segs = [
        [(0, 1, ""), (1, 3, "ENT")],
        [(0, 2, "ENT"), (2, 3, "")],
        [(0, 1, ""), (1, 2, ""), (2, 3, "")],
    ]
    c_map, w_map, tl_map = build_vocabs(sents, [["ENT"]], char_min_count=0)
    tg = Tagger(c_map, w_map, tl_map, char_dim=8, word_dim=8, hidden=16)
    recs = []
    for toks, sg in zip(sents, segs):
        ci, wi, slots = encode_sentence(toks, c_map, w_map)
        brk, known = segments_to_slots(len(toks), sg)
        recs.append((ci, wi, slots, brk, known,
                     spans_from_segments(sg, tl_map)))
    vel, first = None, None
    for _ in range(200):
        for batch in token_budget_batches(recs, budget=100):
            loss, vel = tg.train_batch(batch, lr=0.05, velocity=vel)
            if first is None:
                first = loss
    assert loss < first / 10
    ng = npd = nh = 0
    for toks, sg, pred in zip(sents, segs, tg.predict_batch(sents)):
        gold = [(l, r, t) for l, r, t in sg if t]
        g, p, h = span_f1_counts(gold, pred)
        ng += g; npd += p; nh += h
    assert nh == ng == npd  # perfect on the toy task


def test_checkpoint_roundtrip():
    c_map, w_map, tl_map = build_vocabs([["ab"]], [["T"]], char_min_count=0)
    tg = Tagger(c_map, w_map, tl_map, char_dim=4, word_dim=4, hidden=8)
    blob = tg.to_bytes()
    tg2 = Tagger.from_bytes(blob)
    assert tg2.c_map == tg.c_map and tg2.tl_map == tg.tl_map
    for k, v in tg.params.items():
        assert np.array_equal(v, tg2.params[k])
    preds1 = tg.predict_batch([["ab", "ab"]])
    preds2 = tg2.predict_batch([["ab", "ab"]])
    assert preds1 == preds2


def test_scorer_stage_matches_single_process(ray_session):
    """Actor-pool output == driver-side predict on the same sentences."""
    import ray.data as rd

    from autoner_ray.stages.tagger_stage import neural_mentions

    with open(ARTIFACT, "rb") as f:
        blob = f.read()
    tagger = Tagger.from_bytes(blob)

    sents = [
        ["the", "filter", "pushes", "into", "table", "scan"],
        ["customer", "joins", "spark"],
    ]
    t = pa.table(
        {
            "url": [f"u{i}" for i in range(len(sents))],
            "doc_id": pa.array(range(len(sents)), pa.int64()),
            "sent_id": pa.array([0] * len(sents), pa.int32()),
            "tokens": pa.array(sents, pa.list_(pa.string())),
        }
    )
    got = neural_mentions(rd.from_arrow(t), blob).to_pandas()
    want = []
    for i, spans in enumerate(tagger.predict_batch(sents)):
        for l, r, ty, score in spans:
            want.append((f"u{i}", l, r, ty))
    got_set = {
        (u, l, r, ty)
        for u, l, r, ty in zip(got["url"], got["l"], got["r"], got["types"])
    }
    assert got_set == set(want)


def test_artifact_quality_on_held_out(ray_session):
    """The committed artifact reproduces dictionary supervision at
    F1 >= 0.8 on sf0.01 (never seen in training)."""
    from autoner_ray.dicts import CORE_DICT, FULL_DICT, STOPWORDS
    from autoner_ray.pipelines.kg import sentences_dataset
    from autoner_ray.stages.tagger_stage import eval_span_f1

    with open(ARTIFACT, "rb") as f:
        blob = f.read()
    stats = eval_span_f1(
        sentences_dataset("/root/testdata/sf0.01"),
        blob,
        CORE_DICT,
        FULL_DICT,
        STOPWORDS,
    ).to_pandas()
    assert stats["f1"][0] >= 0.8
    assert stats["score_min"][0] <= stats["score_max"][0]


def test_mentions_to_tsv_reference_shape():
    from autoner_ray.stages.tagger_stage import mentions_to_tsv

    rows = [
        (0, 1, 3, "hash join", "Operator"),
        (0, 5, 6, "spark", "System"),
        (1, 0, 1, "row", "Structure"),
    ]
    tl = {"None": 0, "Operator": 1, "Structure": 2, "System": 3}
    text = mentions_to_tsv(rows, tl)
    lines = text.split("\n")
    assert lines[0] == "1\t3\thash join\t1\tOperator"
    assert lines[1] == "5\t6\tspark\t3\tSystem"
    assert lines[2] == ""          # blank line between sentence blocks
    assert lines[3] == "0\t1\trow\t2\tStructure"
    assert text.endswith("\n\n")   # trailing blank per batch


def _artifact_f1(path: Path, split: str, limit: int = 1500):
    import sys

    sys.path.insert(0, str(REPO / "scripts"))
    from eval_bc5cdr_dictmatch import parse_gold

    from autoner_ray.state.tagger import (
        Tagger,
        f1_from_counts,
        span_f1_counts,
    )

    with open(path, "rb") as f:
        tg = Tagger.from_bytes(f.read())
    gold = parse_gold(BC5CDR / f"truth_{split}.ck")[:limit]
    ng = npd = nh = 0
    toks_all = [t for t, _ in gold]
    for i in range(0, len(toks_all), 256):
        preds = tg.predict_batch(toks_all[i : i + 256])
        for (_, gspans), pred in zip(gold[i : i + 256], preds):
            g, p, h = span_f1_counts(gspans, pred)
            ng += g; npd += p; nh += h
    return f1_from_counts(ng, npd, nh)


@pytest.mark.requires_reference(BC5CDR)
def test_bc5cdr_artifact_f1():
    """The committed artifacts hold their trained quality on the human
    gold TEST split (never used in training by either recipe):
    - main artifact (DS_GOLD_MIXED recipe, `dataset.py:298-404`, dev
      selection tail held out of training, word-drop 0.25, subword
      PPMI-SVD vectors, self-trained from the distant st2 teacher):
      test F1 >= 0.84 (measured 0.8546 full-test at mint time, round 4;
      round 3 was 0.837);
    - distant-only artifact (pure AutoNER recipe + subword-augmented
      PPMI-SVD vectors + word-level unk-dropout 0.25 + FOUR
      self-training rounds over the FILTERED supervision gaps; gold
      never seen): test F1 >= 0.845, above BOTH the 0.7198
      dictionary-match baseline and the published 0.8480
      (`/root/reference/README.md:40`) — measured 0.8510 full-test at
      mint time, round 4 st6 (dev-selected over st5 0.855578 /
      avg(st5,st6) 0.856383 on dev f1 0.856521; st5's test was 0.8524
      but dev selection is the honest rule); round 3 was 0.827,
      round 2 was 0.744."""
    stats = _artifact_f1(
        REPO / "autoner_ray" / "artifacts" / "tagger_bc5cdr.npz", "test"
    )
    assert stats["f1"] >= 0.84, stats
    stats = _artifact_f1(
        REPO / "autoner_ray" / "artifacts" / "tagger_bc5cdr_distant.npz",
        "test",
    )
    assert stats["f1"] >= 0.845, stats


def test_ppmi_subword_backoff_rare_words():
    """subword=True: confident rows unchanged, rare rows blend toward
    the mean of their char-n-gram vectors (fastText-style back-off)."""
    import numpy as np

    from autoner_ray.state.tagger import build_vocabs
    from autoner_ray.state.word_vectors import ppmi_svd_embeddings

    # 'chemizole' (rare) shares the -izole suffix with frequent words
    base = [["the", "drug", "lamizole", "treats", "the", "rash"],
            ["lamizole", "and", "damizole", "reduce", "fever"],
            ["damizole", "dose", "given", "daily"]] * 8
    rare = [["chemizole", "was", "administered", "once"]]
    sents = base + rare
    c_map, w_map, _ = build_vocabs(sents, [], char_min_count=0)

    plain = ppmi_svd_embeddings(sents, w_map, dim=8, subword=False)
    sub = ppmi_svd_embeddings(sents, w_map, dim=8, subword=True,
                              subword_min_count=5)
    assert sub.shape == plain.shape
    # frequent word rows untouched
    for w in ("lamizole", "damizole", "the"):
        assert np.allclose(plain[w_map[w]], sub[w_map[w]])
    # the rare word's row changed and moved toward its suffix-mates
    r = w_map["chemizole"]
    assert not np.allclose(plain[r], sub[r])

    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-9))

    mates = (sub[w_map["lamizole"]] + sub[w_map["damizole"]]) / 2
    assert cos(sub[r], mates) > cos(plain[r], mates)
