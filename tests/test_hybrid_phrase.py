"""Hybrid (dict ∪ neural) mention union and the M9 phrase-markup parser."""

from __future__ import annotations

from pathlib import Path

import pyarrow as pa

ARTIFACT = (
    Path(__file__).resolve().parents[1]
    / "autoner_ray" / "artifacts" / "tagger_demo.npz"
)


def test_phrase_markup_parser():
    from autoner_ray.functions.phrase_markup import parse_phrase_markup
    from autoner_ray.state.trie import FILTERED_TYPE, build_trie

    trie = build_trie(
        ["Operator\thash join", "System\tspark"], ["big data"], []
    )
    line = "run <phrase>hash join</phrase> on <phrase>big data</phrase> now"
    tokens, segments = parse_phrase_markup(line, trie)
    assert tokens == ["run", "hash", "join", "on", "big", "data", "now"]
    seg_map = {(l, r): t for l, r, t in segments}
    assert seg_map[(1, 3)] == "Operator"        # KB hit -> typed
    assert seg_map[(4, 6)] == FILTERED_TYPE     # full-dict only -> filtered
    assert seg_map[(0, 1)] == "" and seg_map[(6, 7)] == ""
    # all tokens covered exactly once
    covered = sorted((l, r) for l, r, _ in segments)
    pos = 0
    for l, r in covered:
        assert l == pos
        pos = r
    assert pos == len(tokens)


def test_phrase_markup_multi_type_sorted():
    from autoner_ray.functions.phrase_markup import parse_phrase_markup
    from autoner_ray.state.trie import build_trie

    trie = build_trie(["B,A\torder"], [], [])
    tokens, segments = parse_phrase_markup("<phrase>order</phrase>", trie)
    assert segments == [(0, 1, "A,B")]  # set-sorted comma join


def test_hybrid_triples_superset_of_dict(ray_session):
    """Union mentions can only add entities — every dict edge survives
    with weight >= the dict-only weight."""
    from autoner_ray.dicts import CORE_DICT, FULL_DICT, STOPWORDS
    from autoner_ray.pipelines.kg import sentences_dataset, triples_dataset
    from autoner_ray.stages.tagger_stage import hybrid_triples

    sf = "/root/testdata/sf0.001"
    with open(ARTIFACT, "rb") as f:
        blob = f.read()
    dict_edges = {
        (r.subj, r.obj): r.weight
        for r in triples_dataset(sf, concurrency=2)
        .to_pandas()
        .itertuples(index=False)
    }
    hybrid = {
        (r.subj, r.obj): r.weight
        for r in hybrid_triples(
            sentences_dataset(sf), blob, CORE_DICT, FULL_DICT, STOPWORDS,
            concurrency=2,
        )
        .to_pandas()
        .itertuples(index=False)
    }
    assert dict_edges  # non-trivial fixture
    for edge, w in dict_edges.items():
        assert hybrid.get(edge, 0) >= w


def test_mention_contexts_and_training_export(ray_session):
    import ray.data as rd

    from autoner_ray.dicts import CORE_DICT, FULL_DICT, STOPWORDS
    from autoner_ray.stages.dict_match import DictMatcher
    from autoner_ray.stages.tagger_stage import (
        export_training_set,
        mention_contexts,
    )
    from autoner_ray.state.tagger import segments_to_slots

    sents = [["the", "filter", "pushes", "into", "table", "scan", "now"]]
    t = pa.table(
        {
            "url": ["u0"],
            "doc_id": pa.array([0], pa.int64()),
            "sent_id": pa.array([0], pa.int32()),
            "tokens": pa.array(sents, pa.list_(pa.string())),
        }
    )
    ds = rd.from_arrow(t)
    ctx = mention_contexts(
        ds, CORE_DICT, FULL_DICT, STOPWORDS, window=2, concurrency=2
    ).to_pandas()
    matcher = DictMatcher(CORE_DICT, FULL_DICT, STOPWORDS)
    want = matcher.mentions_of(sents[0])
    assert len(ctx) == len(want)
    for (_, row), (l, r, surface, ty, _c) in zip(ctx.iterrows(), want):
        assert row["surface"] == surface and row["types"] == ty
        assert row["left_ctx"] == " ".join(sents[0][max(0, l - 2):l])
        assert row["right_ctx"] == " ".join(sents[0][r:r + 2])

    exp = export_training_set(
        ds, CORE_DICT, FULL_DICT, STOPWORDS
    ).to_pandas()
    assert len(exp) == 1
    segs = matcher.segments(sents[0])
    brk, known = segments_to_slots(len(sents[0]), segs)
    assert list(exp["break_labels"][0]) == [int(x) for x in brk]
    assert list(exp["known_mask"][0]) == [bool(x) for x in known]
    assert list(exp["typed_spans"][0]) == [
        f"{l}:{r}:{ty}" for l, r, ty in segs if ty
    ]


def test_mention_contexts_window_not_cached_across_values(ray_session):
    """Two mention_contexts calls with different windows in ONE session
    must not share a cached worker instance (the window is closure state
    inside the local Contexts class — regression test for the per-worker
    stage cache key)."""
    import ray.data as rd

    from autoner_ray.stages.tagger_stage import mention_contexts

    t = pa.table(
        {
            "url": ["u0"],
            "doc_id": pa.array([0], pa.int64()),
            "sent_id": pa.array([0], pa.int32()),
            "tokens": pa.array(
                [["alpha", "beta", "spark", "gamma", "delta", "epsilon"]],
                pa.list_(pa.string()),
            ),
        }
    )
    core = ["System\tspark"]
    ds = rd.from_arrow(t)
    w1 = mention_contexts(ds, core, window=1).to_pandas()
    w3 = mention_contexts(rd.from_arrow(t), core, window=3).to_pandas()
    assert w1.loc[0, "left_ctx"] == "beta"
    assert w3.loc[0, "left_ctx"] == "alpha beta"
