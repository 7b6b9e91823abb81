"""Round-5 operator edge cases: chunked substring dedup, passage
chunking, training-sequence packing."""

import pyarrow as pa
import ray.data as rd


def _docs(rows):
    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows], pa.string()),
            }
        )
    ).repartition(2)


def test_substring_dedup_first_wins_and_within_doc(ray_session):
    """First occurrence (smallest doc_id, then chunk idx) keeps; a
    WITHIN-doc repeat also counts as removed; docs shorter than a
    chunk emit no row."""
    from autoner_ray.stages.dedup import substring_dedup_census

    a40 = "a" * 40
    b40 = "b" * 40
    rows = [
        (1, a40 + b40),          # chunks: a40(idx0, wins), b40(idx1, wins)
        (2, b40 + a40 + a40),    # all three removed (b40 loses to doc1;
                                 # a40 both lose to doc1 idx0)
        (3, "short"),            # < 40 chars: no row
    ]
    out = {
        r["doc_id"]: r
        for r in substring_dedup_census(_docs(rows)).take_all()
    }
    assert set(out) == {1, 2}
    assert out[1]["n_chunks"] == 2 and out[1]["n_removed"] == 0
    assert out[2]["n_chunks"] == 3 and out[2]["n_removed"] == 3
    assert out[2]["chars_after"] == 120 - 3 * 40


def test_substring_dedup_within_doc_only(ray_session):
    """A doc repeating its own chunk keeps the first occurrence."""
    from autoner_ray.stages.dedup import substring_dedup_census

    c40 = "c" * 40
    out = substring_dedup_census(
        _docs([(7, c40 + c40 + c40)])
    ).take_all()
    assert out[0]["n_chunks"] == 3 and out[0]["n_removed"] == 2


def test_passage_chunks_boundaries(ray_session):
    """len == window -> 1 chunk; len == window+1 -> 2 (second clipped);
    empty text -> one zero-length chunk."""
    from autoner_ray.stages.analysis import passage_chunks

    rows = [(1, "x" * 200), (2, "y" * 201), (3, "")]
    got = {}
    for r in passage_chunks(_docs(rows)).take_all():
        got.setdefault(r["doc_id"], []).append(
            (r["chunk_id"], r["start_char"], r["end_char"])
        )
    assert got[1] == [(0, 0, 200)]
    assert sorted(got[2]) == [(0, 0, 200), (1, 150, 201)]
    assert got[3] == [(0, 0, 0)]


def test_training_pack_split_count(ray_session):
    """Docs straddling a 512-token boundary are counted; totals and
    sequence counts are exact."""
    from autoner_ray.stages.analysis import training_pack_census

    def words(n):
        return " ".join(["w"] * n)

    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(
                    [words(500), words(100), words(436)], pa.string()
                ),
                "source": pa.array(["s"] * 3, pa.string()),
            }
        )
    )
    row = training_pack_census(ds).take_all()[0]
    # stream: doc1 [0,499], doc2 [500,599] (straddles 511|512),
    # doc3 [600,1035] (straddles 1023|1024)
    assert row["n_docs"] == 3
    assert row["total_tokens"] == 1036
    assert row["n_sequences"] == 3
    assert row["n_docs_split"] == 2


def test_heavy_hitters_exact_and_spread_word_found(ray_session):
    """A word spread THIN across every batch (never locally heavy at
    the full threshold, but above threshold/slack) is still found with
    its exact count — the pigeonhole guarantee; rare words are not."""
    from autoner_ray.stages.analysis import heavy_hitter_words

    # 10 docs x 100 tokens = 1000 tokens; threshold = 1/200 -> n >= 5.
    # "hh" appears once per doc (10 total, spread thin); "rare" 4x.
    docs = []
    for i in range(10):
        filler = [f"u{i}_{j}" for j in range(98)]
        toks = ["hh"] + filler + (["rare"] if i < 4 else ["pad"])
        docs.append((i, " ".join(toks)))
    out = {
        r["word"]: r["n"]
        for r in heavy_hitter_words(_docs(docs)).take_all()
    }
    assert out.get("hh") == 10
    assert "rare" not in out
    assert all(n * 200 >= 1000 for n in out.values())


def test_dsir_weights_favor_target_lang(ray_session, tmp_path):
    """Docs made of target-language-only words score higher than docs
    of words absent from the target slice."""
    import pyarrow.parquet as pq

    from autoner_ray.stages.analysis import dsir_importance

    rows = [
        (1, "alpha beta alpha beta", "en"),
        (2, "alpha beta beta alpha", "fr"),   # target-ish words, non-en
        (3, "gamma delta gamma delta", "fr"),  # words never in target
    ]
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows], pa.string()),
                "lang": pa.array([r[2] for r in rows], pa.string()),
            }
        )
    )
    out = {
        r["doc_id"]: r["dsir_microweight"]
        for r in dsir_importance(ds).take_all()
    }
    assert out[2] > out[3]          # target-aligned vocab wins
    assert out[1] == out[2]         # weight depends on words, not lang


def test_snapshot_diff_statuses(ray_session):
    """doc_id 0: A-absent -> added (0%5==0 mutation irrelevant);
    1: B-absent -> removed; 5: in both, text mutated -> changed;
    2: in both, same -> unchanged."""
    from autoner_ray.stages.webtext import snapshot_diff

    rows = [(0, "t0"), (1, "t1"), (2, "t2"), (5, "t5")]
    out = {
        r["doc_id"]: r["status"]
        for r in snapshot_diff(_docs(rows)).take_all()
    }
    assert out == {0: "added", 1: "removed", 2: "unchanged",
                   5: "changed"}
