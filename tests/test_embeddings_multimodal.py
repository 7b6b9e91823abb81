"""Embedding I/O operators (S7/A6/J3): the reference's ``save_emb.py``
parse, first-wins dedup and vocabulary semi-join. The file keeps its old
name; the media half it once held is deleted."""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def test_parse_embedding_lines_reference_semantics():
    from autoner_ray.stages.embeddings_io import SPECIALS, parse_embedding_lines

    lines = [
        "apple 1.0 2.0",
        "banana 3.0 4.0",
        "apple 9.0 9.0",      # duplicate: first wins
        "broken 1.0",          # wrong width: skipped
        "unk 0.5 0.5",         # lone unk -> <unk>
    ]
    w_map, emb = parse_embedding_lines(lines)
    assert list(emb[w_map["apple"]]) == [1.0, 2.0]
    assert list(emb[w_map["banana"]]) == [3.0, 4.0]
    assert "broken" not in w_map
    assert list(emb[w_map["<unk>"]]) == [0.5, 0.5]
    for sp in SPECIALS:
        assert sp in w_map
    # random tails are seeded -> reproducible
    w2, emb2 = parse_embedding_lines(lines)
    assert np.array_equal(emb, emb2)
    bound = np.sqrt(3.0 / 2)
    assert np.all(np.abs(emb[w_map["<s>"]]) <= bound)


def test_first_wins_dedup_distributed(ray_session):
    import ray.data as rd

    from autoner_ray.stages.embeddings_io import first_wins_dedup

    t = pa.table(
        {
            "word": ["a", "b", "a", "c", "b", "a"],
            "row_idx": [0, 1, 2, 3, 4, 5],
            "val": [10, 20, 30, 40, 50, 60],
        }
    )
    out = first_wins_dedup(rd.from_arrow(t).repartition(3)).to_pandas()
    got = dict(zip(out["word"], out["val"]))
    assert got == {"a": 10, "b": 20, "c": 40}


def test_filter_embeddings_semi_join(ray_session):
    import ray.data as rd

    from autoner_ray.stages.embeddings_io import filter_embeddings

    tokens = rd.from_arrow(
        pa.table({"tokens": [["Apple", "pie"], ["cake"]]})
    )
    emb = rd.from_arrow(
        pa.table(
            {
                "word": ["apple", "Pie", "cake", "zebra", "<unk>"],
                "v": [1, 2, 3, 4, 5],
            }
        )
    )
    out = filter_embeddings(emb, tokens).to_pandas()
    # apple: lowercase in vocab; Pie: Pie.lower() in vocab; zebra: dropped
    assert sorted(out["word"]) == ["<unk>", "Pie", "apple", "cake"]

