"""fair_token_budget water-fill."""

from __future__ import annotations


def test_fair_token_budget_waterfill(ray_session):
    """Skewed fixture exercising BOTH branches: small sources keep
    everything (uncapped), big ones split the remainder; the budget is
    exhausted exactly and the integer remainder goes to the
    alphabetically-first capped sources."""
    import pyarrow as pa
    import ray.data as rd

    from autoner_ray.stages.analysis import fair_token_budget

    # tokens per source: tiny=2, small=10, big_a=50, big_b=50
    rows = (
        [("tiny", "a b")]
        + [("small", " ".join(["w"] * 10))]
        + [("big_a", " ".join(["x"] * 50))]
        + [("big_b", " ".join(["y"] * 50))]
    )
    docs = pa.table(
        {
            "doc_id": pa.array(range(len(rows)), pa.int64()),
            "source": pa.array([r[0] for r in rows], pa.string()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        }
    )
    out = (
        fair_token_budget(rd.from_arrow(docs))
        .to_pandas().set_index("source")
    )
    # total = 112, B = 56; tiny keeps 2, small keeps 10; 44 left for
    # big_a/big_b -> 22 each, no remainder
    assert out.loc["tiny", "allocation"] == 2
    assert out.loc["tiny", "capped"] == 0
    assert out.loc["small", "allocation"] == 10
    assert out.loc["big_a", "allocation"] == 22
    assert out.loc["big_b", "allocation"] == 22
    assert out.loc["big_a", "capped"] == 1
    assert out["allocation"].sum() == 56

    # odd budget: remainder lands on the alphabetically-first capped
    rows2 = rows + [("pad", "z")]  # total 113 -> B = 56 again
    docs2 = pa.table(
        {
            "doc_id": pa.array(range(len(rows2)), pa.int64()),
            "source": pa.array([r[0] for r in rows2], pa.string()),
            "text": pa.array([r[1] for r in rows2], pa.string()),
        }
    )
    out2 = (
        fair_token_budget(rd.from_arrow(docs2))
        .to_pandas().set_index("source")
    )
    assert out2["allocation"].sum() == 56
    # 56 - (1+2+10) = 43 over big_a/big_b -> 21 each + 1 to big_a
    assert out2.loc["big_a", "allocation"] == 22
    assert out2.loc["big_b", "allocation"] == 21
