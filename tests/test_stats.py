"""grouped_linear_fit vs numpy polyfit/corrcoef across block splits;
spearman_corr vs a numpy reference; fair_token_budget water-fill."""

from __future__ import annotations

import random

import numpy as np
import pyarrow as pa
import ray

from autoner_ray.stages.stats import grouped_linear_fit


def test_grouped_fit_matches_numpy_across_splits():
    rng = random.Random(13)
    keys, xs, ys = [], [], []
    for _ in range(3000):
        k = rng.choice(["A", "B", "C"])
        x = rng.randrange(1, 51)
        # y in exact hundredths, linearly related + noise
        y = (x * 3 + rng.randrange(-40, 41)) / 100.0
        keys.append(k)
        xs.append(float(x))
        ys.append(y)
    t = pa.table({"g": keys, "x": xs, "y": ys})

    for parts in (1, 7):
        got = {
            r["g"]: r
            for r in grouped_linear_fit(
                ray.data.from_arrow(t).repartition(parts),
                key="g", x_col="x", y_col="y",
            ).take_all()
        }
        assert set(got) == {"A", "B", "C"}
        for g in got:
            sel = [i for i in range(len(keys)) if keys[i] == g]
            xv = np.array([xs[i] for i in sel])
            yv = np.array([round(ys[i] * 100) for i in sel], dtype=float)
            slope, intercept = np.polyfit(xv, yv, 1)
            corr = np.corrcoef(xv, yv)[0, 1]
            assert got[g]["n"] == len(sel)
            assert abs(got[g]["slope"] - slope) < 1e-4
            assert abs(got[g]["intercept"] - intercept) < 1e-4
            assert abs(got[g]["corr"] - corr) < 1e-6


def test_spearman_matches_scipy_free_reference(ray_session):
    """Tie-corrected Spearman == Pearson over average ranks, checked
    against a pure-numpy reference (no scipy in this env)."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from autoner_ray.stages.stats import spearman_corr
    from autoner_ray.stages.tokenize import sentence_token_stream

    got = spearman_corr(
        rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                        columns=["doc_id", "text", "n_chars"])
    ).to_pandas()
    t = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                      columns=["text", "n_chars"]).to_pandas()
    x = t["n_chars"].to_numpy(np.int64)
    y = np.array(
        [len(sentence_token_stream(s or "")) for s in t["text"]],
        np.int64,
    )

    def avg_ranks(v):
        order = np.argsort(v, kind="mergesort")
        ranks = np.empty(len(v), np.float64)
        sv = v[order]
        i = 0
        while i < len(sv):
            j = i
            while j < len(sv) and sv[j] == sv[i]:
                j += 1
            ranks[order[i:j]] = (i + j - 1) / 2.0 + 1.0
            i = j
        return ranks

    rx, ry = avg_ranks(x), avg_ranks(y)
    rho = np.corrcoef(rx, ry)[0, 1]
    assert got["n"].iloc[0] == len(x)
    assert abs(got["spearman"].iloc[0] - rho) < 1e-6  # engine rounds 6 dp


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
