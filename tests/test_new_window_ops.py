"""PPS weighted systematic selection vs the sequential brute force."""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def test_weighted_systematic_select_matches_sequential(ray_session):
    import ray.data as rd

    from autoner_ray.stages.ranking import weighted_systematic_select

    rng = np.random.default_rng(3)
    n, k = 1000, 37
    keys = np.arange(n, dtype=np.int64)
    w = rng.integers(1, 50, n).astype(np.int64)
    t = pa.table({"doc_id": keys, "n_chars": w})
    got = sorted(
        r["doc_id"]
        for r in weighted_systematic_select(
            rd.from_arrow(t).repartition(11),
            key_col="doc_id", weight_col="n_chars", k=k,
        ).take_all()
    )
    cum = np.cumsum(w)
    W = int(cum[-1])
    keep = (cum * k) // W > ((cum - w) * k) // W
    want = sorted(keys[keep].tolist())
    assert got == want and len(got) == k
