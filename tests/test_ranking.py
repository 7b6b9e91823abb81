"""exact_ntile: distributed two-pass ranking vs a brute-force sort."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from autoner_ray.stages.ranking import _ntile_of_rank, exact_ntile


def _brute(keys, vals, n_buckets, descending):
    df = pd.DataFrame({"k": keys, "v": vals})
    df = df.sort_values(
        ["v", "k"], ascending=[not descending, True], kind="mergesort"
    ).reset_index(drop=True)
    n = len(df)
    rank = np.arange(1, n + 1, dtype=np.int64)
    return pd.DataFrame(
        {
            "k": df["k"].to_numpy(np.int64),
            "rank": rank,
            "ntile": _ntile_of_rank(rank, n, n_buckets),
        }
    )


def _sql_ntile(n, k):
    """NTILE per SQL spec computed directly: first n%k buckets get
    n//k+1 rows."""
    q, rem = divmod(n, k)
    out = []
    for b in range(1, k + 1):
        out.extend([b] * ((q + 1) if b <= rem else q))
    return np.array(out[:n], dtype=np.int64)


@pytest.mark.parametrize("n,k", [(10, 4), (7, 7), (3, 10), (100, 8), (1, 1)])
def test_ntile_of_rank_matches_sql_spec(n, k):
    rank = np.arange(1, n + 1, dtype=np.int64)
    np.testing.assert_array_equal(_ntile_of_rank(rank, n, k), _sql_ntile(n, k))


@pytest.mark.parametrize("descending", [True, False])
@pytest.mark.parametrize("seed", [0, 1])
def test_exact_ntile_matches_bruteforce(seed, descending):
    rng = np.random.default_rng(seed)
    n = 5000
    keys = rng.permutation(n).astype(np.int64)
    # heavy ties to exercise the key tiebreak across range buckets
    vals = rng.integers(0, 50, size=n).astype(np.int64)
    ds = ray.data.from_arrow(
        pa.table({"k": keys, "v": vals})
    ).repartition(13)
    got = (
        exact_ntile(
            ds, key_col="k", val_col="v", n_buckets=7,
            descending=descending, num_ranges=5,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = _brute(keys, vals, 7, descending).sort_values("k").reset_index(
        drop=True
    )
    np.testing.assert_array_equal(got["k"], want["k"])
    np.testing.assert_array_equal(got["rank"], want["rank"])
    np.testing.assert_array_equal(got["ntile"], want["ntile"])
    # values survive the sign round-trip
    back = dict(zip(got["k"], got["v"]))
    src = dict(zip(keys, vals))
    assert back == src


def test_exact_ntile_constant_values():
    """All-equal values: every row lands in ONE range bucket; ranks must
    still be the full 1..n sequence via the key tiebreak."""
    n = 257
    ds = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array(np.arange(n)[::-1].copy(), pa.int64()),
                "v": pa.array(np.full(n, 42), pa.int64()),
            }
        )
    ).repartition(5)
    got = exact_ntile(
        ds, key_col="k", val_col="v", n_buckets=4, num_ranges=6
    ).to_pandas().sort_values("k").reset_index(drop=True)
    assert sorted(got["rank"]) == list(range(1, n + 1))
    # ties broken by key asc -> rank == k+1
    np.testing.assert_array_equal(got["rank"], got["k"] + 1)
