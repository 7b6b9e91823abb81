"""Exact statistics over mergeable moment partials: tie-corrected
Spearman rank correlation (``docs_spearman_len_tokens``) and a per-group
OLS fit with Pearson correlation (``grouped_linear_fit``).

The partial-moment shape is the canonical Ray-Data aggregate pattern:
vectorized per-batch partials -> bounded-key combine -> one tiny finish
row. Values are snapped to integers (doubled ranks, or the
``floor(v*scale + 0.5)`` cents trick), so the six moments (n, Σx,
Σy, Σxx, Σyy, Σxy) are EXACT int64 partials that merge associatively —
no float summation order anywhere in the distributed part. The final
correlation converts the exact integers to float64 in the same
operation order as the SQL twin, so both sides compute bit-identical
doubles before the 6-dp round.
"""

from __future__ import annotations

import math

import pyarrow as pa

from autoner_ray.stages.combine import bounded_key_sum

_MOMENTS = ["n", "sx", "sy", "sxx", "syy", "sxy"]


def grouped_linear_fit(ds, key: str, x_col: str, y_col: str,
                       x_scale: int = 1, y_scale: int = 100):
    """Per-group OLS fit of ``y ~ x`` plus Pearson correlation.

    Returns a Dataset with columns ``(key, n, slope, intercept, corr)``
    where slope/intercept/corr are in the SCALED integer units
    (``x*x_scale``, ``y*y_scale``) rounded to 6 dp — the unit the SQL
    twin computes in, keeping the comparison exact.
    """
    import numpy as np

    def partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {key: pa.array([], pa.string())}
                | {c: pa.array([], pa.int64()) for c in _MOMENTS}
            )
        x = np.floor(
            t[x_col].to_numpy(zero_copy_only=False) * x_scale + 0.5
        ).astype(np.int64)
        y = np.floor(
            t[y_col].to_numpy(zero_copy_only=False) * y_scale + 0.5
        ).astype(np.int64)
        part = pa.table(
            {
                key: t[key],
                "n": pa.array(np.ones(len(x), np.int64)),
                "sx": pa.array(x),
                "sy": pa.array(y),
                "sxx": pa.array(x * x),
                "syy": pa.array(y * y),
                "sxy": pa.array(x * y),
            }
        )
        agg = part.group_by(key).aggregate([(c, "sum") for c in _MOMENTS])
        return agg.rename_columns([key] + _MOMENTS)

    moments = bounded_key_sum(
        ds.map_batches(partial, batch_format="pyarrow"), [key], _MOMENTS
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    key: pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "slope": pa.array([], pa.float64()),
                    "intercept": pa.array([], pa.float64()),
                    "corr": pa.array([], pa.float64()),
                }
            )
        # exact Python-int moment algebra, then float64 in the SAME
        # order as the SQL twin (cast num/den to double, divide, round)
        rows = {c: t[c].to_pylist() for c in [key] + _MOMENTS}
        slope, intercept, corr = [], [], []
        for i in range(len(t)):
            n = rows["n"][i]
            sx, sy = rows["sx"][i], rows["sy"][i]
            sxx, syy, sxy = rows["sxx"][i], rows["syy"][i], rows["sxy"][i]
            num = n * sxy - sx * sy
            dx = n * sxx - sx * sx
            dy = n * syy - sy * sy
            if dx == 0:
                slope.append(None)
                intercept.append(None)
                corr.append(None)
                continue
            sl = float(num) / float(dx)
            slope.append(round(sl, 6))
            intercept.append(round((float(sy) - sl * float(sx)) / float(n), 6))
            corr.append(
                None
                if dy == 0
                else round(float(num) / math.sqrt(float(dx) * float(dy)), 6)
            )
        return pa.table(
            {
                key: rows[key],
                "n": pa.array(rows["n"], pa.int64()),
                "slope": pa.array(slope, pa.float64()),
                "intercept": pa.array(intercept, pa.float64()),
                "corr": pa.array(corr, pa.float64()),
            }
        )

    return moments.map_batches(finish, batch_format="pyarrow")


def spearman_corr(docs_ds, x_col: str = "n_chars"):
    """EXACT tie-corrected Spearman rank correlation between a doc's
    ``x_col`` and its whitespace token count — Pearson over AVERAGE
    ranks, carried in doubled-rank INTEGERS (a tie group's average
    rank is a half-integer; doubling keeps every moment exact) so the
    engine and the SQL twin agree bit-for-bit. One row:
    (n, spearman) rounded 6 dp in the twin's float op order.

    Scale shape: both variables live on bounded value domains
    (chars/tokens per doc), so pass 1 is two bounded value histograms;
    the doubled-rank maps derive from their cumulative sums on the
    driver and broadcast; pass 2 is a stateless vectorized gather +
    int64 moment partials (n, Σx, Σy, Σxx, Σyy, Σxy) into one bounded
    combine. Doubled ranks reach 2n, so int64 moments are exact to
    n ≈ 1.5e9 rows; shard the moment key beyond that."""
    import numpy as np

    import ray

    from autoner_ray.stages.tokenize import sentence_token_stream

    _v_schema = pa.schema(
        [("which", pa.string()), ("val", pa.int64()), ("n", pa.int64())]
    )

    def val_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _v_schema.empty_table()
        import numpy as np

        x = t[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = np.fromiter(
            (len(sentence_token_stream(s or ""))
             for s in t["text"].to_pylist()),
            np.int64, count=len(t),
        )
        xs, xc = np.unique(x, return_counts=True)
        ys, yc = np.unique(y, return_counts=True)
        return pa.table(
            {
                "which": pa.array(
                    ["x"] * len(xs) + ["y"] * len(ys), pa.string()
                ),
                "val": pa.array(
                    np.concatenate([xs, ys]), pa.int64()
                ),
                "n": pa.array(
                    np.concatenate([xc, yc]).astype(np.int64), pa.int64()
                ),
            },
            schema=_v_schema,
        )

    hists = bounded_key_sum(
        docs_ds.map_batches(val_partial, batch_format="pyarrow",
                            batch_size=65536),
        keys=["which", "val"], sum_cols=["n"],
    ).to_pandas()

    def rank_map(df) -> dict:
        df = df.sort_values("val")
        cnt = df["n"].to_numpy()
        below = np.concatenate([[0], np.cumsum(cnt)[:-1]])
        # doubled average rank of a tie group: 2*cum_below + cnt + 1
        return dict(
            zip(df["val"], (2 * below + cnt + 1).astype(np.int64))
        )

    xmap = ray.put(rank_map(hists[hists["which"] == "x"]))
    ymap = ray.put(rank_map(hists[hists["which"] == "y"]))

    _m_schema = pa.schema(
        [("g", pa.string())]
        + [(c, pa.int64()) for c in _MOMENTS]
    )

    class MomentPartial:
        def __init__(self) -> None:
            self.xmap = ray.get(xmap)
            self.ymap = ray.get(ymap)

        def __call__(self, t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or len(t) == 0:
                return _m_schema.empty_table()
            import numpy as np
            import pandas as pd

            x = t[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
            y = np.fromiter(
                (len(sentence_token_stream(s or ""))
                 for s in t["text"].to_pylist()),
                np.int64, count=len(t),
            )
            dx = pd.Series(x).map(self.xmap).to_numpy(np.int64)
            dy = pd.Series(y).map(self.ymap).to_numpy(np.int64)
            return pa.table(
                {
                    "g": pa.array(["all"], pa.string()),
                    "n": pa.array([len(dx)], pa.int64()),
                    "sx": pa.array([int(dx.sum())], pa.int64()),
                    "sy": pa.array([int(dy.sum())], pa.int64()),
                    "sxx": pa.array([int((dx * dx).sum())], pa.int64()),
                    "syy": pa.array([int((dy * dy).sum())], pa.int64()),
                    "sxy": pa.array([int((dx * dy).sum())], pa.int64()),
                },
                schema=_m_schema,
            )

    moments = bounded_key_sum(
        docs_ds.map_batches(MomentPartial, batch_format="pyarrow",
                            batch_size=65536, concurrency=2),
        keys=["g"], sum_cols=_MOMENTS,
    ).to_pandas()
    n = int(moments["n"].iloc[0])
    sx, sy = int(moments["sx"].iloc[0]), int(moments["sy"].iloc[0])
    sxx = int(moments["sxx"].iloc[0])
    syy = int(moments["syy"].iloc[0])
    sxy = int(moments["sxy"].iloc[0])
    num = n * sxy - sx * sy
    dx_ = n * sxx - sx * sx
    dy_ = n * syy - sy * sy
    rho = (
        None if dx_ == 0 or dy_ == 0
        else round(float(num) / math.sqrt(float(dx_) * float(dy_)), 6)
    )
    return pa.table(
        {
            "n": pa.array([n], pa.int64()),
            "spearman": pa.array([rho], pa.float64()),
        }
    )
