"""Round-5 advice regressions: the degenerate-range guards in
zorder_buckets / psi_drift (constant dimension / constant norm must
bucket everything at 0 instead of dividing by zero)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def _write_emb(tmp_path, vecs):
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(len(vecs)), pa.int64()),
                "embedding": pa.array(
                    [list(map(float, v)) for v in vecs],
                    pa.list_(pa.float32()),
                ),
                "label": pa.array([0] * len(vecs), pa.int32()),
            }
        ),
        f"{tmp_path}/embeddings.parquet",
    )
    return str(tmp_path)


def test_zorder_constant_dim_no_crash(ray_session, tmp_path):
    """A constant embedding dimension maps every row to quantile 0
    instead of 0/0 -> NaN -> .astype crash."""
    from autoner_ray.stages.similarity import zorder_buckets

    sf = _write_emb(tmp_path, [[5.0, 2.0, 1.0], [5.0, 3.0, 1.0],
                               [5.0, 4.0, 1.0]])
    t = zorder_buckets(sf)
    df = t.to_pandas() if not isinstance(t, pa.Table) else t.to_pandas()
    assert int(df["n"].sum()) == 3
    assert (df["min_q0"] == 0).all() and (df["max_q0"] == 0).all()


def test_psi_constant_norm_no_crash(ray_session, tmp_path):
    """All-equal vector norms bin every row at 0 (bin 0 holds the full
    base/cur split) instead of dividing by zero."""
    from autoner_ray.stages.similarity import psi_drift

    sf = _write_emb(tmp_path, [[3.0, 4.0], [0.0, 5.0], [5.0, 0.0],
                               [-3.0, 4.0]])  # every norm == 5
    t = psi_drift(sf)
    df = t.to_pandas() if not isinstance(t, pa.Table) else t.to_pandas()
    b0 = df[df["bin"] == 0].iloc[0]
    assert int(b0["n_base"]) + int(b0["n_cur"]) == 4
    tot = df[df["bin"] == -1].iloc[0]
    assert int(tot["n_base"]) + int(tot["n_cur"]) == 4


def _write_clustered_emb(tmp_path, n_per=12, d=8, seed=7):
    """Two tight clusters around orthogonal axes: cross-cluster cosine
    ~0 (< any ladder threshold), so the IVF tier with num_lists=2 sees
    every qualifying pair inside one list."""
    rng = np.random.default_rng(seed)
    vecs = []
    for axis in (0, 1):
        base = np.zeros(d)
        base[axis] = 1.0
        for _ in range(n_per):
            v = base + rng.normal(0, 0.02, d)
            vecs.append(v / np.linalg.norm(v))
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(len(vecs)), pa.int64()),
                "embedding": pa.array(
                    [list(map(float, v)) for v in vecs],
                    pa.list_(pa.float32()),
                ),
                "label": pa.array(
                    [i % 3 for i in range(len(vecs))], pa.int32()
                ),
            }
        ),
        f"{tmp_path}/embeddings.parquet",
    )
    return str(tmp_path)


def _frames_equal(got, want):
    assert len(got) == len(want)
    assert (got["vec_id"].to_numpy() == want["vec_id"].to_numpy()).all()
    assert (got["label"].to_numpy() == want["label"].to_numpy()).all()
    assert (
        got["label_spread"].to_numpy() == want["label_spread"].to_numpy()
    ).all()


def test_label_spread_grid_equals_brute(ray_session):
    """The grid-partitioned exact kNN label spread matches the brute
    matmul tier row-for-row on the sf0.001 corpus — including with a
    tiny block_rows forcing a multi-block grid (B > 1), the
    configuration a 100-TB run would actually use."""
    from autoner_ray.stages.similarity import (
        label_spread,
        label_spread_grid,
    )

    sf = "/root/testdata/sf0.001"
    want = (
        label_spread(sf).to_pandas()
        .sort_values("vec_id").reset_index(drop=True)
    )
    for block_rows in (4096, 128):  # B = 1 and B = 4
        got = (
            label_spread_grid(sf, block_rows=block_rows).to_pandas()
            .sort_values("vec_id").reset_index(drop=True)
        )
        _frames_equal(got, want)


def test_label_spread_ivf_equals_brute_on_clustered(ray_session, tmp_path):
    """The sub-quadratic IVF tier reproduces the brute tier on a
    cluster-separated corpus (every true top-3 neighbor shares the
    query's probe lists there — its documented exactness condition)."""
    from autoner_ray.stages.similarity import label_spread, label_spread_ivf

    sf = _write_clustered_emb(tmp_path, n_per=20)
    want = (
        label_spread(sf).to_pandas()
        .sort_values("vec_id").reset_index(drop=True)
    )
    got = (
        label_spread_ivf(sf, num_lists=2, nprobe=2).to_pandas()
        .sort_values("vec_id").reset_index(drop=True)
    )
    _frames_equal(got, want)


def test_single_link_ladder_ivf_tier_equality(ray_session, tmp_path):
    """pair_source='ivf' reproduces the exact grid tier on a
    cluster-separated fixture (no qualifying pair crosses a list)."""
    from autoner_ray.stages.similarity import single_link_ladder

    sf = _write_clustered_emb(tmp_path)
    exact = single_link_ladder(sf).to_pandas()
    ivf = single_link_ladder(sf, pair_source="ivf",
                             num_lists=2).to_pandas()
    assert exact.equals(ivf)
    # sanity: the fixture actually clusters (2 clusters at every rung)
    assert (exact["n_clusters"] == 2).all()


def test_frame_decoder_seam_mp4_plumbing():
    """A fake mp4 FrameDecoder registered via DecodeMedia(decoders=...)
    drives the REAL sampling plumbing (stride arithmetic, payload
    shedding, feature pooling, schema) end-to-end — the contract an
    ffmpeg-backed decoder drops into. Without the registration the
    same batch still fails loudly."""
    import pytest

    from autoner_ray.stages.multimodal import (
        FEATURE_DIM,
        DecodeMedia,
        FrameDecoder,
    )

    class FakeMp4Decoder(FrameDecoder):
        media_types = ("video/mp4",)

        def sample_frames(self, payload, frame_stride_ms, duration_ms):
            k = (
                max(1, duration_ms // frame_stride_ms)
                if duration_ms > 0 else 1
            )
            # deterministic solid-color frames derived from the payload
            # (distinct per stride position, <= k like a real decoder)
            frames = [
                np.full((8, 8, 3), (payload[0] + i) % 256, np.uint8)
                for i in range(k)
            ]
            return frames, k

    batch = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "media_type": pa.array(
                ["video/mp4", "video/mp4"], pa.string()
            ),
            "payload": pa.array([b"\x07mp4data", b"\x40mp4data"],
                                pa.binary()),
            "duration_ms": pa.array([12_000, 0], pa.int64()),
        }
    )
    with pytest.raises(NotImplementedError, match="FrameDecoder"):
        DecodeMedia()(batch)

    out = DecodeMedia(
        decoders={"video/mp4": FakeMp4Decoder()}
    )(batch)
    assert out.schema.names == [
        "doc_id", "media_type", "duration_ms", "features",
        "n_frames_sampled",
    ]
    assert out["n_frames_sampled"].to_pylist() == [12_000 // 5000, 1]
    feats = out["features"].to_pylist()
    assert len(feats[0]) == FEATURE_DIM
    assert all(np.isfinite(feats[0]))
