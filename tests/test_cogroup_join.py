"""cogroup_join vs an in-process pyarrow join oracle — including the
sparse/empty key shapes that crash Ray 2.49's native Dataset.join
(zero-block partitions -> schema-less tables in the aggregator)."""

from __future__ import annotations

import pyarrow as pa


def _pairs(result):
    rows = result.to_pandas().to_dict("records")
    return sorted(tuple(sorted(r.items())) for r in rows)


def test_cogroup_join_dense(ray_session, typed_blocks):
    import ray.data as rd

    from autoner_ray.stages.joins import cogroup_join

    left = pa.table({"k": list(range(50)), "a": [i * 2 for i in range(50)]})
    right = pa.table(
        {"k": [i % 25 for i in range(100)], "b": list(range(100))}
    )
    got = cogroup_join(
        rd.from_arrow(left), rd.from_arrow(right), on=("k",)
    ).materialize()
    want = left.join(right, keys=["k"], join_type="inner")
    assert _pairs(got) == _pairs(want)
    assert typed_blocks(got, pa.schema(
        [("k", pa.int64()), ("a", pa.int64()), ("b", pa.int64())]
    )) == 0


def test_cogroup_join_sparse_single_key(ray_session):
    """One key on the left, many on the right: most hash partitions see
    only one side — the case the native join dies on."""
    import ray.data as rd

    from autoner_ray.stages.joins import cogroup_join

    left = pa.table({"k": [5], "a": [1]})
    right = pa.table({"k": list(range(100)), "b": list(range(100))})
    got = cogroup_join(
        rd.from_arrow(left), rd.from_arrow(right), on=("k",)
    ).take_all()
    assert got == [{"k": 5, "a": 1, "b": 5}]


def test_cogroup_join_empty_left(ray_session):
    import ray.data as rd

    from autoner_ray.stages.joins import cogroup_join

    left = rd.from_arrow(
        pa.schema([("k", pa.int64()), ("a", pa.int64())]).empty_table()
    )
    right = rd.from_arrow(pa.table({"k": [1, 2], "b": [3, 4]}))
    assert cogroup_join(left, right, on=("k",)).take_all() == []


def test_cogroup_join_multi_key(ray_session):
    import ray.data as rd

    from autoner_ray.stages.joins import cogroup_join

    left = pa.table(
        {"k1": [1, 1, 2], "k2": ["x", "y", "x"], "a": [10, 20, 30]}
    )
    right = pa.table(
        {"k1": [1, 2, 2], "k2": ["x", "x", "z"], "b": [7, 8, 9]}
    )
    got = cogroup_join(
        rd.from_arrow(left), rd.from_arrow(right), on=("k1", "k2")
    )
    want = left.join(right, keys=["k1", "k2"], join_type="inner")
    assert _pairs(got) == _pairs(want)


def test_default_num_partitions_scales_with_session(ray_session):
    """2x cluster CPUs when a session is live, floor otherwise."""
    import ray

    from autoner_ray.cluster import default_num_partitions

    cpus = int(ray.cluster_resources()["CPU"])
    assert default_num_partitions() == max(8, 2 * cpus)
    assert default_num_partitions(multiplier=1, floor=1) == max(1, cpus)

def test_cogroup_join_nullable_int_key(ray_session):
    """A nullable int key split across batches must use ONE partition
    function: a batch containing a null must not reroute its non-null
    keys to a different partitioner than a null-free batch (ADVICE r3).
    Null keys themselves never match (inner-join semantics)."""
    import ray.data as rd

    from autoner_ray.stages.joins import cogroup_join

    # left: two single-row blocks — one with a null, one without —
    # so the same key value 7 appears in both null-free and nullable
    # batches; right: null-free batch with the matching keys.
    left = rd.from_arrow_refs(
        [
            __import__("ray").put(
                pa.table({"k": pa.array([7, None], pa.int64()), "a": [1, 2]})
            ),
            __import__("ray").put(
                pa.table({"k": pa.array([7, 3], pa.int64()), "a": [3, 4]})
            ),
        ]
    )
    right = rd.from_arrow(
        pa.table({"k": pa.array([7, 3, None], pa.int64()), "b": [70, 30, 0]})
    )
    got = _pairs(cogroup_join(left, right, on=("k",)))
    want = _pairs(
        pa.table({"k": pa.array([7, None, 7, 3], pa.int64()),
                  "a": [1, 2, 3, 4]}).join(
            pa.table({"k": pa.array([7, 3, None], pa.int64()),
                      "b": [70, 30, 0]}),
            keys=["k"], join_type="inner",
        )
    )
    assert got == want


def test_key_hash_type_only_branch():
    """Same int key value gets the same 64-bit hash whether or not its
    batch contains nulls; string nulls hash like the str(None) fallback."""
    from autoner_ray.stages.combine import key_hash

    clean = pa.table({"k": pa.array([7, 3, 1 << 40], pa.int64())})
    dirty = pa.table({"k": pa.array([7, None, 3, 1 << 40], pa.int64())})
    pc_clean = key_hash(clean, ("k",)).to_pylist()
    pc_dirty = key_hash(dirty, ("k",)).to_pylist()
    assert [pc_dirty[0], pc_dirty[2], pc_dirty[3]] == pc_clean

    s_clean = pa.table({"k": pa.array(["a", "bb"], pa.string())})
    s_dirty = pa.table({"k": pa.array(["a", None, "bb"], pa.string())})
    sc = key_hash(s_clean, ("k",)).to_pylist()
    sd = key_hash(s_dirty, ("k",)).to_pylist()
    assert [sd[0], sd[2]] == sc


def test_cogroup_join_left_outer(ray_session, typed_blocks):
    """Left-outer: unmatched left rows survive with null right columns,
    including partitions whose right side is entirely empty."""
    import ray.data as rd

    from autoner_ray.stages.joins import cogroup_join

    left = pa.table({"k": list(range(20)), "a": [i * 2 for i in range(20)]})
    right = pa.table({"k": [3, 7], "b": [30, 70]})
    got = cogroup_join(
        rd.from_arrow(left), rd.from_arrow(right), on=("k",),
        join_type="left outer",
    ).materialize()
    assert typed_blocks(got, pa.schema(
        [("k", pa.int64()), ("a", pa.int64()), ("b", pa.int64())]
    )) == 0
    want = left.join(right, keys=["k"], join_type="left outer")

    def norm(pairs):
        # NaN != NaN breaks tuple equality — null right columns compare
        # as None
        return [
            tuple((k, None if v != v else v) for k, v in row)
            for row in pairs
        ]

    assert norm(_pairs(got)) == norm(_pairs(want))
    # all 20 left rows present, 18 with null b
    df = got.to_pandas()
    assert len(df) == 20 and int(df["b"].isna().sum()) == 18
