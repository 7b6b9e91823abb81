"""Graph shard materialization + Zipfian-skew hardening tests."""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq


def test_materialize_graph_sorted_shards(ray_session, tmp_path):
    import ray.data as rd

    from autoner_ray.stages.graph import materialize_graph, stable_part

    edges = pa.table(
        {
            "subj": [f"e{i % 7}" for i in range(100)],
            "pred": ["cooccurs_with"] * 100,
            "obj": [f"o{i}" for i in range(100)],
            "weight": [1] * 100,
        }
    )
    out = str(tmp_path / "graph")
    materialize_graph(rd.from_arrow(edges).repartition(4), out, num_parts=4)
    files = glob.glob(os.path.join(out, "**", "*.parquet"), recursive=True)
    assert files
    seen = 0
    for part_dir in sorted(glob.glob(os.path.join(out, "part=*"))):
        part = int(part_dir.rsplit("=", 1)[1])
        t = pa.concat_tables(
            pq.read_table(f)
            for f in glob.glob(os.path.join(part_dir, "*.parquet"))
        )
        rows = list(
            zip(t["subj"].to_pylist(), t["pred"].to_pylist(),
                t["obj"].to_pylist())
        )
        assert rows == sorted(rows), "shard not sorted"
        for s, _, _ in rows:
            assert stable_part(s, 4) == part, "row in wrong shard"
        seen += len(rows)
    assert seen == 100


def test_canonicalize_zipfian_head(ray_session):
    """A head entity holding 60% of mentions (Zipf worst case) still
    resolves exactly through the combiner + hash-partitioned reduce."""
    import ray.data as rd

    from autoner_ray.stages.canonicalize import (
        canonical_entities,
        entity_id_table,
    )

    head = ["Spark"] * 3000 + ["spark"] * 2500 + ["SPARK"] * 500
    tail = [f"ent{i}" for i in range(200) for _ in range(3)]
    table = pa.table({"surface": pa.array(head + tail, pa.string())})
    ds = rd.from_arrow(table).repartition(16)
    got = entity_id_table(canonical_entities(ds))
    m = {
        k: (s, n, i)
        for k, s, n, i in zip(
            got["key"].to_pylist(),
            got["canonical_surface"].to_pylist(),
            got["n_mentions"].to_pylist(),
            got["entity_id"].to_pylist(),
        )
    }
    assert m["spark"] == ("Spark", 6000, 0)  # head entity, id 0
    assert m["ent0"][1] == 3
    assert len(m) == 201


def test_edge_aggregate_zipfian_subject(ray_session):
    """Hot subject: combiner-first pair counting keeps the shuffle rows
    bounded by distinct edges, and weights stay exact."""
    import ray.data as rd

    from autoner_ray.stages.triples import aggregate_edges, pair_counts_batch

    # 2000 sentences all containing the hot entity + one of 10 others
    rows = [["hot", f"t{i % 10}"] for i in range(2000)]
    ds = rd.from_arrow(
        pa.table({"entities": pa.array([sorted(r) for r in rows])})
    ).repartition(8)
    pairs = ds.map_batches(pair_counts_batch, batch_format="pyarrow")
    # pre-aggregation bound: at most |distinct edges| rows per block
    assert pairs.count() <= 10 * 8
    edges = aggregate_edges(pairs).to_pandas()
    assert len(edges) == 10
    assert edges["weight"].sum() == 2000


def test_pagerank_matches_dense_oracle(ray_session):
    """Distributed edges -> pagerank == dense-matrix power iteration."""
    import numpy as np
    import ray.data as rd

    from autoner_ray.stages.graph import pagerank

    edges = pa.table(
        {
            "subj": ["a", "a", "b", "c"],
            "pred": ["p"] * 4,
            "obj": ["b", "c", "c", "d"],
            "weight": [2, 1, 1, 3],
        }
    )
    got = pagerank(rd.from_arrow(edges), damping=0.85, iters=50)

    ents = ["a", "b", "c", "d"]
    M = np.zeros((4, 4))
    for s, o, w in [(0, 1, 2), (0, 2, 1), (1, 2, 1), (2, 3, 3)]:
        M[s, o] += w
        M[o, s] += w
    P = M / M.sum(axis=1, keepdims=True)
    r = np.full(4, 0.25)
    for _ in range(50):
        r = 0.15 / 4 + 0.85 * (P.T @ r)
    want = dict(zip(ents, r))
    got_map = dict(zip(got["entity"].to_pylist(), got["rank"].to_pylist()))
    for e in ents:
        assert abs(got_map[e] - want[e]) < 1e-9
    # ranks sum to ~1 and ordering is deterministic
    assert abs(sum(got_map.values()) - 1.0) < 1e-6


def test_connected_components_oracle(ray_session):
    import ray.data as rd

    from autoner_ray.stages.graph import connected_components

    edges = pa.table(
        {
            "subj": ["a", "b", "x", "p"],
            "pred": ["p"] * 4,
            "obj": ["b", "c", "y", "q"],
            "weight": [1] * 4,
        }
    )
    got = connected_components(rd.from_arrow(edges))
    comp = dict(zip(got["entity"].to_pylist(), got["component"].to_pylist()))
    assert comp == {
        "a": "a", "b": "a", "c": "a",
        "x": "x", "y": "x",
        "p": "p", "q": "p",
    }


def test_connected_components_distributed_matches_driver(ray_session,
                                                         monkeypatch):
    import ray.data as rd

    from autoner_ray.stages import graph
    from autoner_ray.stages.graph import (
        component_labels,
        connected_components,
    )

    edges = pa.table(
        {
            # a chain (tests multi-round propagation), plus two islands
            "subj": ["a", "b", "c", "d", "x", "p"],
            "pred": ["p"] * 6,
            "obj": ["b", "c", "d", "e", "y", "q"],
            "weight": [1] * 6,
        }
    )
    ds = rd.from_arrow(edges)
    want = connected_components(ds)
    monkeypatch.setattr(graph, "DRIVER_UF_MAX_EDGES", 0)
    got = component_labels(ds)
    assert got["src"].to_pylist() == want["entity"].to_pylist()
    assert got["label"].to_pylist() == want["component"].to_pylist()


def test_bfs_distances_matches_bruteforce():
    """bfs_distances == driver BFS on a random graph: chain (multi-round
    frontier), cycle, and a disconnected island that must emit no rows
    when unreachable from the min-node source."""
    import random
    from collections import deque

    import ray.data as rd

    from autoner_ray.stages.graph import bfs_distances

    rng = random.Random(17)
    nodes = [f"n{i:02d}" for i in range(18)]
    edges = {(nodes[i], nodes[i + 1]) for i in range(10)}  # chain from n00
    edges |= {("n11", "n12"), ("n12", "n13"), ("n13", "n11")}  # island cycle
    for _ in range(8):
        a, b = rng.sample(nodes[:11], 2)
        edges.add((min(a, b), max(a, b)))
    subj, obj = zip(*sorted(edges))

    adj: dict[str, set[str]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    src = min(adj)
    want, q = {src: 0}, deque([src])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in want:
                want[v] = want[u] + 1
                q.append(v)

    ds = rd.from_arrow(
        pa.table(
            {
                "subj": list(subj),
                "pred": ["p"] * len(subj),
                "obj": list(obj),
                "weight": [1] * len(subj),
            }
        )
    ).repartition(4)
    got = {
        r["entity"]: r["dist"] for r in bfs_distances(ds).take_all()
    }
    assert got == want  # island absent: unreachable emits nothing
