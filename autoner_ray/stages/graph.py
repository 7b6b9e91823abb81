"""Graph materialization: sorted adjacency-list Parquet shards.

north-rule final stage (SURVEY.md §7.1 "graph materialize"): edges
``(subj, pred, obj, weight)`` are hash-partitioned by ``subj`` into P
shards; within a shard, rows are sorted by ``(subj, pred, obj)`` and
written as one Parquet directory per shard so a failed run resumes by
skipping completed shards (see autoner_ray.state.manifest).

Partition id is a pure content hash (md5 of subj) — stable across runs,
processes and cluster layouts; never Python's salted ``hash()``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def stable_part(key: str, num_parts: int) -> int:
    return int.from_bytes(
        hashlib.md5(key.encode()).digest()[:8], "big"
    ) % num_parts


def add_partition_batch(num_parts: int):
    def fn(batch: pa.Table) -> pa.Table:
        parts = pa.array(
            [stable_part(s, num_parts) for s in batch["subj"].to_pylist()],
            pa.int32(),
        )
        return batch.append_column("part", parts)

    return fn


def _sort_shard(t: pa.Table) -> pa.Table:
    return t.sort_by(
        [("subj", "ascending"), ("pred", "ascending"), ("obj", "ascending")]
    )


def materialize_graph(edges_ds, out_dir: str, num_parts: int = 16):
    """edges -> sorted per-shard Parquet under ``out_dir/part=K/``.

    The exchange on ``part`` brings each shard's rows into one block,
    so each shard is one sorted file."""
    from autoner_ray.schemas import EDGES
    from autoner_ray.stages.combine import exchange

    ds = edges_ds.map_batches(
        add_partition_batch(num_parts), batch_format="pyarrow"
    )
    ds = exchange(
        ds, ("part",), _sort_shard, EDGES.append(pa.field("part", pa.int32()))
    )
    ds.write_parquet(out_dir, partition_cols=["part"])
    return out_dir


def adjacency_lists(edges_ds):
    """edges -> (src, edges: list<struct<pred,dst,weight>>) rows."""
    import pandas as pd

    from autoner_ray.stages.combine import exchange

    def to_adj(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["subj", "pred", "obj"], kind="mergesort")
        srcs, lists = [], []
        for src, g in df.groupby("subj", sort=False):
            srcs.append(src)
            lists.append([
                {"pred": p, "dst": o, "weight": int(w)}
                for p, o, w in zip(g["pred"], g["obj"], g["weight"])
            ])
        return pd.DataFrame({"src": srcs, "edges": lists})

    edge = pa.struct(
        [("pred", pa.string()), ("dst", pa.string()), ("weight", pa.int64())]
    )
    return exchange(
        edges_ds, ("subj",), to_adj,
        pa.schema([("src", pa.string()), ("edges", pa.list_(edge))]),
        batch_format="pandas",
    )


def pagerank(edges_ds, damping: float = 0.85, iters: int = 20,
             round_dp: int = 9):
    """PageRank over the entity co-occurrence graph (undirected edges
    expanded to both directions, weight-proportional transition).

    The entity vocabulary is DICTIONARY-BOUNDED (SURVEY §9: ~10^6 at web
    scale), so after the distributed edge aggregation the adjacency fits
    one node comfortably: the edges are collected (:func:`_collect`),
    endpoints become indices into the sorted node array by
    ``index_in``, and the power iteration runs as a driver-side
    numpy loop over a CSR-ish matvec — the idiomatic split: corpus-sized
    work distributed, vocab-sized work local. (A trillion-edge graph over
    an UNBOUNDED vocab would instead iterate rank as a Dataset with a
    broadcast-join per step.)

    Returns a pa.Table (entity, rank float64 rounded 1e-9) sorted by
    (rank desc, entity).
    """
    t = _collect(edges_ds, ["subj", "obj", "weight"])
    ends = pa.chunked_array(t["subj"].chunks + t["obj"].chunks,
                            t.schema.field("subj").type)
    ents = pc.unique(ends).sort()
    n = len(ents)
    if n == 0:
        return pa.table({"entity": pa.array([], pa.string()),
                         "rank": pa.array([], pa.float64())})
    src = pc.index_in(t["subj"], value_set=ents).to_numpy()
    dst = pc.index_in(t["obj"], value_set=ents).to_numpy()
    w = t["weight"].to_numpy().astype(np.float64)
    # undirected: both directions
    rows = np.concatenate([src, dst])
    cols = np.concatenate([dst, src])
    ww = np.concatenate([w, w])
    out_w = np.zeros(n)
    np.add.at(out_w, rows, ww)
    ww_norm = ww / out_w[rows]
    rank = np.full(n, 1.0 / n)
    for _ in range(iters):
        contrib = np.zeros(n)
        np.add.at(contrib, cols, rank[rows] * ww_norm)
        rank = (1 - damping) / n + damping * contrib
    # rank desc, then entity (ents is sorted, so its index order)
    order = np.lexsort((np.arange(n), -rank))
    return pa.table(
        {
            "entity": ents.take(pa.array(order)),
            "rank": pa.array(
                [round(float(r), round_dp) for r in rank[order]],
                pa.float64(),
            ),
        }
    )


# above this many edges :func:`component_labels` propagates labels as a
# Dataset; below it the driver union-find is cheaper (each distributed
# round costs two shuffles, pure fixed cost on a small graph)
DRIVER_UF_MAX_EDGES = 2_000_000


def union_find_labels(a, b) -> pa.Table:
    """Connected components of the undirected edge list ``a[i] -- b[i]``
    (two Arrow arrays of one orderable dtype) by union-find on the
    driver: path halving, union by min, so a node's label is the
    smallest node of its component — content-derived, independent of
    edge order. Returns ``(src, label)``, one row per node, in ``src``
    order, both of the input dtype."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    for x, y in zip(a.to_pylist(), b.to_pylist()):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    src = sorted(parent)
    return pa.table(
        {
            "src": pa.array(src, a.type),
            "label": pa.array([find(x) for x in src], a.type),
        }
    )


def _collect(ds, cols: list[str]) -> pa.Table:
    """``cols`` of a Dataset as one driver-side Arrow table; an empty
    Dataset (whose blocks may have no columns) gives an empty table of
    the Dataset's declared types, null-typed when it declares none."""
    blocks = [
        b.select(cols)
        for b in ds.iter_batches(batch_size=None, batch_format="pyarrow")
        if len(b)
    ]
    if blocks:
        return pa.concat_tables(blocks, promote_options="permissive")
    schema = ds.schema()
    types = dict(zip(schema.names, schema.types)) if schema else {}
    return pa.schema(
        [(c, types.get(c, pa.null())) for c in cols]
    ).empty_table()


def _node_type(edges_ds) -> pa.DataType:
    """The Arrow type of the ``subj`` column; string when the Dataset
    declares no schema (all its blocks empty) or reports a numpy class
    (pandas-backed blocks)."""
    schema = edges_ds.schema()
    node_type = (
        schema.types[schema.names.index("subj")] if schema else pa.string()
    )
    return node_type if isinstance(node_type, pa.DataType) else pa.string()


def component_labels(edges_ds) -> pa.Table:
    """``(src, label)`` for every node of the undirected ``subj``/``obj``
    edge Dataset, ``label`` = the smallest node of its component, rows in
    ``src`` order. Up to :data:`DRIVER_UF_MAX_EDGES` edges the driver
    runs :func:`union_find_labels`; above it
    :func:`connected_components_distributed` propagates the labels and
    its result is collected. Both tiers give the same table, one row per
    node of an edge, so the driver holds at most two rows per edge."""
    edges = edges_ds.materialize()
    if edges.count() <= DRIVER_UF_MAX_EDGES:
        t = _collect(edges, ["subj", "obj"])
        return union_find_labels(t["subj"], t["obj"])
    return _collect(
        connected_components_distributed(edges), ["src", "label"]
    ).sort_by("src")


def connected_components_distributed(edges_ds, max_iters: int = 50):
    """Min-label propagation with the label table AS A DATASET (the
    unbounded-vocab tier of :func:`component_labels`): iterate
    ``label[v] = min(label[v], min over neighbors' label)`` via a hash
    join + keyed min until a fixpoint (checked with a distributed
    count of changed rows). Converges in O(component diameter)
    rounds.

    Node dtype follows the edge columns (string entities or int64 doc
    ids both work; "min" is the dtype's natural order). Returns the
    ``(src, label)`` Dataset, unordered.
    """
    import pyarrow.compute as pc

    from autoner_ray.cluster import default_num_partitions
    from autoner_ray.stages.combine import keyed_combine
    from autoner_ray.stages.joins import cogroup_join

    # the label table's block-count bound: 1x CPUs keeps per-iteration
    # task count bounded without oversubscribing small graphs
    num_blocks = default_num_partitions(multiplier=1)
    node_type = _node_type(edges_ds)

    def expand(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": pa.chunked_array(t["subj"].chunks + t["obj"].chunks),
                "dst": pa.chunked_array(t["obj"].chunks + t["subj"].chunks),
            }
        )

    bidir = edges_ds.map_batches(expand, batch_format="pyarrow").materialize()
    # every node starts as its own label
    labels = keyed_combine(
        bidir.map_batches(
            lambda t: pa.table({"src": t["src"], "label": t["src"]}),
            batch_format="pyarrow",
        ),
        pa.schema([("src", node_type), ("label", node_type)]),
        [("label", "min")],
    ).materialize()
    _nl_schema = pa.schema([("src", node_type), ("nl", node_type)])
    n_changed = 0
    for _ in range(max_iters):
        def neighbor_labels(t: pa.Table) -> pa.Table:
            return pa.table({"src": t["dst"], "nl": t["label"]})

        neigh_min = keyed_combine(
            cogroup_join(bidir, labels, on=("src",)).map_batches(
                neighbor_labels, batch_format="pyarrow"
            ),
            _nl_schema, [("nl", "min")],
        )

        def merge_labels(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "src": t["src"],
                    "label": pc.min_element_wise(t["label"], t["nl"]),
                    "changed": pc.cast(
                        pc.less(t["nl"], t["label"]), pa.int64()
                    ),
                }
            )

        merged = (
            cogroup_join(labels, neigh_min, on=("src",))
            .map_batches(merge_labels, batch_format="pyarrow")
            .materialize()
        )
        n_changed = merged.sum("changed")
        # coalesce: the exchange PRESERVES input block count, so a
        # fed-back label table would double its blocks every round
        # (16 -> 48 -> 112 -> ... — superlinear wall time); bound it
        labels = (
            merged.select_columns(["src", "label"])
            .repartition(num_blocks)
            .materialize()
        )
        if not n_changed:
            break
    else:  # loop exhausted max_iters with labels still moving
        if n_changed:
            import logging

            logging.getLogger(__name__).warning(
                "connected_components_distributed: label propagation did "
                "NOT converge in %d iterations (%d labels still changing) "
                "— returned components may be split; raise max_iters "
                "(convergence needs O(component diameter) rounds)",
                max_iters,
                n_changed,
            )
    return labels


def bfs_distances(edges_ds, source=None, max_depth: int = 32):
    """Single-source shortest-path (hop) distances on the undirected
    entity graph — min-DISTANCE propagation with the dist table as a
    Dataset, the same join + keyed-min fixpoint loop as
    :func:`connected_components_distributed` with ``label`` replaced by
    ``dist`` and the neighbor update ``min(dist)+1``. Converges in
    O(eccentricity) rounds; ``max_depth`` bounds both the iteration
    count and the emitted distances (exact whenever the true distance
    is <= max_depth — the same cap the recursive-CTE oracle applies).
    Unreachable nodes emit no row.

    ``source=None`` picks the minimum node id/string — deterministic
    at any parallelism, no driver scan of the node set.
    """
    import pyarrow.compute as pc

    from autoner_ray.cluster import default_num_partitions
    from autoner_ray.stages.combine import keyed_combine
    from autoner_ray.stages.joins import cogroup_join

    num_blocks = default_num_partitions(multiplier=1)
    node_type = _node_type(edges_ds)
    # depth+1 sentinel: distances > max_depth cannot propagate, by
    # design — the recursive-CTE oracle applies the same cap
    sentinel = max_depth + 1

    def expand(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": pa.chunked_array(t["subj"].chunks + t["obj"].chunks),
                "dst": pa.chunked_array(t["obj"].chunks + t["subj"].chunks),
            }
        )

    bidir = edges_ds.map_batches(expand, batch_format="pyarrow").materialize()
    if not bidir.count():  # no edge, no node to reach
        return pa.schema(
            [("entity", node_type), ("dist", pa.int64())]
        ).empty_table()
    if source is None:
        source = bidir.min("src")
    seed_arr = pa.array([source], node_type)

    def init_dist(t: pa.Table) -> pa.Table:
        d = pc.if_else(
            pc.is_in(t["src"], value_set=seed_arr),
            pa.scalar(0, pa.int64()),
            pa.scalar(sentinel, pa.int64()),
        )
        return pa.table({"src": t["src"], "dist": d})

    # one row per node: its initial distance
    dist = keyed_combine(
        bidir.map_batches(init_dist, batch_format="pyarrow"),
        pa.schema([("src", node_type), ("dist", pa.int64())]),
        [("dist", "min")],
    ).materialize()
    _nd_schema = pa.schema([("src", node_type), ("nd", pa.int64())])

    def neighbor_dists(t: pa.Table) -> pa.Table:
        # neighbor's dist + 1, clipped at the sentinel so unreached
        # frontiers don't overflow past it
        nd = pc.min_element_wise(
            pc.add(t["dist"], 1), pa.scalar(sentinel, pa.int64())
        )
        return pa.table({"src": t["dst"], "nd": nd})

    def merge_dists(t: pa.Table) -> pa.Table:
        # LEFT-OUTER merge: a node with a null nd this round keeps its
        # dist rather than eroding out of the table
        nd = pc.fill_null(t["nd"], sentinel)
        return pa.table(
            {
                "src": t["src"],
                "dist": pc.min_element_wise(t["dist"], nd),
                "changed": pc.cast(pc.less(nd, t["dist"]), pa.int64()),
            }
        )

    for _ in range(max_depth):
        neigh_min = keyed_combine(
            cogroup_join(bidir, dist, on=("src",)).map_batches(
                neighbor_dists, batch_format="pyarrow"
            ),
            _nd_schema, [("nd", "min")],
        )
        merged = (
            cogroup_join(dist, neigh_min, on=("src",),
                         join_type="left outer")
            .map_batches(merge_dists, batch_format="pyarrow")
            .materialize()
        )
        n_changed = merged.sum("changed")
        # same block-count coalesce as connected_components_distributed
        dist = (
            merged.select_columns(["src", "dist"])
            .repartition(num_blocks)
            .materialize()
        )
        if not n_changed:
            break

    def finish(t: pa.Table) -> pa.Table:
        keep = pc.less_equal(t["dist"], max_depth)
        return pa.table(
            {
                "entity": t["src"].filter(keep),
                "dist": t["dist"].filter(keep),
            }
        )

    return dist.map_batches(finish, batch_format="pyarrow")


def connected_components(edges_ds):
    """Connected components of the entity graph.

    Same locality argument as :func:`pagerank`: the distributed edge
    aggregate bounds the data to the (dictionary-bounded) entity vocab,
    so :func:`union_find_labels` runs driver-side on the aggregated
    edges. Returns (entity, component) where component = the
    lexicographically smallest member — a content-derived,
    execution-order-independent label.
    """
    t = _collect(edges_ds, ["subj", "obj"])
    return union_find_labels(t["subj"], t["obj"]).rename_columns(
        ["entity", "component"]
    )


def triangle_counts(edges_ds):
    """Per-entity triangle participation counts over the undirected
    co-occurrence graph (edges as unique ``subj < obj`` string pairs).

    Compact-forward / degree orientation (Latapy 2008): every edge is
    oriented from its lower-(degree, id) endpoint to the higher one, so
    each node's OUT-degree is O(sqrt(m)) and the wedge set — all pairs
    of out-neighbors of a node — is O(m^1.5) total instead of
    sum(deg^2), which is what kills skewed co-occurrence graphs (a hub
    in 10^6 docs would otherwise emit 10^12 wedges).

    Distribution shape: degrees are a keyed combine in its partitioned
    tier (a dictionary bounds the entity vocabulary, SURVEY §9, but no
    fixed bound holds for every dictionary), collected like
    :func:`pagerank`'s, and the (degree, entity)-rank map is broadcast
    ONCE via ``ray.put``. The corpus-scale work — wedge generation and
    wedge-closure semi-join — is two exchanges: one on the wedge CENTER
    to group out-adjacency, one on the hash of the wedge ENDPOINT pair
    to co-locate each wedge with the single oriented edge that can
    close it. Per-corner counts leave each block pre-aggregated.

    Returns (entity, triangles) for entities in >=1 triangle.
    """
    import numpy as np
    import pandas as pd
    import ray

    from autoner_ray.stages.combine import exchange, keyed_combine, splitmix64

    # 1) degree per entity: per-batch partials -> keyed combine (the
    # partitioned tier: nothing bounds the entities of an edge table)
    def deg_partial(t: pa.Table) -> pa.Table:
        ents = pa.concat_arrays(
            [pc.cast(t["subj"], pa.string()).combine_chunks(),
             pc.cast(t["obj"], pa.string()).combine_chunks()]
        )
        vc = ents.value_counts()
        return pa.table({"entity": vc.field("values"),
                         "deg": pc.cast(vc.field("counts"), pa.int64())})

    deg = keyed_combine(
        edges_ds.select_columns(["subj", "obj"]).map_batches(
            deg_partial, batch_format="pyarrow"
        ),
        pa.schema([("entity", pa.string()), ("deg", pa.int64())]),
        [("deg", "sum")],
    ).to_pandas()  # one row per entity (same collect the pagerank tail does)
    if len(deg) == 0:
        return pa.table({"entity": pa.array([], pa.string()),
                         "triangles": pa.array([], pa.int64())})
    deg = deg.sort_values(["deg", "entity"], kind="mergesort")
    ents = deg["entity"].tolist()
    rank_ref = ray.put({e: i for i, e in enumerate(ents)})
    ents_ref = ray.put(np.array(ents, dtype=object))

    def pair_hash(v: np.ndarray, w: np.ndarray) -> np.ndarray:
        # a 64-bit hash of the (v, w) endpoint pair, as int64
        z = splitmix64(v.astype(np.uint64)) ^ w.astype(np.uint64)
        return splitmix64(z).view(np.int64)

    # 2) orient edges lower-rank -> higher-rank
    def orient(t: pa.Table) -> pa.Table:
        rank = ray.get(rank_ref)
        s = pd.Series(t["subj"].to_pylist()).map(rank).to_numpy(np.int64)
        o = pd.Series(t["obj"].to_pylist()).map(rank).to_numpy(np.int64)
        return pa.table(
            {
                "lo": pa.array(np.minimum(s, o), pa.int64()),
                "hi": pa.array(np.maximum(s, o), pa.int64()),
            }
        )

    oriented = edges_ds.select_columns(["subj", "obj"]).map_batches(
        orient, batch_format="pyarrow"
    )

    wedge_schema = pa.schema(
        [("v", pa.int64()), ("w", pa.int64()), ("u", pa.int64()),
         ("eh", pa.int64())]
    )

    # 3) wedges: per center u, all out-neighbor pairs (v < w by rank)
    def wedges_in_partition(df: pd.DataFrame) -> pa.Table:
        vs, ws, us = [], [], []
        for u, g in df.groupby("lo"):
            nb = np.unique(g["hi"].to_numpy(np.int64))
            d = len(nb)
            if d < 2:
                continue
            i, j = np.triu_indices(d, k=1)
            vs.append(nb[i])
            ws.append(nb[j])
            us.append(np.full(len(i), u, dtype=np.int64))
        if not vs:
            return wedge_schema.empty_table()
        v = np.concatenate(vs)
        w = np.concatenate(ws)
        u = np.concatenate(us)
        return pa.table(
            [v, w, u, pair_hash(v, w)], schema=wedge_schema
        )

    wedges = exchange(
        oriented, ("lo",), wedges_in_partition, wedge_schema,
        batch_format="pandas",
    )

    def edge_keys(t: pa.Table) -> pa.Table:
        v = t["lo"].to_numpy(zero_copy_only=False)
        w = t["hi"].to_numpy(zero_copy_only=False)
        return pa.table(
            [v, w, np.full(len(v), -1, np.int64), pair_hash(v, w)],
            schema=wedge_schema,
        )

    edge_side = oriented.map_batches(edge_keys, batch_format="pyarrow")
    count_schema = pa.schema(
        [("entity", pa.string()), ("triangles", pa.int64())]
    )

    # 4) close wedges against the oriented edge in the same block;
    #    per-corner counts leave pre-aggregated and entity-named
    def close_in_partition(df: pd.DataFrame) -> pd.DataFrame:
        is_edge = df["u"] < 0
        ek = df.loc[is_edge, ["v", "w"]]
        wd = df.loc[~is_edge]
        closed = wd.merge(ek, on=["v", "w"], how="inner")
        ids = np.concatenate(
            [closed["u"].to_numpy(np.int64),
             closed["v"].to_numpy(np.int64),
             closed["w"].to_numpy(np.int64)]
        )
        uniq, cnt = np.unique(ids, return_counts=True)
        names = ray.get(ents_ref)[uniq]
        return pd.DataFrame(
            {"entity": names, "triangles": cnt.astype("int64")}
        )

    partials = exchange(
        wedges.union(edge_side), "eh", close_in_partition, count_schema,
        batch_format="pandas",
    )
    return keyed_combine(partials, count_schema, [("triangles", "sum")])


def degree_distribution(edges_ds):
    """Degree histogram of the undirected entity graph: for each degree
    value, how many entities have it. Edge rows are unique (subj, obj)
    pairs with subj < obj (``aggregate_edges`` output), so an entity's
    degree is its row count across both endpoint positions.

    Scale shape: endpoints explode per batch (2 rows per edge) with a
    per-batch count partial, then a KEY-DISTRIBUTED combine over the
    unbounded entity keyset (nothing vocab-sized in one block); the
    histogram tail is a second keyed combine, also partitioned: the
    distinct degrees grow with the edge count (k of them need
    k(k+1)/2 <= 2|E| endpoint rows), so no fixed bound holds."""
    from autoner_ray.stages.combine import keyed_combine

    def expand(t: pa.Table) -> pa.Table:
        ents = pa.concat_arrays(
            [
                t["subj"].combine_chunks().cast(pa.string()),
                t["obj"].combine_chunks().cast(pa.string()),
            ]
        )
        agg = (
            pa.table({"entity": ents})
            .group_by("entity")
            .aggregate([([], "count_all")])
        )
        return agg.rename_columns(["entity", "one"])

    deg = keyed_combine(
        edges_ds.map_batches(
            expand, batch_format="pyarrow", batch_size=65536
        ),
        pa.schema([("entity", pa.string()), ("one", pa.int64())]),
        [("one", "sum")],
    )

    def hist_partial(t: pa.Table) -> pa.Table:
        agg = (
            t.select(["one"])
            .rename_columns(["degree"])
            .group_by("degree")
            .aggregate([([], "count_all")])
        )
        return agg.rename_columns(["degree", "n_entities"])

    return keyed_combine(
        deg.map_batches(hist_partial, batch_format="pyarrow"),
        pa.schema([("degree", pa.int64()), ("n_entities", pa.int64())]),
        [("n_entities", "sum")],
    )


def adamic_adar(edges_ds):
    """Adamic–Adar link-prediction scores for every co-wedge entity
    pair: ``AA(a,b) = SUM over common neighbors z of 1/ln(deg(z))`` —
    the classic KG-completion candidate scorer (high AA between
    non-adjacent entities suggests a missing edge).

    Determinism: each wedge contributes the integer micro-score
    ``floor(1e6/ln(deg z) + 0.5)``, so the distributed sum is
    order-independent and hash-exact vs the SQL twin (a wedge center
    has deg >= 2, so ln > 0).

    Scale shape: degrees via the key-distributed combine, joined back
    to the bidirectional edge list block-locally (one exchange on the
    center ``src``); each center emits
    its neighbor pairs (quadratic in deg — cap/salt hub entities at
    web scale, same policy as the LSH hot buckets); pair scores then
    combine key-distributed on (a, b). Nothing vocab- or edge-sized on
    the driver."""
    from autoner_ray.stages.combine import exchange, keyed_combine

    def expand_bidir(t: pa.Table) -> pa.Table:
        src = pa.concat_arrays(
            [
                t["subj"].combine_chunks().cast(pa.string()),
                t["obj"].combine_chunks().cast(pa.string()),
            ]
        )
        dst = pa.concat_arrays(
            [
                t["obj"].combine_chunks().cast(pa.string()),
                t["subj"].combine_chunks().cast(pa.string()),
            ]
        )
        return pa.table({"src": src, "dst": dst})

    bidir = edges_ds.map_batches(expand_bidir, batch_format="pyarrow")
    scores = pa.schema(
        [("a", pa.string()), ("b", pa.string()), ("n_common", pa.int64()),
         ("aa_micro", pa.int64())]
    )

    def wedge_scores(df):
        import math

        import numpy as np
        import pandas as pd

        outs = []
        for _, g in df.groupby("src", sort=False):
            nb = np.sort(g["dst"].to_numpy())
            d = len(nb)
            if d < 2:
                continue
            m = int(math.floor(1e6 / math.log(d) + 0.5))
            ii, jj = np.triu_indices(d, k=1)
            outs.append(
                pd.DataFrame(
                    {
                        "a": nb[ii],
                        "b": nb[jj],
                        "n_common": np.ones(len(ii), np.int64),
                        "aa_micro": np.full(len(ii), m, np.int64),
                    }
                )
            )
        if not outs:
            return scores.empty_table()
        out = pd.concat(outs, ignore_index=True)
        return out.groupby(["a", "b"], as_index=False, sort=False).sum()

    partials = exchange(
        bidir, ("src",), wedge_scores, scores, batch_format="pandas"
    )
    return keyed_combine(
        partials, scores, [("n_common", "sum"), ("aa_micro", "sum")],
        part_on=("a",),
    )


def c4_count(edges_ds):
    """Exact 4-cycle census of the undirected graph — the quadrilateral
    companion to :func:`triangle_counts` (C4 density separates
    bipartite-ish link farms from organic link structure): every
    unordered pair (u, v) with ``c`` common neighbors closes
    ``C(c, 2)`` quadrilaterals through its two wedge endpoints, and
    each 4-cycle is counted once per diagonal, so
    ``#C4 = Σ_pairs C(c, 2) // 2`` — all integer. One row:
    (n_pairs_with_wedges, n_c4).

    Scale shape: wedge enumeration per center node (the adamic-adar
    kernel shape) emits per-batch (u, v, n) partials; one
    pair-partitioned sum makes common-neighbor counts exact, and the
    final combinatorial sum folds per block before one tiny driver
    add."""
    import numpy as np

    from autoner_ray.stages.combine import exchange, keyed_combine

    node_type = _node_type(edges_ds)
    _w_schema = pa.schema(
        [("u", node_type), ("v", node_type), ("n", pa.int64())]
    )

    # NOTE: wedge partials require the center's full adjacency in one
    # block — the exchange on the center gives it (the
    # triangle/adamic-adar family contract)
    def center_key(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c": pa.chunked_array(t["subj"].chunks + t["obj"].chunks),
                "x": pa.chunked_array(t["obj"].chunks + t["subj"].chunks),
            }
        )

    import pandas as pd

    def wedges_by_center(df: pd.DataFrame) -> pd.DataFrame:
        us, vs = [], []
        for _, g in df.groupby("c"):
            xs = np.unique(g["x"].to_numpy())
            iu, iv = np.triu_indices(len(xs), k=1)
            us.append(xs[iu])
            vs.append(xs[iv])
        u = np.concatenate(us)
        return pd.DataFrame(
            {"u": u, "v": np.concatenate(vs), "n": np.ones(len(u), np.int64)}
        )

    pair_counts = keyed_combine(
        exchange(
            edges_ds.map_batches(center_key, batch_format="pyarrow"),
            ("c",), wedges_by_center, _w_schema, batch_format="pandas",
        ),
        _w_schema, [("n", "sum")], part_on=("u",),
    )

    _p_schema = pa.schema(
        [("n_pairs", pa.int64()), ("quads2", pa.int64())]
    )

    def fold(t: pa.Table) -> pa.Table:
        c = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "n_pairs": pa.array([len(c)], pa.int64()),
                "quads2": pa.array(
                    [int((c * (c - 1) // 2).sum())], pa.int64()
                ),
            },
            schema=_p_schema,
        )

    tot = pair_counts.map_batches(fold, batch_format="pyarrow").sum(
        ["n_pairs", "quads2"]
    ) or {}
    return pa.table(
        {
            "n_pairs_with_wedges": pa.array(
                [int(tot.get("sum(n_pairs)") or 0)], pa.int64()
            ),
            "n_c4": pa.array(
                [int((tot.get("sum(quads2)") or 0) // 2)], pa.int64()
            ),
        }
    )
