"""Flagship KG-construction pipeline (north rule end-to-end).

    read pages -> extract_text -> tokenize (sentence rows)
      -> DictMatcher task pool w/ per-worker matcher cache (batch trie walk
         + segmentDP kernel)
      -> pair partial counts -> edge aggregate
      -> [optional] sorted adjacency graph shards

Lifecycle mirrors SURVEY.md §3.4. Everything before the edge aggregate
is an embarrassingly parallel stream. The KG aggregates — the edges,
the doc-freq, type and evidence tables, the infix relations — are the
one keyed combine (:func:`autoner_ray.stages.combine.keyed_combine`):
a per-batch Arrow hash aggregate, then one exchange in one of two
tiers. Keys bounded by a dictionary (the "pairs"/"pairs_ev" edges, the
unigram entities and types) take the bounded tier, one combine task and
no all-to-all exchange; the rest take the one exchange
(:func:`autoner_ray.stages.combine.exchange`), a sort on the key hash.

Also provides the unigram-dictionary variant whose semantics are exactly
expressible in ANSI SQL — that variant backs the driver's DuckDB
correctness gate, while the full trie/DP variant is pinned by pytest
oracle + reference-binary golden tests.
"""

from __future__ import annotations

import pyarrow as pa

from autoner_ray.dicts import CORE_DICT, FULL_DICT, STOPWORDS, UNIGRAM_DICT
from autoner_ray.sources.pages import read_pages
from autoner_ray.stages.combine import BOUNDED_MAX_KEYS, exchange, keyed_combine
from autoner_ray.stages.dict_match import pair_key_bound
from autoner_ray.stages.extract import extract_text_batch
from autoner_ray.stages.tokenize import (
    sentence_token_stream,
    tokenize_pages_batch,
)
from autoner_ray.stages.triples import (
    aggregate_edges,
    pair_counts_batch,
    pairs_within,
)

DEFAULT_BATCH_SIZE = 2048


def _default_parallelism(repeat: int):
    """Block count for replicated-input runs: ~2 blocks per cluster CPU.

    Benchmarked sweet spot (16 CPUs, 640k docs): 2 blocks/CPU beats both
    1/CPU (stragglers on the fixed pool) and 4/CPU (per-task overhead +
    driver scheduling load). Single-pass runs (repeat=1) keep file-driven
    parallelism — at 100 TB the file count dwarfs the cluster.
    """
    if repeat <= 1:
        return None
    try:
        import ray

        if ray.is_initialized():
            cpus = int(ray.cluster_resources().get("CPU", 8))
            # at least 2 blocks/CPU for width, and at least one block per
            # input copy so per-task work stays ~1-2 s — coarse blocks at
            # high repeat leave the fixed pool with 2-wave straggler tails
            return max(2 * max(4, cpus), repeat)
    except Exception:
        pass
    return None


def pages_dataset(sf_dir: str, repeat: int = 1):
    return read_pages(
        sf_dir, parallelism=_default_parallelism(repeat), repeat=repeat
    )


def extracted_pages(sf_dir: str, repeat: int = 1):
    return pages_dataset(sf_dir, repeat=repeat).map_batches(
        extract_text_batch, batch_format="pyarrow"
    )


def sentences_dataset(sf_dir: str, repeat: int = 1):
    return extracted_pages(sf_dir, repeat=repeat).map_batches(
        tokenize_pages_batch, batch_format="pyarrow"
    )


def matched_sentences(
    sf_dir: str,
    concurrency=None,
    output: str = "sentences",
    repeat: int = 1,
):
    """Dictionary match over sentence rows — TASK pool with a per-worker
    trie cache (``dict_match_fn``): the trie builds once per worker for
    the whole session, so back-to-back pipelines over the same
    dictionaries carry no per-run pool-spawn or rebuild cost. Pass
    ``concurrency`` to cap concurrent tasks (tests); None = let the
    scheduler use every free CPU."""
    from autoner_ray.stages.dict_match import dict_match_fn

    return sentences_dataset(sf_dir, repeat=repeat).map_batches(
        dict_match_fn(
            CORE_DICT, FULL_DICT, STOPWORDS, output=output
        ),
        batch_format="pyarrow",
        batch_size=DEFAULT_BATCH_SIZE,
        concurrency=concurrency,
        num_cpus=1,
    )


def triples_dataset(sf_dir: str, concurrency=None, repeat: int = 1):
    """Full-pipeline edges: (subj, pred, obj, weight).

    The sentence->pair combiner runs inside the dictionary-match task
    (``output="pairs"``) so each task emits pre-aggregated edge partials
    directly. The edge keys are pairs of the dictionary's canonical
    surfaces, so the final aggregate takes the one-task bounded tier
    whenever :func:`pair_key_bound` is small enough.
    """
    pairs = matched_sentences(
        sf_dir, concurrency, output="pairs", repeat=repeat
    )
    return aggregate_edges(
        pairs, max_keys=pair_key_bound(CORE_DICT, FULL_DICT, STOPWORDS)
    )


def graph_shards(sf_dir: str, out_dir: str, num_parts: int = 16):
    from autoner_ray.stages.graph import materialize_graph

    return materialize_graph(triples_dataset(sf_dir), out_dir, num_parts)


# ---------------------------------------------------------------------------
# Unigram-dictionary variant (SQL-checkable; DuckDB oracle in __ray_entry__)
# ---------------------------------------------------------------------------

def _unigram_entities_batch(batch: pa.Table) -> pa.Table:
    """documents -> (doc_id, entities list) via the unigram dictionary.

    Matches the SQL ``unnest(string_split(text,' ')) JOIN dict`` semantics:
    the token stream for this corpus (words + single spaces) is identical
    under the real tokenizer and the SQL split.
    """
    ents_col = []
    for text in batch["text"].to_pylist():
        toks = sentence_token_stream(text or "")
        ents = {UNIGRAM_DICT[t][0] for t in toks if t in UNIGRAM_DICT}
        ents_col.append(sorted(ents))
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "entities": pa.array(ents_col, pa.list_(pa.string())),
        }
    )


def unigram_doc_entities(sf_dir: str):
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return ds.map_batches(_unigram_entities_batch, batch_format="pyarrow")


# canonical unigram entity -> type; it bounds the unigram queries' keys
_UNIGRAM_TYPE_OF = {e: t for e, t in UNIGRAM_DICT.values()}


def _unigram_entity_counts(sf_dir: str, keys: list[str], count: str,
                           max_keys: int):
    """Matched (doc, entity) rows counted by ``keys`` (``entity``,
    ``type`` or both) into the column ``count``."""
    import numpy as np
    import pyarrow.compute as pc

    ents = pa.array(list(_UNIGRAM_TYPE_OF), pa.string())
    types = pa.array(list(_UNIGRAM_TYPE_OF.values()), pa.string())

    def entity_rows(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(batch["entities"])
        return pa.table(
            {
                "entity": flat,
                "type": types.take(pc.index_in(flat, value_set=ents)),
                count: pa.array(np.ones(len(flat), np.int64)),
            }
        )

    rows = unigram_doc_entities(sf_dir).map_batches(
        entity_rows, batch_format="pyarrow"
    )
    schema = pa.schema([(k, pa.string()) for k in keys] + [(count, pa.int64())])
    return keyed_combine(rows, schema, [(count, "sum")], max_keys=max_keys)


def unigram_mention_type_counts(sf_dir: str):
    """Per-type count of matched (doc, entity) pairs — SQL-checkable.
    Types are bounded by the dictionary, so the combine is the one-task
    bounded tier."""
    return _unigram_entity_counts(
        sf_dir, ["type"], "mentions", len(set(_UNIGRAM_TYPE_OF.values()))
    )


def unigram_triples(sf_dir: str):
    """Doc-scoped co-occurrence edges over the unigram dictionary."""
    pairs = unigram_doc_entities(sf_dir).map_batches(
        pair_counts_batch, batch_format="pyarrow"
    )
    return aggregate_edges(pairs)


def unigram_canonical_entities(sf_dir: str):
    """SQL-checkable canonicalization: case-insensitive unigram mentions
    -> canonical surface + dense entity ids (stages/canonicalize.py)."""
    import ray.data as rd

    from autoner_ray.stages.canonicalize import (
        canonical_entities,
        entity_id_table,
    )

    dict_keys = set(UNIGRAM_DICT)

    def surfaces(batch: pa.Table) -> pa.Table:
        out = []
        for text in batch["text"].to_pylist():
            for tok in sentence_token_stream(text or ""):
                if tok.lower() in dict_keys:
                    out.append(tok)
        return pa.table({"surface": pa.array(out, pa.string())})

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"]
    ).map_batches(surfaces, batch_format="pyarrow")
    return entity_id_table(canonical_entities(ds))


def kg_mentions_linked(sf_dir: str, concurrency=None, link_concurrency=2):
    """Full-trie mentions + dense entity ids via the broadcast link join."""
    from autoner_ray.stages.canonicalize import (
        canonical_entities,
        link_mentions,
    )

    # matcher is a task pool now (dict_match_fn) — it yields CPUs to the
    # fixed link actor pool naturally, so no width budgeting is needed.
    # (LinkMentions stays an actor pool: its broadcast table is computed
    # per run, so a per-worker cache would just accumulate stale state.)
    mentions = matched_sentences(sf_dir, concurrency, output="mentions")
    return link_mentions(
        mentions, canonical_entities(mentions), concurrency=link_concurrency
    )


def unigram_entity_doc_freq(sf_dir: str):
    """Per-entity document frequency over the unigram dictionary."""
    return _unigram_entity_counts(
        sf_dir, ["entity"], "doc_freq", len(_UNIGRAM_TYPE_OF)
    )


def unigram_edge_pmi(sf_dir: str):
    """Edge scoring beyond counts: doc-level PMI per co-occurring entity
    pair — ``ln(c_ab * N / (c_a * c_b))`` over document frequencies.

    Distributed shape: the ENTITY doc-freq table is vocab-bounded (~10^6
    at web scale) so it is collected once and broadcast via ``ray.put``;
    the EDGE table (up to vocab² — ~10^9 rows at web scale) stays a
    Dataset and the PMI arithmetic streams through ``map_batches``.
    SQL twin in ``oracle_sql`` (same expression tree, 6-dp round)."""
    import numpy as np
    import ray

    n_docs = int(
        __import__("pyarrow.parquet", fromlist=["read_metadata"])
        .read_metadata(f"{sf_dir}/documents.parquet").num_rows
    )
    freqs = {
        r["entity"]: int(r["doc_freq"])
        for r in unigram_entity_doc_freq(sf_dir).take_all()
    }
    freq_ref = ray.put(freqs)

    def score(batch: pa.Table) -> pa.Table:
        # vectorized gather + log over the (vocab²-sized) edge table:
        # pandas map against the broadcast doc-freq dict, numpy log,
        # np.round(…, 6) — half-even like the oracle's ROUND(x, 6);
        # the driver value-hash pins equality (brand_revenue pattern).
        import pandas as pd

        df = ray.get(freq_ref)
        dfs = pd.Series(batch["subj"].to_pylist()).map(df).to_numpy(
            np.float64
        )
        dfo = pd.Series(batch["obj"].to_pylist()).map(df).to_numpy(
            np.float64
        )
        w = batch["weight"].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        pmi = np.round(np.log(w * n_docs / (dfs * dfo)), 6)
        return pa.table(
            {
                "subj": batch["subj"],
                "obj": batch["obj"],
                "weight": batch["weight"],
                "pmi": pa.array(pmi, pa.float64()),
            }
        )

    return unigram_triples(sf_dir).map_batches(
        score, batch_format="pyarrow"
    )


def unigram_entity_jaccard(sf_dir: str):
    """Entity-pair document-set Jaccard: ``|docs(a) & docs(b)| /
    |docs(a) | docs(b)|`` for every co-occurring pair — the
    set-overlap sibling of PMI (entity-resolution / relatedness
    signal). Intersection IS the aggregated edge weight (doc-scoped
    co-occurrence count) and the union derives from the broadcast
    doc-freq table, so the whole score is one streaming map over the
    edge table — same broadcast shape as ``unigram_edge_pmi``; exact
    integer intersection/union columns plus a 6-dp ratio."""
    import numpy as np
    import ray

    freqs = {
        r["entity"]: int(r["doc_freq"])
        for r in unigram_entity_doc_freq(sf_dir).take_all()
    }
    freq_ref = ray.put(freqs)

    def score(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = ray.get(freq_ref)
        dfs = pd.Series(batch["subj"].to_pylist()).map(df).to_numpy(
            np.int64
        )
        dfo = pd.Series(batch["obj"].to_pylist()).map(df).to_numpy(
            np.int64
        )
        w = batch["weight"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        union = dfs + dfo - w
        jac = np.round(
            w.astype(np.float64) / union.astype(np.float64), 6
        )
        return pa.table(
            {
                "subj": batch["subj"],
                "obj": batch["obj"],
                "co_docs": pa.array(w, pa.int64()),
                "union_docs": pa.array(union, pa.int64()),
                "jaccard": pa.array(jac, pa.float64()),
            }
        )

    return unigram_triples(sf_dir).map_batches(
        score, batch_format="pyarrow"
    )


def unigram_assoc_rules(sf_dir: str):
    """Association-rule scores per DIRECTED co-occurring entity pair:
    confidence(a=>b) = co_docs/df(a) and lift = N*co_docs/(df(a)*df(b))
    — the market-basket mining face of edge scoring (PMI's ratio
    without the log, plus the directional conditional). Same broadcast
    doc-freq + streaming edge map as ``unigram_edge_pmi``; each
    undirected edge emits both directions."""
    import numpy as np
    import ray

    n_docs = int(
        __import__("pyarrow.parquet", fromlist=["read_metadata"])
        .read_metadata(f"{sf_dir}/documents.parquet").num_rows
    )
    freqs = {
        r["entity"]: int(r["doc_freq"])
        for r in unigram_entity_doc_freq(sf_dir).take_all()
    }
    freq_ref = ray.put(freqs)

    def score(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = ray.get(freq_ref)
        subj = batch["subj"].to_pylist()
        obj = batch["obj"].to_pylist()
        wi = batch["weight"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        dfi_s = pd.Series(subj).map(df).to_numpy(np.int64)
        dfi_o = pd.Series(obj).map(df).to_numpy(np.int64)
        # exact integer ppm (no float rounding-mode hazards); the
        # int64 bound w*N*1e6 < 2^63 holds to ~10^6-doc oracles —
        # at web scale report lift in micro units from a float path
        lift_ppm = wi * n_docs * 1_000_000 // (dfi_s * dfi_o)
        conf_ab = wi * 1_000_000 // dfi_s
        conf_ba = wi * 1_000_000 // dfi_o
        return pa.table(
            {
                "antecedent": pa.array(subj + obj, pa.string()),
                "consequent": pa.array(obj + subj, pa.string()),
                "co_docs": pa.concat_arrays(
                    [
                        batch["weight"].combine_chunks().cast(pa.int64()),
                        batch["weight"].combine_chunks().cast(pa.int64()),
                    ]
                ),
                "confidence_ppm": pa.array(
                    np.concatenate([conf_ab, conf_ba]), pa.int64()
                ),
                "lift_ppm": pa.array(
                    np.concatenate([lift_ppm, lift_ppm]), pa.int64()
                ),
            }
        )

    return unigram_triples(sf_dir).map_batches(
        score, batch_format="pyarrow"
    )


def unigram_proximity_edges(sf_dir: str):
    """PROXIMITY-weighted co-occurrence edges: every in-document
    mention pair of two distinct entities contributes
    ``floor(1e6/token_distance + 0.5)`` integer micro-weight — closer
    mentions bind harder, the decay KG construction uses when no
    dependency parse is available (vs the flat doc-scoped count of
    ``unigram_triples``). Integer micro-weights keep the distributed
    sum order-independent and hash-exact vs the SQL twin
    (string_split positions + self-join).

    Scale shape: mention pairs are quadratic per DOCUMENT (bounded by
    mentions/doc; cap or window hub documents at web scale — same
    policy as LSH hot buckets), vectorized with numpy triangle
    indices; per-batch (subj, obj) partials then combine
    key-distributed. Nothing corpus-sized leaves the batch."""
    import numpy as np
    import ray.data as rd

    schema = pa.schema(
        [("subj", pa.string()), ("obj", pa.string()),
         ("n_pairs", pa.int64()), ("prox_micro", pa.int64())]
    )

    def pair_partial(batch: pa.Table) -> pa.Table:
        subj_all, obj_all, micro_all = [], [], []
        for text in batch["text"].to_pylist():
            toks = (text or "").split(" ")
            pos, ents = [], []
            for i, t in enumerate(toks):
                hit = UNIGRAM_DICT.get(t)
                if hit is not None:
                    pos.append(i + 1)
                    ents.append(hit[0])
            if len(ents) < 2:
                continue
            p = np.asarray(pos, np.int64)
            e = np.asarray(ents, object)
            ii, jj = np.triu_indices(len(e), k=1)
            keep = e[ii] != e[jj]
            ii, jj = ii[keep], jj[keep]
            if len(ii) == 0:
                continue
            d = (p[jj] - p[ii]).astype(np.float64)
            micro = np.floor(1e6 / d + 0.5).astype(np.int64)
            ea, eb = e[ii], e[jj]
            lo = np.minimum(ea, eb)
            hi = np.maximum(ea, eb)
            subj_all.append(lo)
            obj_all.append(hi)
            micro_all.append(micro)
        if not subj_all:
            return schema.empty_table()
        t = pa.table(
            {
                "subj": pa.array(
                    np.concatenate(subj_all).tolist(), pa.string()
                ),
                "obj": pa.array(
                    np.concatenate(obj_all).tolist(), pa.string()
                ),
                "n_pairs": pa.array(
                    np.ones(sum(len(x) for x in micro_all), np.int64)
                ),
                "prox_micro": pa.array(
                    np.concatenate(micro_all), pa.int64()
                ),
            }
        )
        agg = t.group_by(["subj", "obj"]).aggregate(
            [("n_pairs", "sum"), ("prox_micro", "sum")]
        )
        return agg.rename_columns(
            ["subj", "obj", "n_pairs", "prox_micro"]
        )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return keyed_combine(
        ds.map_batches(pair_partial, batch_format="pyarrow"), schema,
        [("n_pairs", "sum"), ("prox_micro", "sum")], part_on=("subj",),
    )


def unigram_cooccur_topk(sf_dir: str, k: int = 3):
    """Per-entity top-k co-occurring neighbors over the unigram graph:
    (entity, neighbor, weight, rank) with rank 1..k ordered weight DESC,
    neighbor ASC (deterministic tie-break). SQL twin: ROW_NUMBER() over
    the bidirectional edge list.

    Scale shape: the input is the ALREADY-AGGREGATED edge table (≤
    vocab² rows, one per undirected pair), expanded to both directions
    inside the batch. A per-batch partial top-k bounds every entity to
    ≤k rows per batch before the one exchange on entity, so the
    exchange moves O(k · |vocab| · blocks-touching-entity) rows, never
    the full edge table; the per-block pandas head(k) finishes. The
    corpus itself never shuffles."""
    import pandas as pd

    def partial_topk(t: pa.Table) -> pa.Table:
        df = t.select(["subj", "obj", "weight"]).to_pandas()
        both = pd.concat(
            [
                df.rename(columns={"subj": "entity", "obj": "neighbor"}),
                df.rename(columns={"obj": "entity", "subj": "neighbor"}),
            ],
            ignore_index=True,
        )[["entity", "neighbor", "weight"]]
        both = both.sort_values(
            ["entity", "weight", "neighbor"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        top = both.groupby("entity", sort=False).head(k)
        return pa.table(
            {
                "entity": pa.array(top["entity"], pa.string()),
                "neighbor": pa.array(top["neighbor"], pa.string()),
                "weight": pa.array(top["weight"].to_numpy(), pa.int64()),
            }
        )

    def final_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["entity", "weight", "neighbor"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        top = df.groupby("entity", sort=False).head(k).copy()
        top["rank"] = top.groupby("entity", sort=False).cumcount() + 1
        return top[["entity", "neighbor", "weight", "rank"]]

    return exchange(
        unigram_triples(sf_dir).map_batches(
            partial_topk, batch_format="pyarrow"
        ),
        ("entity",), final_topk,
        pa.schema([("entity", pa.string()), ("neighbor", pa.string()),
                   ("weight", pa.int64()), ("rank", pa.int64())]),
        batch_format="pandas",
    )


def unigram_pagerank(sf_dir: str):
    """PageRank over the unigram co-occurrence graph — the SQL-checkable
    face of the graph stage (oracle: 20 unrolled power iterations in
    DuckDB). 6-dp round keeps the value-hash robust to float summation
    order across engines."""
    from autoner_ray.stages.graph import pagerank

    return pagerank(unigram_triples(sf_dir), round_dp=6)


def unigram_connected_components(sf_dir: str):
    """Connected components over the unigram graph (oracle: recursive
    reachability CTE, component = lexicographic min of reachable set)."""
    from autoner_ray.stages.graph import connected_components

    return connected_components(unigram_triples(sf_dir))


def unigram_bfs_distances(sf_dir: str):
    """Single-source hop distances from the lexicographically smallest
    entity over the unigram co-occurrence graph (oracle: depth-capped
    recursive reachability CTE with MIN(d) per node)."""
    from autoner_ray.stages.graph import bfs_distances

    return bfs_distances(unigram_triples(sf_dir))


def unigram_degree_distribution(sf_dir: str):
    """Degree histogram of the unigram co-occurrence graph (oracle:
    GROUP BY degree over per-src counts of the unique bidirectional
    edge list)."""
    from autoner_ray.stages.graph import degree_distribution

    return degree_distribution(unigram_triples(sf_dir))


def unigram_adamic_adar(sf_dir: str):
    """Adamic-Adar link-prediction scores over the unigram
    co-occurrence graph (oracle: wedge self-join + degree join with
    integer micro-quantized 1/ln(deg) terms)."""
    from autoner_ray.stages.graph import adamic_adar

    return adamic_adar(unigram_triples(sf_dir))


def unigram_triangles(sf_dir: str):
    """Per-entity triangle counts over the unigram co-occurrence graph
    (oracle: three-way self-join on the subj<obj pair list; each
    triangle is enumerated once at its lexicographic orientation and
    credited to all three corners)."""
    from autoner_ray.stages.graph import triangle_counts

    return triangle_counts(unigram_triples(sf_dir))


def typed_triples_dataset(sf_dir: str, concurrency=None, repeat: int = 1):
    """Pattern-rule typed triples: (subj, pred=gap-pattern|cooccurs_with,
    obj, weight). The predicates are gap tokens from the text, so the
    dictionary does not bound the edge keys and the aggregate keeps the
    partitioned tier."""
    pairs = matched_sentences(
        sf_dir, concurrency, output="typed_pairs", repeat=repeat
    )
    return aggregate_edges(pairs)


def triples_with_evidence(sf_dir: str, concurrency=None, repeat: int = 1):
    """Flagship edges + provenance: min (url, sent_id) evidence pointer,
    with the flagship's dictionary key bound."""
    pairs = matched_sentences(
        sf_dir, concurrency, output="pairs_ev", repeat=repeat
    )
    return aggregate_edges(
        pairs, max_keys=pair_key_bound(CORE_DICT, FULL_DICT, STOPWORDS)
    )


def unigram_triples_with_evidence(sf_dir: str):
    """SQL-checkable twin: evidence = MIN doc_id where the pair co-occurs."""
    import numpy as np
    import pyarrow.compute as pc

    def pairs_ev(batch: pa.Table) -> pa.Table:
        # a doc's entities are distinct and sorted, so each pair is
        # (min, max)
        lists = batch["entities"].combine_chunks()
        doc = pc.list_parent_indices(lists).to_numpy()
        flat = pc.list_flatten(lists)
        i, j = pairs_within(doc)
        return pa.table(
            {
                "subj": flat.take(pa.array(i)),
                "obj": flat.take(pa.array(j)),
                "weight": pa.array(np.ones(len(i), np.int64)),
                "evidence_doc": batch["doc_id"].take(pa.array(doc[i])),
            }
        )

    n = len(_UNIGRAM_TYPE_OF)
    return keyed_combine(
        unigram_doc_entities(sf_dir).map_batches(
            pairs_ev, batch_format="pyarrow"
        ),
        pa.schema([("subj", pa.string()), ("obj", pa.string()),
                   ("weight", pa.int64()), ("evidence_doc", pa.int64())]),
        [("weight", "sum"), ("evidence_doc", "min")],
        part_on=("subj",), max_keys=n * (n - 1) // 2,
    )


def unigram_entity_type_profile(sf_dir: str):
    """Per (entity, type) doc-mention counts — the type histogram face of
    the canonical entity table (SQL-checkable)."""
    return _unigram_entity_counts(
        sf_dir, ["entity", "type"], "n_docs", len(_UNIGRAM_TYPE_OF)
    )


def unigram_typed_edge_filter(sf_dir: str, subj_type="Operator",
                              obj_type="Structure"):
    """Edges restricted by entity TYPE on both ends — the type profile is
    a broadcast-side dim lookup, no extra shuffle (SQL-checkable)."""
    type_of = {e: t for e, t in UNIGRAM_DICT.values()}

    def keep(batch: pa.Table) -> pa.Table:
        mask = [
            # edges are (min, max)-ordered, so check both assignments
            (type_of.get(s) == subj_type and type_of.get(o) == obj_type)
            or (type_of.get(s) == obj_type and type_of.get(o) == subj_type)
            for s, o in zip(
                batch["subj"].to_pylist(), batch["obj"].to_pylist()
            )
        ]
        return batch.filter(pa.array(mask, pa.bool_()))

    return unigram_triples(sf_dir).map_batches(keep, batch_format="pyarrow")


def unigram_adjacency(sf_dir: str):
    """Adjacency-shard view of the unigram co-occurrence triple graph:
    one row per subject with its edge list serialized
    ``pred:obj:weight;...`` in (pred, obj) order plus the out-degree —
    the SQL-checkable face of :func:`~autoner_ray.stages.graph.
    adjacency_lists` / ``materialize_graph`` (same sort order the
    Parquet shards use, so the oracle certifies the shard layout
    contract, oracle: ``string_agg`` with the same ORDER BY)."""

    import pandas as pd

    def to_adj(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["subj", "pred", "obj"], kind="mergesort")
        item = (
            df["pred"] + ":" + df["obj"] + ":"
            + df["weight"].astype("int64").astype(str)
        )
        adj = item.groupby(df["subj"], sort=False).agg(";".join)
        return pd.DataFrame(
            {
                "src": adj.index,
                "adjacency": adj.to_numpy(),
                "degree": df.groupby("subj", sort=False).size().to_numpy(),
            }
        )

    return exchange(
        unigram_triples(sf_dir), ("subj",), to_adj,
        pa.schema([("src", pa.string()), ("adjacency", pa.string()),
                   ("degree", pa.int64())]),
        batch_format="pandas",
    )


def unigram_infix_relations(sf_dir: str, max_gap: int = 3,
                            min_count: int = 2):
    """Surface-pattern relation extraction (OpenIE-lite): every ORDERED
    in-document pair of distinct entity mentions at token distance
    2..``max_gap``+1 emits the triple (subj, infix-words, obj); triples
    seen ≥ ``min_count`` times survive. The infix string is the
    predicate — the "X acquired Y" / "X of Y" patterns KG construction
    mines when no dependency parser is available.

    Scale shape: pair mining is per-document and GAP-BOUNDED (each
    mention looks ≤ ``max_gap``+1 tokens ahead — linear in corpus
    size, unlike the quadratic proximity kernel); the triple counts go
    through the partitioned keyed combine (one exchange on subj),
    then the HAVING filter. Output is pattern-vocabulary bounded."""
    import numpy as np
    import pyarrow.compute as pc
    import ray.data as rd

    def rel_rows(batch: pa.Table) -> pa.Table:
        subj_all, pred_all, obj_all = [], [], []
        for text in batch["text"].to_pylist():
            toks = (text or "").split(" ")
            pos, ents = [], []
            for i, t in enumerate(toks):
                hit = UNIGRAM_DICT.get(t)
                if hit is not None:
                    pos.append(i)
                    ents.append(hit[0])
            n = len(ents)
            for a in range(n):
                for b in range(a + 1, n):
                    gap = pos[b] - pos[a]
                    if gap > max_gap + 1:
                        break
                    if gap < 2 or ents[a] == ents[b]:
                        continue
                    subj_all.append(ents[a])
                    pred_all.append(
                        " ".join(toks[pos[a] + 1 : pos[b]])
                    )
                    obj_all.append(ents[b])
        return pa.table(
            {
                "subj": pa.array(subj_all, pa.string()),
                "pred": pa.array(pred_all, pa.string()),
                "obj": pa.array(obj_all, pa.string()),
                "n": pa.array(np.ones(len(subj_all), np.int64)),
            }
        )

    def having(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["n"], min_count))

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return keyed_combine(
        ds.map_batches(rel_rows, batch_format="pyarrow"),
        pa.schema([("subj", pa.string()), ("pred", pa.string()),
                   ("obj", pa.string()), ("n", pa.int64())]),
        [("n", "sum")], part_on=("subj",),
    ).map_batches(having, batch_format="pyarrow", batch_size=None)


def unigram_hash_walks(sf_dir: str):
    """Deterministic 2-hop graph walks for embedding-training corpora
    (the DeepWalk/node2vec sampling stage made reproducible): from
    every entity, hop h moves to the neighbor minimizing
    ``md5(cur || '|h|' || neighbor)`` — a pure content-keyed choice,
    so walks are identical across runs, widths and block layouts
    (unlike RNG-seeded walks) while still pseudo-uniform over
    neighbors. Returns (seed, hop1, hop2).

    Scale shape: ONE exchange sorts the bidirectional edge list on
    the hash of src; each block computes BOTH per-node minimizers
    (hop-1 and hop-2 salts) in a single grouped pass, then one
    vocab-bounded cogroup join stitches hop2 = next2(hop1). Nothing
    graph-sized on the driver; md5 cost is |E|-bounded (edge table,
    never the corpus)."""
    import hashlib

    import pandas as pd

    from autoner_ray.stages.joins import cogroup_join

    def bidir(t: pa.Table) -> pa.Table:
        src = t["subj"].to_pylist() + t["obj"].to_pylist()
        dst = t["obj"].to_pylist() + t["subj"].to_pylist()
        return pa.table(
            {
                "src": pa.array(src, pa.string()),
                "dst": pa.array(dst, pa.string()),
            }
        )

    def next_hops(df: pd.DataFrame) -> pd.DataFrame:
        h1 = [
            hashlib.md5(f"{s}|1|{d}".encode()).hexdigest()
            for s, d in zip(df["src"], df["dst"])
        ]
        h2 = [
            hashlib.md5(f"{s}|2|{d}".encode()).hexdigest()
            for s, d in zip(df["src"], df["dst"])
        ]
        df = df.assign(h1=h1, h2=h2)
        g = df.groupby("src", sort=False)
        n1 = df.loc[g["h1"].idxmin(), ["src", "dst"]]
        n2 = df.loc[g["h2"].idxmin(), ["src", "dst"]]
        out = n1.rename(
            columns={"src": "node", "dst": "next1"}
        ).merge(
            n2.rename(columns={"src": "node", "dst": "next2"}),
            on="node",
        )
        return out.reset_index(drop=True)

    # both join sides read `hops`: pin the vocab-bounded table once so
    # the corpus-sized upstream doesn't execute twice (lazy Datasets
    # re-run per consumer)
    hops = exchange(
        unigram_triples(sf_dir).map_batches(bidir, batch_format="pyarrow"),
        ("src",), next_hops,
        pa.schema([("node", pa.string()), ("next1", pa.string()),
                   ("next2", pa.string())]),
        batch_format="pandas",
    ).materialize()

    def left_side(t: pa.Table) -> pa.Table:
        return pa.table({"seed": t["node"], "node": t["next1"]})

    def right_side(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["node"], "hop2": t["next2"]})

    walks = cogroup_join(
        hops.map_batches(left_side, batch_format="pyarrow"),
        hops.map_batches(right_side, batch_format="pyarrow"),
        on=("node",),
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {"seed": t["seed"], "hop1": t["node"], "hop2": t["hop2"]}
        )

    return walks.map_batches(finish, batch_format="pyarrow")


def unigram_triple_delta(sf_dir: str):
    """Incremental-KG delta: the edge updates that arrive when the odd
    half of the corpus (doc_id % 2 = 1, the "new crawl") lands on top
    of the even half (the "existing KG") — every co-occurrence edge the
    new docs touch, with its prior weight, the increment, the resulting
    total, and an is-new flag. This is the maintenance shape a
    continuously-crawled KG runs instead of full rebuilds: only touched
    edges ship downstream.

    Scale shape: one pass over documents emits per-batch (subj, obj,
    w_old, w_new) partials (the parity split is a flag on the SAME
    stream — the corpus is read once, not twice); a subj-partitioned
    distributed sum merges them (edge keys are unbounded); the final
    new-edge filter is a stateless map. No driver-sized state."""
    from collections import Counter
    from itertools import combinations

    import pyarrow.compute as pc

    def delta_partial(t: pa.Table) -> pa.Table:
        counter: Counter[tuple[str, str, int]] = Counter()
        for doc_id, ents in zip(
            t["doc_id"].to_pylist(), t["entities"].to_pylist()
        ):
            is_new = int(doc_id) % 2
            for a, b in combinations(ents, 2):
                counter[(a, b, is_new)] += 1
        subjs, objs, olds, news = [], [], [], []
        for (a, b, is_new), w in counter.items():
            subjs.append(a)
            objs.append(b)
            olds.append(0 if is_new else w)
            news.append(w if is_new else 0)
        return pa.table(
            {
                "subj": pa.array(subjs, pa.string()),
                "obj": pa.array(objs, pa.string()),
                "old_weight": pa.array(olds, pa.int64()),
                "new_weight": pa.array(news, pa.int64()),
            }
        )

    merged = keyed_combine(
        unigram_doc_entities(sf_dir).map_batches(
            delta_partial, batch_format="pyarrow"
        ),
        pa.schema([("subj", pa.string()), ("obj", pa.string()),
                   ("old_weight", pa.int64()), ("new_weight", pa.int64())]),
        [("old_weight", "sum"), ("new_weight", "sum")], part_on=("subj",),
    )

    def finish(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["new_weight"], pa.scalar(0)))
        total = pc.add(t["old_weight"], t["new_weight"])
        is_new = pc.cast(
            pc.equal(t["old_weight"], pa.scalar(0)), pa.int64()
        )
        return pa.table(
            {
                "subj": t["subj"],
                "obj": t["obj"],
                "old_weight": t["old_weight"],
                "new_weight": t["new_weight"],
                "total_weight": total,
                "is_new_edge": is_new,
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow")


def unigram_entity_density(sf_dir: str):
    """Per-document mention-density audit over the unigram dictionary:
    token count, dictionary-token mentions (with repeats), distinct
    entities, and density in integer ppm (mentions * 10^6 // tokens) —
    the corpus-selection signal that decides which documents feed KG
    construction (mention-sparse docs carry no triples).

    Scale shape: ONE stateless vectorized ``map_batches`` (explode ->
    isin -> per-doc integer aggregate); no shuffle, no state.
    """
    import numpy as np
    import pandas as pd
    import ray.data as rd

    dict_words = list(UNIGRAM_DICT)

    def density(df: pd.DataFrame) -> pd.DataFrame:
        cols = [
            "doc_id", "n_tokens", "n_mentions", "n_entities",
            "density_ppm",
        ]
        if df.empty:
            return pd.DataFrame(
                {c: pd.Series([], dtype="int64") for c in cols}
            )
        words = df["text"].fillna("").str.split(" ")
        ex = pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy().repeat(
                    words.str.len().to_numpy()
                ),
                "word": np.concatenate(words.to_numpy()),
            }
        )
        ex = ex[ex["word"] != ""]
        ex["hit"] = ex["word"].isin(dict_words).astype("int64")
        g = ex.groupby("doc_id", sort=False)
        agg = g.agg(
            n_tokens=("word", "size"),
            n_mentions=("hit", "sum"),
        ).reset_index()
        ents = (
            ex[ex["hit"] == 1]
            .groupby("doc_id", sort=False)["word"]
            .nunique()
        )
        agg["n_entities"] = (
            agg["doc_id"].map(ents).fillna(0).astype("int64")
        )
        agg["density_ppm"] = (
            agg["n_mentions"].to_numpy() * 1_000_000
            // agg["n_tokens"].to_numpy()
        )
        for c in cols[1:]:
            agg[c] = agg[c].astype("int64")
        return agg[cols]

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return ds.map_batches(density, batch_format="pandas")


def unigram_type_schema_census(sf_dir: str):
    """KG SCHEMA CENSUS: roll the co-occurrence edge list up to entity-
    TYPE pairs — for every unordered (type_a, type_b), the number of
    distinct entity pairs and the total co-occurrence weight. The
    schema-induction summary that tells a KG builder which relation
    types the corpus actually supports (ref contract: the typed-edge
    filter at `unigram_typed_edge_filter`, aggregated instead of
    filtered).

    Scale shape: edge list arrives pre-aggregated from
    :func:`unigram_triples` (one global row per pair); the type lookup
    is a dict-bounded broadcast map; the tail is a shuffle-free bounded
    combine over <= |types|^2 keys.
    """
    type_of = {e: t for e, t in UNIGRAM_DICT.values()}

    def rollup(batch: pa.Table) -> pa.Table:
        ta = [type_of[s] for s in batch["subj"].to_pylist()]
        tb = [type_of[o] for o in batch["obj"].to_pylist()]
        lo = [min(a, b) for a, b in zip(ta, tb)]
        hi = [max(a, b) for a, b in zip(ta, tb)]
        t = pa.table(
            {
                "type_a": pa.array(lo, pa.string()),
                "type_b": pa.array(hi, pa.string()),
                "n_pairs": pa.array([1] * len(lo), pa.int64()),
                "total_weight": batch["weight"].cast(pa.int64()),
            }
        )
        agg = t.group_by(["type_a", "type_b"]).aggregate(
            [("n_pairs", "sum"), ("total_weight", "sum")]
        )
        return agg.rename_columns(
            ["type_a", "type_b", "n_pairs", "total_weight"]
        )

    return keyed_combine(
        unigram_triples(sf_dir).map_batches(rollup, batch_format="pyarrow"),
        pa.schema([("type_a", pa.string()), ("type_b", pa.string()),
                   ("n_pairs", pa.int64()), ("total_weight", pa.int64())]),
        [("n_pairs", "sum"), ("total_weight", "sum")],
        max_keys=BOUNDED_MAX_KEYS,
    )


def unigram_ntriples(sf_dir: str):
    """N-Triples EXPORT of the co-occurrence edge list: one canonical
    RDF line per edge (`<urn:e:subj> <urn:r:cooccurs_with> <urn:e:obj> .`)
    plus the weight column — the interchange format a downstream triple
    store ingests. IRI-escaping is the identity for this dictionary
    (entity ids are [a-z]+); :func:`parse_ntriples_batch` is the
    inverse and the roundtrip is pinned by pytest.

    Scale shape: a stateless vectorized string concat over the
    pre-aggregated edge list; no shuffle.
    """
    import pyarrow.compute as pc

    def serialize(batch: pa.Table) -> pa.Table:
        line = pc.binary_join_element_wise(
            "<urn:e:", batch["subj"].cast(pa.string()),
            "> <urn:r:cooccurs_with> <urn:e:",
            batch["obj"].cast(pa.string()), "> .", "",
        )
        return pa.table(
            {"ntriple": line, "weight": batch["weight"].cast(pa.int64())}
        )

    return unigram_triples(sf_dir).map_batches(
        serialize, batch_format="pyarrow"
    )


_NT_RE = (
    r"^<urn:e:(?P<subj>[^>]+)> <urn:r:(?P<pred>[^>]+)>"
    r" <urn:e:(?P<obj>[^>]+)> \.$"
)


def parse_ntriples_batch(batch: pa.Table) -> pa.Table:
    """Inverse of :func:`unigram_ntriples`: parse canonical N-Triples
    lines back to (subj, pred, obj) via one vectorized RE2 extract
    (rows that don't match the canonical form are dropped)."""
    import pyarrow.compute as pc

    line = pc.fill_null(batch["ntriple"], "").combine_chunks()
    ok = pc.match_substring_regex(line, _NT_RE)
    line = line.filter(ok)
    st = pc.extract_regex(line, _NT_RE)
    keep = {
        "subj": st.field("subj"),
        "pred": st.field("pred"),
        "obj": st.field("obj"),
    }
    if "weight" in batch.column_names:
        keep["weight"] = batch["weight"].filter(ok)
    return pa.table(keep)


# ---------------------------------------------------------------------------
# Temporal provenance over the unigram KG (crawl-timestamp lineage)
# ---------------------------------------------------------------------------

def unigram_entity_timeline(sf_dir: str):
    """Per-entity crawl-time provenance: first_seen / last_seen
    ``warc_ts`` plus document support count.

    The KG analogue of a crawl ledger — when did each entity enter the
    graph, when was it last observed, how much evidence backs it. The
    page timestamp is the same pure doc_id derivation the pages source
    uses (`sources/pages.py::derive_pages_batch`), so the DuckDB twin
    recomputes it exactly.

    Scale shape: per-batch min/max/sum partials over the dict-bounded
    entity set, then the hash-partitioned two-level combine
    (`stages/combine.py::keyed_combine`) — no corpus shuffle, no
    driver-side state.
    """
    from autoner_ray.sources.pages import _TS_BASE_US

    def partials(batch: pa.Table) -> pa.Table:
        ents_per_doc = batch["entities"].to_pylist()
        ids = batch["doc_id"].to_pylist()
        ent_col, first, last, n = [], [], [], []
        agg: dict[str, list[int]] = {}
        for did, ents in zip(ids, ents_per_doc):
            ts = _TS_BASE_US + did * 1_000_000
            for e in ents:
                cur = agg.get(e)
                if cur is None:
                    agg[e] = [ts, ts, 1]
                else:
                    cur[0] = min(cur[0], ts)
                    cur[1] = max(cur[1], ts)
                    cur[2] += 1
        for e in sorted(agg):
            ent_col.append(e)
            first.append(agg[e][0])
            last.append(agg[e][1])
            n.append(agg[e][2])
        return pa.table(
            {
                "entity": pa.array(ent_col, pa.string()),
                "first_us": pa.array(first, pa.int64()),
                "last_us": pa.array(last, pa.int64()),
                "n_docs": pa.array(n, pa.int64()),
            }
        )

    agg_ds = keyed_combine(
        unigram_doc_entities(sf_dir).map_batches(
            partials, batch_format="pyarrow"
        ),
        pa.schema([("entity", pa.string()), ("first_us", pa.int64()),
                   ("last_us", pa.int64()), ("n_docs", pa.int64())]),
        [("first_us", "min"), ("last_us", "max"), ("n_docs", "sum")],
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "entity": t["entity"],
                "first_seen": t["first_us"].cast(pa.timestamp("us")),
                "last_seen": t["last_us"].cast(pa.timestamp("us")),
                "n_docs": t["n_docs"],
            }
        )

    return agg_ds.map_batches(finish, batch_format="pyarrow")


def unigram_triples_temporal(sf_dir: str):
    """Co-occurrence triples with crawl-time lineage: weight plus
    first_seen / last_seen evidence timestamps per (subj, obj) edge —
    the per-partition lineage metadata the north rule asks each graph
    shard to carry, expressed as a first-class queryable table.

    Same two-level partitioned combine as the timeline; edge
    cardinality is unbounded so the combine hash-partitions on the
    (subj, obj) key pair rather than assuming boundedness.
    """
    from autoner_ray.sources.pages import _TS_BASE_US
    from itertools import combinations

    def pair_partials(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        ents_per_doc = batch["entities"].to_pylist()
        agg: dict[tuple[str, str], list[int]] = {}
        for did, ents in zip(ids, ents_per_doc):
            ts = _TS_BASE_US + did * 1_000_000
            for a, b in combinations(sorted(ents), 2):
                cur = agg.get((a, b))
                if cur is None:
                    agg[(a, b)] = [ts, ts, 1]
                else:
                    cur[0] = min(cur[0], ts)
                    cur[1] = max(cur[1], ts)
                    cur[2] += 1
        keys = sorted(agg)
        return pa.table(
            {
                "subj": pa.array([k[0] for k in keys], pa.string()),
                "obj": pa.array([k[1] for k in keys], pa.string()),
                "first_us": pa.array([agg[k][0] for k in keys], pa.int64()),
                "last_us": pa.array([agg[k][1] for k in keys], pa.int64()),
                "weight": pa.array([agg[k][2] for k in keys], pa.int64()),
            }
        )

    agg_ds = keyed_combine(
        unigram_doc_entities(sf_dir).map_batches(
            pair_partials, batch_format="pyarrow"
        ),
        pa.schema([("subj", pa.string()), ("obj", pa.string()),
                   ("first_us", pa.int64()), ("last_us", pa.int64()),
                   ("weight", pa.int64())]),
        [("first_us", "min"), ("last_us", "max"), ("weight", "sum")],
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "subj": t["subj"],
                "obj": t["obj"],
                "weight": t["weight"],
                "first_seen": t["first_us"].cast(pa.timestamp("us")),
                "last_seen": t["last_us"].cast(pa.timestamp("us")),
            }
        )

    return agg_ds.map_batches(finish, batch_format="pyarrow")


def negative_samples(edges_ds, k: int = 2):
    """Negative sampling by corrupting triples — the training-data generator
    a KG/graph-embedding stage (TransE/DistMult) consumes: for every
    positive (subj, obj) edge (subj < obj, caller-supplied — e.g. the
    thresholded bigram collocation graph; the dense unigram entity
    graph on the test corpus is COMPLETE, leaving no valid negatives),
    ``k`` deterministic candidate corruptions of
    the object side, filtered so the corruption is neither endpoint of
    the positive nor itself a true edge. Candidate index =
    ``md5_64(subj|obj|i) % |vocab|`` over the ascending entity vocab —
    a pure content hash, identical at any parallelism, mirrored bit-
    for-bit by the SQL twin. Output (subj, obj, neg_obj, neg_i);
    filtered candidates simply emit no row (standard practice — the
    trainer resamples next epoch via a different ``i`` base).

    Scale shape: the entity vocab is DICTIONARY-BOUNDED (the same
    contract as the trie state), so the ascending-vocab array rides in
    the corruption map's closure (a task pool, one object-store copy
    per operator); the true-edge membership test is a
    left-outer ``cogroup_join`` anti-join on the unordered pair key —
    the (possibly vocab^2-sized) edge table co-partitions instead of
    broadcasting."""
    import numpy as np

    from autoner_ray.functions.hashing import md5_64
    from autoner_ray.stages.joins import cogroup_join

    positives = edges_ds.materialize()
    # dictionary-bounded vocab: ascending entity order -> stable index
    ents = sorted(
        set(
            positives.select_columns(["subj"]).to_pandas()["subj"]
        ) | set(
            positives.select_columns(["obj"]).to_pandas()["obj"]
        )
    )
    vocab = np.array(ents, dtype=object)

    # single combined pair key: the one-column string path of the
    # stable partitioner is memoized + vectorized (the multi-column
    # fallback is a per-row loop — ADVICE r3)
    _cand_schema = pa.schema(
        [
            ("pair", pa.string()),
            ("subj", pa.string()), ("obj", pa.string()),
            ("neg_obj", pa.string()), ("neg_i", pa.int64()),
        ]
    )

    def corrupt(t: pa.Table) -> pa.Table:
        n = len(vocab)
        lo, subj, obj, neg, idx = [], [], [], [], []
        for s, o in zip(t["subj"].to_pylist(), t["obj"].to_pylist()):
            for i in range(1, k + 1):
                cand = vocab[md5_64(f"{s}|{o}|{i}") % n]
                if cand == s or cand == o:
                    continue
                a, b = (s, cand) if s < cand else (cand, s)
                lo.append(f"{a}|{b}")
                subj.append(s)
                obj.append(o)
                neg.append(cand)
                idx.append(i)
        return pa.table(
            {
                "pair": pa.array(lo, pa.string()),
                "subj": pa.array(subj, pa.string()),
                "obj": pa.array(obj, pa.string()),
                "neg_obj": pa.array(neg, pa.string()),
                "neg_i": pa.array(idx, pa.int64()),
            },
            schema=_cand_schema,
        )

    _edge_schema = pa.schema(
        [("pair", pa.string()), ("hit", pa.int64())]
    )

    def edge_keys(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # positives keep subj < obj by construction
        return pa.table(
            {
                "pair": pc.binary_join_element_wise(
                    t["subj"], t["obj"], "|"
                ),
                "hit": pa.array([1] * len(t), pa.int64()),
            },
            schema=_edge_schema,
        )

    cands = positives.map_batches(corrupt, batch_format="pyarrow")
    edges = positives.map_batches(edge_keys, batch_format="pyarrow")
    _out_schema = pa.schema(
        [
            ("subj", pa.string()), ("obj", pa.string()),
            ("neg_obj", pa.string()), ("neg_i", pa.int64()),
        ]
    )

    def survivors(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.is_null(t["hit"])
        return pa.table(
            {
                "subj": t["subj"].filter(keep),
                "obj": t["obj"].filter(keep),
                "neg_obj": t["neg_obj"].filter(keep),
                "neg_i": t["neg_i"].filter(keep),
            },
            schema=_out_schema,
        )

    out = cogroup_join(
        cands, edges, on=("pair",), join_type="left outer"
    ).map_batches(survivors, batch_format="pyarrow").materialize()
    # a dense graph leaves no valid corruption; an all-empty Dataset's
    # blocks have no columns (Ray's map operator emits one for every
    # zero-row block), so an empty result is the schema'd Arrow table
    return out if out.count() else _out_schema.empty_table()


def unigram_c4(sf_dir: str):
    """4-cycle census over the unigram co-occurrence graph (see
    ``stages/graph.py::c4_count`` for the diagonal-pair identity)."""
    from autoner_ray.stages.graph import c4_count

    return c4_count(unigram_triples(sf_dir))


def transitivity_null_model(sf_dir: str):
    """Global transitivity vs its configuration-model expectation —
    the null-model test that says whether the graph's clustering is
    structure or just degree sequence: with S1 = Σk, S2 = Σk² over the
    deduped undirected degrees, E[C] under the configuration model is
    the EXACT integer ratio (S2−S1)² / S1³, and actual transitivity is
    3·Δ / wedges with Δ the triangle total and wedges = Σ C(k,2) —
    every quantity an integer, both ratios floored to ppm. One row:
    (n_triangles, n_wedges, transitivity_ppm, config_expected_ppm).

    Scale shape: degrees/moments ride the endpoint combine (tiny
    partials); the triangle total reuses the pinned compact-forward
    counter."""
    import numpy as np

    from autoner_ray.stages.graph import triangle_counts

    edges = unigram_triples(sf_dir).materialize()
    tri = triangle_counts(edges)
    tri_t = tri if isinstance(tri, pa.Table) else pa.concat_tables(
        [b for b in tri.iter_batches(batch_format="pyarrow")]
    )
    n_triangles = int(sum(tri_t["triangles"].to_pylist())) // 3
    pdf = edges.to_pandas()
    import collections

    deg: dict = collections.Counter()
    for a, b in zip(pdf["subj"], pdf["obj"]):
        deg[a] += 1
        deg[b] += 1
    ks = np.array(list(deg.values()), np.int64)
    s1 = int(ks.sum())
    s2 = int((ks * ks).sum())
    wedges = int((ks * (ks - 1) // 2).sum())
    transitivity_ppm = (3 * n_triangles * 1_000_000) // wedges if wedges else 0
    expected_ppm = ((s2 - s1) ** 2 * 1_000_000) // (s1 ** 3) if s1 else 0
    return pa.table(
        {
            "n_triangles": pa.array([n_triangles], pa.int64()),
            "n_wedges": pa.array([wedges], pa.int64()),
            "transitivity_ppm": pa.array(
                [transitivity_ppm], pa.int64()
            ),
            "config_expected_ppm": pa.array([expected_ppm], pa.int64()),
        }
    )


def relation_cardinality(sf_dir: str):
    """Relation-cardinality schema induction over the typed
    co-occurrence graph — the KG-modeling question "is (TypeA,
    cooccurs, TypeB) one-to-one, one-to-many or many-to-many?",
    answered from data: for every ORDERED type pair, the max number of
    distinct B-partners any single A-entity has (fwd fanout), the
    reverse direction's max (bwd), and the derived class
    (1:1 / 1:N / N:1 / M:N). Output (type_a, type_b, n_pairs,
    max_fanout, cardinality).

    Scale shape: the aggregated edge table is dictionary-bounded (the
    unigram vocab contract), so the per-type-pair fanout maxes fold on
    the driver after the standard edge collect; at open-vocab scale
    the same maxes ride a (type_a, type_b, entity)-keyed
    partitioned combine."""
    import collections

    from autoner_ray.dicts import UNIGRAM_DICT

    edges = unigram_triples(sf_dir).to_pandas()
    # UNIGRAM_DICT maps word -> (entity, type); derive entity -> type
    etype = {}
    for w, v in UNIGRAM_DICT.items():
        ent, typ = v
        etype[ent] = typ
    fan: dict = collections.defaultdict(set)
    pair_counts: dict = collections.Counter()
    for a, b in zip(edges["subj"], edges["obj"]):
        ta, tb = etype[a], etype[b]
        fan[(ta, tb, a)].add(b)
        fan[(tb, ta, b)].add(a)
        pair_counts[(ta, tb)] += 1
        pair_counts[(tb, ta)] += 1
    maxf: dict = collections.Counter()
    for (ta, tb, _), partners in fan.items():
        maxf[(ta, tb)] = max(maxf[(ta, tb)], len(partners))
    rows = []
    for (ta, tb), n in sorted(pair_counts.items()):
        fwd = maxf[(ta, tb)]
        bwd = maxf[(tb, ta)]
        cls = (
            "1:1" if fwd == 1 and bwd == 1
            else "1:N" if fwd > 1 and bwd == 1
            else "N:1" if fwd == 1 and bwd > 1
            else "M:N"
        )
        rows.append((ta, tb, int(n), int(fwd), cls))
    return pa.table(
        {
            "type_a": pa.array([r[0] for r in rows], pa.string()),
            "type_b": pa.array([r[1] for r in rows], pa.string()),
            "n_pairs": pa.array([r[2] for r in rows], pa.int64()),
            "max_fanout": pa.array([r[3] for r in rows], pa.int64()),
            "cardinality": pa.array([r[4] for r in rows], pa.string()),
        }
    )


def unigram_local_clustering(sf_dir: str):
    """Per-entity LOCAL clustering coefficient over the unigram
    co-occurrence graph — the node-level companion of the global
    transitivity row: lcc(v) = 2*tri(v) / (deg(v)*(deg(v)-1)) in
    integer-floored ppm (0 when deg < 2). Output
    (entity, degree, triangles, lcc_ppm) for every graph node.

    Scale shape: triangles ride the pinned compact-forward counter
    (:func:`graph.triangle_counts` — O(m^1.5) wedges); degrees are the
    endpoint bounded combine; the final join/arith runs driver-side
    over the DICTIONARY-BOUNDED entity vocab (the pagerank contract)."""
    import collections

    import numpy as np

    from autoner_ray.stages.graph import triangle_counts

    edges = unigram_triples(sf_dir).materialize()
    tri = triangle_counts(edges)
    tri_t = tri if isinstance(tri, pa.Table) else pa.concat_tables(
        [b for b in tri.iter_batches(batch_format="pyarrow")]
    )
    tri_map = dict(zip(tri_t["entity"].to_pylist(),
                       tri_t["triangles"].to_pylist()))
    pdf = edges.to_pandas()
    deg: collections.Counter = collections.Counter()
    for a, b in zip(pdf["subj"], pdf["obj"]):
        deg[a] += 1
        deg[b] += 1
    ents = sorted(deg)
    d = np.array([deg[e] for e in ents], np.int64)
    t = np.array([int(tri_map.get(e, 0)) for e in ents], np.int64)
    denom = d * (d - 1)
    lcc = np.where(
        denom > 0, (2_000_000 * t) // np.maximum(denom, 1), 0
    ).astype(np.int64)
    return pa.table(
        {
            "entity": pa.array(ents, pa.string()),
            "degree": pa.array(d, pa.int64()),
            "triangles": pa.array(t, pa.int64()),
            "lcc_ppm": pa.array(lcc, pa.int64()),
        }
    )


def unigram_bipartite_projection(sf_dir: str):
    """Newman-weighted one-mode projection of the doc-entity bipartite
    graph: each doc with k >= 2 entities contributes weight
    ``1/(k-1)`` to every entity pair it contains (Newman 2001's
    collaboration weighting — a doc mentioning 20 entities says less
    about any one pair than a doc mentioning 2), quantized to integer
    micro-units per doc BEFORE summation so partials merge
    order-independently and match the SQL twin exactly. Output
    (subj, obj, n_docs, w_micro) with subj < obj.

    Scale shape: per-batch pair partials pre-aggregate (the
    pair_counts_batch pattern with a weight column), then the one
    subj-keyed shuffle of :func:`triples.aggregate_edges`'s partitioned
    shape — no new machinery, no driver state."""
    docs = unigram_doc_entities(sf_dir)

    _p_schema = pa.schema(
        [("subj", pa.string()), ("obj", pa.string()),
         ("n_docs", pa.int64()), ("w_micro", pa.int64())]
    )

    def pair_partials(t: pa.Table) -> pa.Table:
        s_col, o_col, w_col = [], [], []
        for ents in t["entities"].to_pylist():
            k = len(ents)
            if k < 2:
                continue
            w = int(1_000_000 // (k - 1))
            for i in range(k):
                for j in range(i + 1, k):
                    s_col.append(ents[i])
                    o_col.append(ents[j])
                    w_col.append(w)
        part = pa.table(
            {
                "subj": pa.array(s_col, pa.string()),
                "obj": pa.array(o_col, pa.string()),
                "n_docs": pa.array([1] * len(s_col), pa.int64()),
                "w_micro": pa.array(w_col, pa.int64()),
            },
            schema=_p_schema,
        )
        agg = part.group_by(["subj", "obj"]).aggregate(
            [("n_docs", "sum"), ("w_micro", "sum")]
        )
        return agg.rename_columns(["subj", "obj", "n_docs", "w_micro"])

    return keyed_combine(
        docs.map_batches(pair_partials, batch_format="pyarrow"), _p_schema,
        [("n_docs", "sum"), ("w_micro", "sum")], part_on=("subj",),
    )
