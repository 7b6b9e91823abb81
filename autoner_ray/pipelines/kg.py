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
a per-batch Arrow hash aggregate, then one of two tiers. Keys bounded
by a dictionary (the "pairs"/"pairs_ev" edges, the unigram entities,
entity pairs and types) take the bounded tier: the partials stream to
the driver and fold into one table there, with no all-to-all exchange
and no combine task, so such a query runs its plan when it is called
and returns a one-block ``from_arrow`` Dataset. The rest take the one
exchange (:func:`autoner_ray.stages.combine.exchange`), a sort on the
key hash.

Also provides the unigram-dictionary variant whose semantics are exactly
expressible in ANSI SQL — that variant backs the driver's DuckDB
correctness gate, while the full trie/DP variant is pinned by pytest
oracle + reference-binary golden tests. The variant has one contract:
a document's mentions are the words of ``string_split(text, ' ')`` (a
null text has none) that equal a dictionary word exactly, or, for the
canonical-entity table, whose lower-cased form does. One Arrow kernel,
:func:`_mentions`, implements it for every query of the family; the
distinct (document, entity) pairs and the in-document entity pairs all
derive from its output.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from autoner_ray.dicts import CORE_DICT, FULL_DICT, STOPWORDS, UNIGRAM_DICT
from autoner_ray.sources.pages import _TS_BASE_US, read_pages
from autoner_ray.stages.combine import (
    combine_table,
    exchange,
    key_columns,
    keyed_combine,
)
from autoner_ray.stages.dict_match import pair_key_bound
from autoner_ray.stages.extract import extract_text_batch
from autoner_ray.stages.graph import (
    _collect,
    adamic_adar,
    bfs_distances,
    c4_count,
    connected_components,
    degree_distribution,
    materialize_graph,
    pagerank,
    triangle_counts,
)
from autoner_ray.stages.tokenize import tokenize_pages_batch
from autoner_ray.stages.triples import (
    PRED_COOCCUR,
    aggregate_edges,
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
    surfaces, so the final aggregate takes the bounded tier, a fold on
    the driver, whenever :func:`pair_key_bound` is small enough: the
    pipeline runs before this returns, and the edges come back as one
    ``from_arrow`` block.
    """
    pairs = matched_sentences(
        sf_dir, concurrency, output="pairs", repeat=repeat
    )
    return aggregate_edges(
        pairs, max_keys=pair_key_bound(CORE_DICT, FULL_DICT, STOPWORDS)
    )


def graph_shards(sf_dir: str, out_dir: str, num_parts: int = 16):
    return materialize_graph(triples_dataset(sf_dir), out_dir, num_parts)


# ---------------------------------------------------------------------------
# Unigram-dictionary variant (SQL-checkable; DuckDB oracle in __ray_entry__)
# ---------------------------------------------------------------------------

# The dictionary as Arrow arrays: its words, and its canonical entities
# in code-point order with each one's type (the one entity -> type
# table). An entity's rank in _ENTITIES orders it as SQL's
# ``a.entity < b.entity`` does.
_WORDS = pa.array(list(UNIGRAM_DICT), pa.string())
_ENTITIES, _ENTITY_TYPES = (
    pa.array(col, pa.string())
    for col in zip(*sorted(dict(UNIGRAM_DICT.values()).items()))
)
_TYPES = pc.unique(_ENTITY_TYPES).sort()
# _WORDS index -> _ENTITIES rank; _ENTITIES rank -> _TYPES index
_WORD_RANK = pc.index_in(
    pa.array([e for e, _ in UNIGRAM_DICT.values()]), value_set=_ENTITIES
).to_numpy()
_TYPE_INDEX = pc.index_in(_ENTITY_TYPES, value_set=_TYPES).to_numpy()
# the key bounds the dictionary proves: entities, entity pairs, types
# and unordered type pairs
_N = len(_ENTITIES)
_PAIR_BOUND = _N * (_N - 1) // 2
_TYPE_PAIR_BOUND = len(_TYPES) * (len(_TYPES) + 1) // 2


def _mentions(text: pa.ChunkedArray, lower: bool = False):
    """The family's one tokenizer and dictionary lookup: DuckDB's
    ``string_split(text, ' ')`` (a null text splits like ``''``), joined
    with the dictionary on the exact word, or on the lower-cased word
    with ``lower``.

    Returns ``(tokens, doc, hit, word)``: the flat token array, the batch
    row of every token, and for every dictionary hit its index in
    ``tokens`` and its word's index in ``_WORDS``. Hits come in token
    order, so within a row ``hit`` strictly increases and
    ``hit[j] - hit[i]`` is the distance of the 1-based positions SQL
    numbers the split with."""
    lists = pc.split_pattern(pc.fill_null(text, "").combine_chunks(), " ")
    tokens = pc.list_flatten(lists)
    word = pc.index_in(
        pc.utf8_lower(tokens) if lower else tokens, value_set=_WORDS
    )
    hit = np.flatnonzero(word.is_valid().to_numpy(zero_copy_only=False))
    return (
        tokens, pc.list_parent_indices(lists).to_numpy(), hit,
        pc.drop_null(word).to_numpy(),
    )


def _doc_entities(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (row, entity rank) pairs of a documents batch, sorted
    by row then rank: SQL's ``SELECT DISTINCT doc_id, entity``."""
    _, doc, hit, word = _mentions(batch["text"])
    key = np.unique(doc[hit] * _N + _WORD_RANK[word])
    return key // _N, key % _N


def _ones(n: int) -> pa.Array:
    return pa.array(np.ones(n, np.int64))


def _entity_rows(batch: pa.Table) -> pa.Table:
    """``(doc_id, entity, type)``, one row per distinct entity of a
    document."""
    row, rank = _doc_entities(batch)
    rank = pa.array(rank)
    return pa.table(
        {
            "doc_id": batch["doc_id"].take(pa.array(row)),
            "entity": _ENTITIES.take(rank),
            "type": _ENTITY_TYPES.take(rank),
        }
    )


def _pair_rows(batch: pa.Table) -> pa.Table:
    """``(doc_id, subj, obj, k)``, one row per pair of distinct entities
    of a document with ``subj < obj`` (SQL's ``words a JOIN words b ON
    a.doc_id = b.doc_id AND a.entity < b.entity``); ``k`` is the
    document's entity count."""
    row, rank = _doc_entities(batch)
    i, j = pairs_within(row)
    k = np.bincount(row, minlength=batch.num_rows)
    return pa.table(
        {
            "doc_id": batch["doc_id"].take(pa.array(row[i])),
            "subj": _ENTITIES.take(pa.array(rank[i])),
            "obj": _ENTITIES.take(pa.array(rank[j])),
            "k": pa.array(k[row[i]]),
        }
    )


def _type_of(entities) -> pa.ChunkedArray:
    """The dictionary type of each entity of a column."""
    return _ENTITY_TYPES.take(pc.index_in(entities, value_set=_ENTITIES))


def _crawl_ts(doc_id) -> pa.Array:
    """A page's ``warc_ts`` from its doc id, as ``derive_pages_batch``
    derives it."""
    return pc.add_checked(
        pc.multiply_checked(doc_id, 1_000_000), _TS_BASE_US
    ).cast(pa.timestamp("us"))


def _documents(sf_dir: str):
    import ray.data as rd

    return rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )


def _unigram_combine(sf_dir: str, rows, schema: pa.Schema,
                     aggs: list[tuple[str, str]], max_keys: int | None,
                     part_on: tuple[str, ...] | None = None):
    """documents -> ``rows(batch)``, pre-aggregated per batch by the keys
    of ``schema`` -> :func:`keyed_combine` with ``max_keys``, the bound
    the dictionary proves on the keys (None: the keys come from the
    text, and the partitioned tier hashes on ``part_on``)."""
    keys = key_columns(schema, aggs)

    def partial(batch: pa.Table) -> pa.Table:
        return combine_table(rows(batch), keys, aggs)

    partial.__name__ = rows.__name__
    return keyed_combine(
        _documents(sf_dir).map_batches(partial, batch_format="pyarrow"),
        schema, aggs, part_on=part_on, max_keys=max_keys,
    )


def _unigram_entity_counts(sf_dir: str, keys: list[str], count: str,
                           max_keys: int):
    """Matched (doc, entity) rows counted by ``keys`` (``entity``,
    ``type`` or both) into the column ``count``."""

    def entity_counts(batch: pa.Table) -> pa.Table:
        rows = _entity_rows(batch)
        return rows.append_column(count, _ones(rows.num_rows))

    schema = pa.schema([(k, pa.string()) for k in keys] + [(count, pa.int64())])
    return _unigram_combine(
        sf_dir, entity_counts, schema, [(count, "sum")], max_keys
    )


def unigram_mention_type_counts(sf_dir: str):
    """Per-type count of matched (doc, entity) pairs — SQL-checkable."""
    return _unigram_entity_counts(sf_dir, ["type"], "mentions", len(_TYPES))


def unigram_triples(sf_dir: str):
    """Doc-scoped co-occurrence edges over the unigram dictionary."""

    def edge_partials(batch: pa.Table) -> pa.Table:
        pairs = _pair_rows(batch)
        n = pairs.num_rows
        return combine_table(
            pa.table(
                {
                    "subj": pairs["subj"],
                    "pred": pa.repeat(PRED_COOCCUR, n),
                    "obj": pairs["obj"],
                    "w": _ones(n),
                }
            ),
            ["subj", "pred", "obj"], [("w", "sum")],
        )

    return aggregate_edges(
        _documents(sf_dir).map_batches(edge_partials, batch_format="pyarrow"),
        max_keys=_PAIR_BOUND,
    )


def unigram_canonical_entities(sf_dir: str):
    """SQL-checkable canonicalization: case-insensitive unigram mentions
    -> canonical surface + dense entity ids (stages/canonicalize.py)."""
    from autoner_ray.stages.canonicalize import (
        canonical_entities,
        entity_id_table,
    )

    def surfaces(batch: pa.Table) -> pa.Table:
        tokens, _, hit, _ = _mentions(batch["text"], lower=True)
        return pa.table({"surface": tokens.take(pa.array(hit))})

    return entity_id_table(
        canonical_entities(
            _documents(sf_dir).map_batches(surfaces, batch_format="pyarrow")
        )
    )


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
    return _unigram_entity_counts(sf_dir, ["entity"], "doc_freq", _N)


def _doc_freq_scored(sf_dir: str, score):
    """:func:`unigram_triples` mapped by ``score(batch, df_subj, df_obj,
    n_docs)``, with the edge endpoints' document frequencies as int64
    numpy arrays.

    Distributed shape: the ENTITY doc-freq table is dictionary-bounded,
    so it is collected once and rides in the map's closure (one
    object-store copy per operator), looked up with ``index_in`` +
    ``take``; the EDGE table (up to vocab² rows) stays a Dataset and
    the scoring streams through ``map_batches``."""
    import pyarrow.parquet as pq

    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    freq = _collect(
        unigram_entity_doc_freq(sf_dir), ["entity", "doc_freq"]
    ).cast(pa.schema([("entity", pa.string()), ("doc_freq", pa.int64())]))
    ents = freq["entity"].combine_chunks()
    dfs = freq["doc_freq"].combine_chunks()

    def doc_freq(col) -> np.ndarray:
        return dfs.take(pc.index_in(col, value_set=ents)).to_numpy()

    def scored(batch: pa.Table) -> pa.Table:
        return score(
            batch, doc_freq(batch["subj"]), doc_freq(batch["obj"]), n_docs
        )

    scored.__name__ = score.__name__
    return unigram_triples(sf_dir).map_batches(scored, batch_format="pyarrow")


def unigram_edge_pmi(sf_dir: str):
    """Edge scoring beyond counts: doc-level PMI per co-occurring entity
    pair — ``ln(c_ab * N / (c_a * c_b))`` over document frequencies.
    SQL twin in ``oracle_sql`` (same expression tree, 6-dp round)."""

    def pmi(batch: pa.Table, dfs, dfo, n_docs: int) -> pa.Table:
        # np.round(…, 6) is half-even like the oracle's ROUND(x, 6); the
        # driver value-hash pins equality
        w = batch["weight"].to_numpy().astype(np.float64)
        score = np.log(
            w * n_docs / (dfs.astype(np.float64) * dfo.astype(np.float64))
        )
        return pa.table(
            {
                "subj": batch["subj"],
                "obj": batch["obj"],
                "weight": batch["weight"],
                "pmi": pa.array(np.round(score, 6), pa.float64()),
            }
        )

    return _doc_freq_scored(sf_dir, pmi)


def unigram_entity_jaccard(sf_dir: str):
    """Entity-pair document-set Jaccard: ``|docs(a) & docs(b)| /
    |docs(a) | docs(b)|`` for every co-occurring pair — the
    set-overlap sibling of PMI (entity-resolution / relatedness
    signal). Intersection IS the aggregated edge weight (doc-scoped
    co-occurrence count) and the union derives from the doc-freq
    table; exact integer intersection/union columns plus a 6-dp
    ratio."""

    def jaccard(batch: pa.Table, dfs, dfo, n_docs: int) -> pa.Table:
        w = batch["weight"].to_numpy().astype(np.int64)
        union = dfs + dfo - w
        return pa.table(
            {
                "subj": batch["subj"],
                "obj": batch["obj"],
                "co_docs": pa.array(w, pa.int64()),
                "union_docs": pa.array(union, pa.int64()),
                "jaccard": pa.array(
                    np.round(w / union.astype(np.float64), 6), pa.float64()
                ),
            }
        )

    return _doc_freq_scored(sf_dir, jaccard)


def unigram_assoc_rules(sf_dir: str):
    """Association-rule scores per DIRECTED co-occurring entity pair:
    confidence(a=>b) = co_docs/df(a) and lift = N*co_docs/(df(a)*df(b))
    — the market-basket mining face of edge scoring (PMI's ratio
    without the log, plus the directional conditional). Each undirected
    edge emits both directions."""

    def rules(batch: pa.Table, dfs, dfo, n_docs: int) -> pa.Table:
        w = batch["weight"].to_numpy().astype(np.int64)
        subj = batch["subj"].combine_chunks()
        obj = batch["obj"].combine_chunks()
        weight = batch["weight"].combine_chunks().cast(pa.int64())
        # exact integer ppm (no float rounding-mode hazards); the
        # int64 bound w*N*1e6 < 2^63 holds to ~10^6-doc oracles —
        # at web scale report lift in micro units from a float path
        lift = w * n_docs * 1_000_000 // (dfs * dfo)
        return pa.table(
            {
                "antecedent": pa.concat_arrays([subj, obj]),
                "consequent": pa.concat_arrays([obj, subj]),
                "co_docs": pa.concat_arrays([weight, weight]),
                "confidence_ppm": pa.array(
                    np.concatenate(
                        [w * 1_000_000 // dfs, w * 1_000_000 // dfo]
                    ),
                    pa.int64(),
                ),
                "lift_ppm": pa.array(np.concatenate([lift, lift]), pa.int64()),
            }
        )

    return _doc_freq_scored(sf_dir, rules)


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
    policy as LSH hot buckets), enumerated by ``pairs_within`` over
    the mention rows; per-batch (subj, obj) partials then take the
    dictionary-bounded combine. Nothing corpus-sized leaves the
    batch."""

    def proximity_pairs(batch: pa.Table) -> pa.Table:
        _, doc, hit, word = _mentions(batch["text"])
        rank = _WORD_RANK[word]
        i, j = pairs_within(doc[hit])
        keep = rank[i] != rank[j]
        i, j = i[keep], j[keep]
        micro = np.floor(1e6 / (hit[j] - hit[i]) + 0.5).astype(np.int64)
        return pa.table(
            {
                "subj": _ENTITIES.take(pa.array(np.minimum(rank[i], rank[j]))),
                "obj": _ENTITIES.take(pa.array(np.maximum(rank[i], rank[j]))),
                "n_pairs": _ones(len(i)),
                "prox_micro": pa.array(micro),
            }
        )

    return _unigram_combine(
        sf_dir, proximity_pairs,
        pa.schema([("subj", pa.string()), ("obj", pa.string()),
                   ("n_pairs", pa.int64()), ("prox_micro", pa.int64())]),
        [("n_pairs", "sum"), ("prox_micro", "sum")], _PAIR_BOUND,
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
    return pagerank(unigram_triples(sf_dir), round_dp=6)


def unigram_connected_components(sf_dir: str):
    """Connected components over the unigram graph (oracle: recursive
    reachability CTE, component = lexicographic min of reachable set)."""
    return connected_components(unigram_triples(sf_dir))


def unigram_bfs_distances(sf_dir: str):
    """Single-source hop distances from the lexicographically smallest
    entity over the unigram co-occurrence graph (oracle: depth-capped
    recursive reachability CTE with MIN(d) per node)."""
    return bfs_distances(unigram_triples(sf_dir))


def unigram_degree_distribution(sf_dir: str):
    """Degree histogram of the unigram co-occurrence graph (oracle:
    GROUP BY degree over per-src counts of the unique bidirectional
    edge list)."""
    return degree_distribution(unigram_triples(sf_dir))


def unigram_adamic_adar(sf_dir: str):
    """Adamic-Adar link-prediction scores over the unigram
    co-occurrence graph (oracle: wedge self-join + degree join with
    integer micro-quantized 1/ln(deg) terms)."""
    return adamic_adar(unigram_triples(sf_dir))


def unigram_triangles(sf_dir: str):
    """Per-entity triangle counts over the unigram co-occurrence graph
    (oracle: three-way self-join on the subj<obj pair list; each
    triangle is enumerated once at its lexicographic orientation and
    credited to all three corners)."""
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

    def evidence_pairs(batch: pa.Table) -> pa.Table:
        pairs = _pair_rows(batch)
        return pa.table(
            {
                "subj": pairs["subj"],
                "obj": pairs["obj"],
                "weight": _ones(pairs.num_rows),
                "evidence_doc": pairs["doc_id"],
            }
        )

    return _unigram_combine(
        sf_dir, evidence_pairs,
        pa.schema([("subj", pa.string()), ("obj", pa.string()),
                   ("weight", pa.int64()), ("evidence_doc", pa.int64())]),
        [("weight", "sum"), ("evidence_doc", "min")], _PAIR_BOUND,
    )


def unigram_entity_type_profile(sf_dir: str):
    """Per (entity, type) doc-mention counts — the type histogram face of
    the canonical entity table (SQL-checkable)."""
    return _unigram_entity_counts(sf_dir, ["entity", "type"], "n_docs", _N)


def unigram_typed_edge_filter(sf_dir: str, subj_type="Operator",
                              obj_type="Structure"):
    """Edges restricted by entity TYPE on both ends — the type lookup is
    a dictionary-bounded array in the map's closure, no extra shuffle
    (SQL-checkable)."""

    def keep(batch: pa.Table) -> pa.Table:
        ts, to = _type_of(batch["subj"]), _type_of(batch["obj"])
        # edges are (min, max)-ordered, so check both assignments
        return batch.filter(
            pc.or_(
                pc.and_(pc.equal(ts, subj_type), pc.equal(to, obj_type)),
                pc.and_(pc.equal(ts, obj_type), pc.equal(to, subj_type)),
            )
        )

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

    Scale shape: pair mining is per-document and GAP-BOUNDED — mention
    positions strictly increase, so a pair within ``max_gap``+1 tokens
    is at most that many mentions apart, and the pairs (i, i+s) for
    s ≤ ``max_gap``+1 are all of them: linear in corpus size, unlike
    the quadratic proximity kernel. The predicates come from the text,
    so the triple counts take the partitioned keyed combine (one
    exchange on subj), then the HAVING filter."""

    def infix_triples(batch: pa.Table) -> pa.Table:
        tokens, doc, hit, word = _mentions(batch["text"])
        rank, doc = _WORD_RANK[word], doc[hit]
        firsts, seconds = [], []
        for s in range(1, max_gap + 2):
            i = np.arange(len(hit) - s)
            gap = hit[i + s] - hit[i]
            i = i[(doc[i] == doc[i + s]) & (gap >= 2) & (gap <= max_gap + 1)
                  & (rank[i] != rank[i + s])]
            firsts.append(i)
            seconds.append(i + s)
        i, j = np.concatenate(firsts), np.concatenate(seconds)
        gap = hit[j] - hit[i]
        # the infix words: token hit[i]+k for k < gap, joined by spaces
        words = [
            pc.if_else(
                pa.array(k < gap),
                tokens.take(pa.array(np.where(k < gap, hit[i] + k, 0))),
                pa.scalar(None, pa.string()),
            )
            for k in range(1, max(max_gap, 1) + 1)
        ]
        return pa.table(
            {
                "subj": _ENTITIES.take(pa.array(rank[i])),
                "pred": pc.binary_join_element_wise(
                    *words, " ", null_handling="skip"
                ),
                "obj": _ENTITIES.take(pa.array(rank[j])),
                "n": _ones(len(i)),
            }
        )

    def having(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["n"], min_count))

    return _unigram_combine(
        sf_dir, infix_triples,
        pa.schema([("subj", pa.string()), ("pred", pa.string()),
                   ("obj", pa.string()), ("n", pa.int64())]),
        [("n", "sum")], None, part_on=("subj",),
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
        subj, obj = t["subj"].combine_chunks(), t["obj"].combine_chunks()
        return pa.table(
            {
                "src": pa.concat_arrays([subj, obj]),
                "dst": pa.concat_arrays([obj, subj]),
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
    if not hops.count():  # no edge: the join has no declared side schema
        return pa.schema([("seed", pa.string()), ("hop1", pa.string()),
                          ("hop2", pa.string())]).empty_table()

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
    stream — the corpus is read once, not twice); the dictionary-bounded
    combine sums them; the final new-edge filter is a stateless map.
    ``%`` is SQL's truncated remainder, so a negative odd doc id is in
    neither half."""

    def delta_pairs(batch: pa.Table) -> pa.Table:
        pairs = _pair_rows(batch)
        parity = np.fmod(pairs["doc_id"].to_numpy(), 2)
        return pa.table(
            {
                "subj": pairs["subj"],
                "obj": pairs["obj"],
                "old_weight": pa.array((parity == 0).astype(np.int64)),
                "new_weight": pa.array((parity == 1).astype(np.int64)),
            }
        )

    merged = _unigram_combine(
        sf_dir, delta_pairs,
        pa.schema([("subj", pa.string()), ("obj", pa.string()),
                   ("old_weight", pa.int64()), ("new_weight", pa.int64())]),
        [("old_weight", "sum"), ("new_weight", "sum")], _PAIR_BOUND,
    )

    def finish(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["new_weight"], 0))
        return t.append_column(
            "total_weight", pc.add(t["old_weight"], t["new_weight"])
        ).append_column(
            "is_new_edge",
            pc.cast(pc.equal(t["old_weight"], 0), pa.int64()),
        )

    return merged.map_batches(finish, batch_format="pyarrow")


def unigram_entity_density(sf_dir: str):
    """Per-document mention-density audit over the unigram dictionary:
    token count, dictionary-token mentions (with repeats), distinct
    entities, and density in integer ppm (mentions * 10^6 // tokens) —
    the corpus-selection signal that decides which documents feed KG
    construction (mention-sparse docs carry no triples). Empty tokens
    are not counted, and a document with none is left out.

    Scale shape: ONE stateless vectorized ``map_batches`` (split ->
    lookup -> per-row bincounts); no shuffle, no state.
    """

    def density(batch: pa.Table) -> pa.Table:
        tokens, doc, hit, word = _mentions(batch["text"])
        n = batch.num_rows
        nonempty = pc.not_equal(tokens, "").to_numpy(zero_copy_only=False)
        n_tokens = np.bincount(doc[nonempty], minlength=n)
        n_mentions = np.bincount(doc[hit], minlength=n)
        distinct = np.unique(doc[hit] * len(_WORDS) + word) // len(_WORDS)
        n_entities = np.bincount(distinct, minlength=n)
        keep = np.flatnonzero(n_tokens)
        return pa.table(
            {
                "doc_id": batch["doc_id"].take(pa.array(keep)),
                "n_tokens": pa.array(n_tokens[keep], pa.int64()),
                "n_mentions": pa.array(n_mentions[keep], pa.int64()),
                "n_entities": pa.array(n_entities[keep], pa.int64()),
                "density_ppm": pa.array(
                    n_mentions[keep] * 1_000_000 // n_tokens[keep], pa.int64()
                ),
            }
        )

    return _documents(sf_dir).map_batches(density, batch_format="pyarrow")


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
    is the dictionary-bounded array; the tail is the bounded tier's
    driver fold over the dictionary's unordered type pairs.
    """

    def type_pairs(batch: pa.Table) -> pa.Table:
        ta, tb = _type_of(batch["subj"]), _type_of(batch["obj"])
        return pa.table(
            {
                "type_a": pc.min_element_wise(ta, tb),
                "type_b": pc.max_element_wise(ta, tb),
                "n_pairs": _ones(batch.num_rows),
                "total_weight": batch["weight"].cast(pa.int64()),
            }
        )

    return keyed_combine(
        unigram_triples(sf_dir).map_batches(type_pairs, batch_format="pyarrow"),
        pa.schema([("type_a", pa.string()), ("type_b", pa.string()),
                   ("n_pairs", pa.int64()), ("total_weight", pa.int64())]),
        [("n_pairs", "sum"), ("total_weight", "sum")],
        max_keys=_TYPE_PAIR_BOUND,
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
    recomputes it exactly; it is monotone in doc_id, so the combine
    keeps the min/max doc id and converts once at the end.

    Scale shape: per-batch min/max/sum partials over the
    dictionary-bounded entity set, then the bounded tier's driver fold
    (`stages/combine.py::keyed_combine`) — no corpus shuffle, and at
    most one row per entity on the driver.
    """

    def entity_docs(batch: pa.Table) -> pa.Table:
        rows = _entity_rows(batch)
        return pa.table(
            {
                "entity": rows["entity"],
                "first_doc": rows["doc_id"],
                "last_doc": rows["doc_id"],
                "n_docs": _ones(rows.num_rows),
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "entity": t["entity"],
                "first_seen": _crawl_ts(t["first_doc"]),
                "last_seen": _crawl_ts(t["last_doc"]),
                "n_docs": t["n_docs"],
            }
        )

    return _unigram_combine(
        sf_dir, entity_docs,
        pa.schema([("entity", pa.string()), ("first_doc", pa.int64()),
                   ("last_doc", pa.int64()), ("n_docs", pa.int64())]),
        [("first_doc", "min"), ("last_doc", "max"), ("n_docs", "sum")], _N,
    ).map_batches(finish, batch_format="pyarrow")


def unigram_triples_temporal(sf_dir: str):
    """Co-occurrence triples with crawl-time lineage: weight plus
    first_seen / last_seen evidence timestamps per (subj, obj) edge —
    the per-partition lineage metadata the north rule asks each graph
    shard to carry, expressed as a first-class queryable table.

    Same min/max doc-id combine as the timeline, over the
    dictionary-bounded entity pairs.
    """

    def pair_docs(batch: pa.Table) -> pa.Table:
        pairs = _pair_rows(batch)
        return pa.table(
            {
                "subj": pairs["subj"],
                "obj": pairs["obj"],
                "first_doc": pairs["doc_id"],
                "last_doc": pairs["doc_id"],
                "weight": _ones(pairs.num_rows),
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "subj": t["subj"],
                "obj": t["obj"],
                "weight": t["weight"],
                "first_seen": _crawl_ts(t["first_doc"]),
                "last_seen": _crawl_ts(t["last_doc"]),
            }
        )

    return _unigram_combine(
        sf_dir, pair_docs,
        pa.schema([("subj", pa.string()), ("obj", pa.string()),
                   ("first_doc", pa.int64()), ("last_doc", pa.int64()),
                   ("weight", pa.int64())]),
        [("first_doc", "min"), ("last_doc", "max"), ("weight", "sum")],
        _PAIR_BOUND,
    ).map_batches(finish, batch_format="pyarrow")


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
    return c4_count(unigram_triples(sf_dir))


def _edge_ranks(edges_ds) -> tuple[np.ndarray, np.ndarray]:
    """The endpoints of a unigram edge Dataset as ``_ENTITIES`` ranks,
    collected on the driver (the edge list is dictionary-bounded)."""
    t = _collect(edges_ds, ["subj", "obj"])
    return tuple(
        pc.index_in(t[c].cast(pa.string()), value_set=_ENTITIES).to_numpy()
        for c in ("subj", "obj")
    )


def _triangles(edges_ds) -> np.ndarray:
    """Triangles per ``_ENTITIES`` rank, from the pinned compact-forward
    counter (:func:`graph.triangle_counts`)."""
    tri = triangle_counts(edges_ds)
    if not isinstance(tri, pa.Table):
        tri = _collect(tri, ["entity", "triangles"])
    tri = tri.cast(pa.schema([("entity", pa.string()),
                              ("triangles", pa.int64())]))
    out = np.zeros(_N, np.int64)
    out[pc.index_in(tri["entity"], value_set=_ENTITIES).to_numpy()] = (
        tri["triangles"].to_numpy()
    )
    return out


def transitivity_null_model(sf_dir: str):
    """Global transitivity vs its configuration-model expectation —
    the null-model test that says whether the graph's clustering is
    structure or just degree sequence: with S1 = Σk, S2 = Σk² over the
    deduped undirected degrees, E[C] under the configuration model is
    the EXACT integer ratio (S2−S1)² / S1³, and actual transitivity is
    3·Δ / wedges with Δ the triangle total and wedges = Σ C(k,2) —
    every quantity an integer, both ratios floored to ppm. One row:
    (n_triangles, n_wedges, transitivity_ppm, config_expected_ppm);
    all zero when the graph has no edge.

    Scale shape: the triangle total reuses the pinned compact-forward
    counter; degrees count on the driver over the collected
    dictionary-bounded edge list."""
    edges = unigram_triples(sf_dir).materialize()
    n_triangles = int(_triangles(edges).sum()) // 3
    ks = np.bincount(np.concatenate(_edge_ranks(edges)), minlength=_N)
    s1 = int(ks.sum())
    s2 = int((ks * ks).sum())
    wedges = int((ks * (ks - 1) // 2).sum())
    transitivity_ppm = (3 * n_triangles * 1_000_000) // wedges if wedges else 0
    expected_ppm = ((s2 - s1) ** 2 * 1_000_000) // (s1 ** 3) if s1 else 0
    return pa.table(
        {
            "n_triangles": pa.array([n_triangles], pa.int64()),
            "n_wedges": pa.array([wedges], pa.int64()),
            "transitivity_ppm": pa.array([transitivity_ppm], pa.int64()),
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
    a, b = _edge_ranks(unigram_triples(sf_dir))
    n_types = len(_TYPES)
    # both directions of every edge: (entity, partner), keyed by the
    # ordered type pair; edges are unique, so an entity's rows under a
    # type pair count its distinct partners
    ent = np.concatenate([a, b])
    tp = _TYPE_INDEX[ent] * n_types + _TYPE_INDEX[np.concatenate([b, a])]
    fan_key, fan = np.unique(tp * _N + ent, return_counts=True)
    maxf = np.zeros(n_types * n_types, np.int64)
    np.maximum.at(maxf, fan_key // _N, fan)
    n_pairs = np.bincount(tp, minlength=n_types * n_types)
    # _TYPES is sorted, so index order is (type_a, type_b) order
    pair = np.flatnonzero(n_pairs)
    ta, tb = pair // n_types, pair % n_types
    fwd, bwd = maxf[pair], maxf[tb * n_types + ta]
    cls = np.select(
        [(fwd == 1) & (bwd == 1), (fwd > 1) & (bwd == 1),
         (fwd == 1) & (bwd > 1)],
        ["1:1", "1:N", "N:1"], "M:N",
    )
    return pa.table(
        {
            "type_a": _TYPES.take(pa.array(ta)),
            "type_b": _TYPES.take(pa.array(tb)),
            "n_pairs": pa.array(n_pairs[pair], pa.int64()),
            "max_fanout": pa.array(fwd, pa.int64()),
            "cardinality": pa.array(cls, pa.string()),
        }
    )


def unigram_local_clustering(sf_dir: str):
    """Per-entity LOCAL clustering coefficient over the unigram
    co-occurrence graph — the node-level companion of the global
    transitivity row: lcc(v) = 2*tri(v) / (deg(v)*(deg(v)-1)) in
    integer-floored ppm (0 when deg < 2). Output
    (entity, degree, triangles, lcc_ppm) for every graph node.

    Scale shape: triangles ride the pinned compact-forward counter
    (:func:`graph.triangle_counts` — O(m^1.5) wedges); degrees and the
    final arithmetic run driver-side over the DICTIONARY-BOUNDED entity
    vocab (the pagerank contract)."""
    edges = unigram_triples(sf_dir).materialize()
    tri = _triangles(edges)
    deg = np.bincount(np.concatenate(_edge_ranks(edges)), minlength=_N)
    node = np.flatnonzero(deg)
    d, t = deg[node], tri[node]
    denom = d * (d - 1)
    lcc = np.where(denom > 0, (2_000_000 * t) // np.maximum(denom, 1), 0)
    return pa.table(
        {
            "entity": _ENTITIES.take(pa.array(node)),
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

    Scale shape: per-batch pair partials pre-aggregate, then the
    dictionary-bounded combine — no new machinery; the driver holds at
    most one row per entity pair."""

    def newman_pairs(batch: pa.Table) -> pa.Table:
        pairs = _pair_rows(batch)
        k = pairs["k"].to_numpy()
        return pa.table(
            {
                "subj": pairs["subj"],
                "obj": pairs["obj"],
                "n_docs": _ones(pairs.num_rows),
                "w_micro": pa.array(1_000_000 // (k - 1), pa.int64()),
            }
        )

    return _unigram_combine(
        sf_dir, newman_pairs,
        pa.schema([("subj", pa.string()), ("obj", pa.string()),
                   ("n_docs", pa.int64()), ("w_micro", pa.int64())]),
        [("n_docs", "sum"), ("w_micro", "sum")], _PAIR_BOUND,
    )
