"""The SQL-checkable unigram KG family against its DuckDB twins on text
the testdata never has: punctuation, a newline, a tab, a hyphen, a
double space, mixed case, an empty and a null document; and on corpora
with no edges at all."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

REPO = Path(__file__).resolve().parents[1]

# 31 driver-window seats plus the spare kg_triple_delta: every query
# whose SQL twin is string_split(text, ' ') JOIN dict
FAMILY = (
    "dict_mention_counts_unigram", "triples_unigram", "kg_adjacency_unigram",
    "entity_doc_freq_unigram", "entity_canonical_table",
    "entity_type_profile_unigram", "triples_evidence_unigram",
    "typed_edges_unigram", "edge_pmi_unigram", "entity_cooccur_topk",
    "kg_pagerank", "kg_degree_distribution", "kg_adamic_adar",
    "kg_local_clustering", "kg_bipartite_projection", "kg_entity_jaccard",
    "kg_assoc_rules", "kg_proximity_edges", "kg_infix_relations",
    "kg_hash_walks", "kg_triangle_count", "kg_c4_count",
    "kg_transitivity_null", "kg_relation_cardinality",
    "kg_connected_components", "kg_bfs_distances", "docs_entity_density",
    "kg_type_schema_census", "kg_ntriples_export", "kg_entity_timeline",
    "kg_triples_temporal", "kg_triple_delta",
)

ADVERSARIAL = [
    "join, row.", "join\nrow table", "(spark) vector", "Join  Row join",
    "filter;scan agg", "", None, "TABLE table Table column",
    "sort-merge join\tscan",
]


def _write_docs(path: Path, texts) -> str:
    path.mkdir(parents=True, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        path / "documents.parquet",
    )
    return str(path)


def _adversarial_corpus(path: Path) -> str:
    from autoner_ray.dicts import UNIGRAM_DICT

    vocab = sorted(UNIGRAM_DICT) + [
        "the", "fast", "key", "window", "data", "small", "a",
    ]
    rng = np.random.default_rng(20)
    salad = [
        " ".join(rng.choice(vocab, size=int(rng.integers(3, 25))))
        for _ in range(60)
    ]
    return _write_docs(path, salad + ADVERSARIAL)


def test_family_equals_sql_twins_on_adversarial_text(tmp_path):
    """The gate over the 32 queries reads FAILURES: 0: the engine splits
    on single spaces and matches exact-case words, as the twins do."""
    sf = _adversarial_corpus(tmp_path / "adv")
    out = subprocess.run(
        [sys.executable, "scripts/check_correctness.py", sf, *FAMILY],
        capture_output=True, text=True, timeout=900, cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO)},
    )
    checked = {ln.split()[1].rstrip(":") for ln in out.stdout.splitlines()
               if ln.startswith(("ok   ", "FAIL "))}
    assert checked == set(FAMILY), out.stdout + out.stderr[-2000:]
    assert "FAILURES: 0" in out.stdout, out.stdout


def _rows(result) -> pa.Table:
    if isinstance(result, pa.Table):
        return result
    blocks = [b for b in result.iter_batches(batch_size=None,
                                             batch_format="pyarrow")
              if len(b)]
    return pa.concat_tables(blocks) if blocks else pa.table({})


def test_edgeless_corpora_give_output_not_exceptions(ray_session, tmp_path):
    """With no dictionary word (A), or one entity per document (B), the
    graph has no edge: per-entity and per-pair queries give no row, the
    one-row census queries give zeros, nothing raises."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "entry", REPO / "__ray_entry__.py"
    )
    entry = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(entry)
    qs = entry.queries()
    corpora = {
        "A": ["the fast key", "window small data", "a b c"],
        "B": ["join fast key", "window row data", "a b spark"],
    }
    for tag, texts in corpora.items():
        sf = _write_docs(tmp_path / tag, texts)
        for name in ("kg_pagerank", "kg_local_clustering",
                     "kg_relation_cardinality", "kg_hash_walks",
                     "kg_bfs_distances"):
            assert _rows(qs[name](sf)).num_rows == 0, (tag, name)
        for name in ("kg_c4_count", "kg_transitivity_null"):
            t = _rows(qs[name](sf))
            assert t.num_rows == 1, (tag, name)
            assert all(v == 0 for v in t.to_pylist()[0].values()), (tag, t)
        canon = _rows(qs["entity_canonical_table"](sf))
        assert canon.num_rows == {"A": 0, "B": 3}[tag], (tag, canon)
