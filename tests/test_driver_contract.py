"""Driver-contract invariants that are easy to silently regress."""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ENTRY = REPO / "__ray_entry__.py"


def _entry_module():
    spec = importlib.util.spec_from_file_location(
        "__ray_entry___under_test", ENTRY
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_driver_window_fully_oracle_backed():
    """The grading driver checks only the FIRST 50 queries() entries, so
    dict ORDER is load-bearing: every window seat must carry an oracle
    (the driver then hash-checks all 50). Oracle-backed queries BEYOND
    the window are fine — the local gate (scripts/check_correctness.py)
    validates those."""
    m = _entry_module()
    names = list(m.queries())
    oracles = set(m.oracle_sql())
    assert oracles <= set(names), "oracle without a query"
    window = names[:50]
    unbacked = [n for n in window if n not in oracles]
    assert not unbacked, f"window seats without an oracle: {unbacked}"


# The 50 seats the driver grades, in order: 27 KG queries over the
# SQL-checkable unigram graph, then 23 curation and KG-export queries.
WINDOW = (
    "pages_extract_text",
    "dict_mention_counts_unigram",
    "triples_unigram",
    "kg_adjacency_unigram",
    "entity_doc_freq_unigram",
    "entity_canonical_table",
    "entity_type_profile_unigram",
    "triples_evidence_unigram",
    "typed_edges_unigram",
    "edge_pmi_unigram",
    "entity_cooccur_topk",
    "kg_pagerank",
    "kg_degree_distribution",
    "kg_adamic_adar",
    "kg_local_clustering",
    "kg_bipartite_projection",
    "kg_entity_jaccard",
    "kg_assoc_rules",
    "kg_proximity_edges",
    "kg_infix_relations",
    "kg_hash_walks",
    "kg_triangle_count",
    "kg_c4_count",
    "kg_transitivity_null",
    "kg_relation_cardinality",
    "kg_connected_components",
    "kg_bfs_distances",
    "docs_lang_counts",
    "docs_quality",
    "docs_md5",
    "docs_exact_dedup",
    "docs_quality_filter",
    "simhash_docs",
    "ngram_jaccard_exact",
    "simhash_neardup",
    "docs_neardup_keep_one",
    "docs_neardup_keep_one_lsh",
    "docs_neardup_cluster_sizes",
    "docs_neardup_keep_best",
    "minhash_neardup",
    "docs_decontaminate",
    "docs_crossdoc_dup_windows",
    "docs_dup_gram_coverage",
    "docs_curation_pipeline",
    "vocab_negative_samples",
    "docs_entity_density",
    "kg_type_schema_census",
    "kg_ntriples_export",
    "kg_entity_timeline",
    "kg_triples_temporal",
)


def test_driver_window_pinned():
    """Dict order decides what the driver grades: moving, adding or
    dropping a seat must be a deliberate edit of WINDOW."""
    assert tuple(list(_entry_module().queries())[:50]) == WINDOW


def test_no_ray_init_in_library():
    """The driver owns the Ray session: importing the entry module and
    building the query dict must never call ray.init (only bench.py,
    scripts and the test fixture may)."""
    # (the real no-ray.init proof is the clean-subprocess check below —
    # in-process the session may already exist from the test fixture)
    m = _entry_module()
    qs = m.queries()
    sqls = m.oracle_sql()
    assert len(qs) == 103 and len(sqls) == 88
    import subprocess
    import sys

    # clean-process proof: import + build dicts with ray uninitialized
    code = (
        "import importlib.util, ray\n"
        "spec = importlib.util.spec_from_file_location("
        f"'e', {str(ENTRY)!r})\n"
        "m = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(m)\n"
        "m.queries(); m.oracle_sql()\n"
        "assert not ray.is_initialized()\n"
        "print('clean')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, cwd=REPO,
    )
    assert out.returncode == 0 and "clean" in out.stdout, out.stderr[-500:]
