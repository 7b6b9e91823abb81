"""Triple P/R vs the single-process oracle (BASELINE metric ≥ 0.95).

The reference emits dictionary mentions (`bin/generate`); the north rule
wraps them into sentence-scoped co-occurrence triples. The oracle here
is an INDEPENDENT single-process composition of the byte-parity-pinned
kernels (trie/segmentDP — themselves byte-diffed against the compiled
reference in test_golden_reference.py) — no Ray involved — so the test
measures exactly what the distributed pipeline can get wrong: batch
boundaries, block layout, shuffle merges, execution order.

Measured precision and recall are asserted == 1.0 on both the synthetic
corpus and the real BC5CDR corpus (target ≥ 0.95).
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

REF = Path("/root/reference")
REPO = Path(__file__).resolve().parents[1]


def _oracle_edges_from_sentences(sent_tokens, matcher):
    from autoner_ray.state.trie import FILTERED_TYPE

    counter: Counter[tuple[str, str]] = Counter()
    for toks in sent_tokens:
        ents = sorted({m[4] for m in matcher.mentions_of(toks)})
        for a, b in combinations(ents, 2):
            counter[(a, b)] += 1
    return counter


def _pr(oracle: dict, got: dict):
    o, g = set(oracle), set(got)
    hit = o & g
    precision = len(hit) / max(len(g), 1)
    recall = len(hit) / max(len(o), 1)
    return precision, recall, hit


def test_triple_pr_synthetic(ray_session):
    from autoner_ray.dicts import CORE_DICT, FULL_DICT, STOPWORDS
    from autoner_ray.pipelines.kg import triples_dataset
    from autoner_ray.sources.pages import derive_pages_batch
    from autoner_ray.stages.dict_match import DictMatcher
    from autoner_ray.stages.extract import extract_text_batch
    from autoner_ray.stages.tokenize import tokenize_pages_batch

    sf = "/root/testdata/sf0.001"
    docs = pq.read_table(
        f"{sf}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    sents = tokenize_pages_batch(
        extract_text_batch(derive_pages_batch(docs))
    )["tokens"].to_pylist()
    matcher = DictMatcher(CORE_DICT, FULL_DICT, STOPWORDS)
    oracle = _oracle_edges_from_sentences(sents, matcher)

    got_df = triples_dataset(sf, concurrency=2).to_pandas()
    got = {
        (r.subj, r.obj): r.weight for r in got_df.itertuples(index=False)
    }
    precision, recall, hit = _pr(oracle, got)
    assert precision == 1.0 and recall == 1.0
    for edge in hit:  # weights exact too
        assert got[edge] == oracle[edge]


@pytest.mark.requires_reference(REF / "data/BC5CDR")
def test_triple_pr_bc5cdr(ray_session):
    """Real-corpus check: BC5CDR sentences + real dictionaries."""
    import sys

    sys.path.insert(0, str(REPO / "scripts"))
    import ray.data as rd
    from bench_reference import sentences_from_lines

    from autoner_ray.stages.dict_match import DictMatcher
    from autoner_ray.stages.triples import aggregate_edges

    lines = (REF / "data/BC5CDR/raw_text.txt").read_text().splitlines()[:40000]
    while lines and lines[-1] != "":
        lines.pop()
    sents = sentences_from_lines(lines)
    core = (REF / "data/BC5CDR/dict_core.txt").read_text().splitlines()
    full = (REF / "data/BC5CDR/dict_full.txt").read_text().splitlines()
    stop = (REF / "data/stopwords.txt").read_text().splitlines()

    matcher = DictMatcher(core, full, stop)
    oracle = _oracle_edges_from_sentences(sents, matcher)
    assert len(oracle) > 100  # real corpus yields a real edge set

    table = pa.table(
        {
            "url": pa.array([""] * len(sents), pa.string()),
            "doc_id": pa.array(range(len(sents)), pa.int64()),
            "sent_id": pa.array([0] * len(sents), pa.int32()),
            "tokens": pa.array(sents, pa.list_(pa.string())),
        }
    )
    pairs = rd.from_arrow(
        [table.slice(i, 500) for i in range(0, table.num_rows, 500)]
    ).map_batches(
        DictMatcher,
        fn_constructor_kwargs={
            "core_lines": core,
            "full_lines": full,
            "stopword_lines": stop,
            "output": "pairs",
        },
        batch_format="pyarrow",
        batch_size=256,
        concurrency=4,
        num_cpus=1,
    )
    got_df = aggregate_edges(pairs).to_pandas()
    got = {
        (r.subj, r.obj): r.weight for r in got_df.itertuples(index=False)
    }
    precision, recall, hit = _pr(oracle, got)
    assert precision == 1.0 and recall == 1.0
    for edge in hit:
        assert got[edge] == oracle[edge]


def test_typed_triples_match_oracle(ray_session):
    """Pattern-predicate triples: distributed == single-process oracle."""
    from autoner_ray.dicts import CORE_DICT, FULL_DICT, STOPWORDS
    from autoner_ray.pipelines.kg import typed_triples_dataset
    from autoner_ray.sources.pages import derive_pages_batch
    from autoner_ray.stages.dict_match import DictMatcher
    from autoner_ray.stages.extract import extract_text_batch
    from autoner_ray.stages.tokenize import tokenize_pages_batch

    sf = "/root/testdata/sf0.001"
    docs = pq.read_table(
        f"{sf}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    sents = tokenize_pages_batch(
        extract_text_batch(derive_pages_batch(docs))
    )["tokens"].to_pylist()
    matcher = DictMatcher(CORE_DICT, FULL_DICT, STOPWORDS)
    oracle: Counter = Counter()
    for toks in sents:
        oracle.update(matcher.typed_pairs_of(toks))

    got_df = typed_triples_dataset(sf, concurrency=2).to_pandas()
    got = {
        (r.subj, r.pred, r.obj): r.weight
        for r in got_df.itertuples(index=False)
    }
    assert got == dict(oracle)
    # typed predicates actually fire (not everything falls back)
    preds = {p for _, p, _ in got}
    assert "cooccurs_with" in preds and len(preds) > 1


def test_aggregate_edges_coalesce_paths_equal(ray_session):
    """coalesce=True (pre-combine before the shuffle) and coalesce=False
    produce identical edge tables — the knob is an execution-shape
    choice, never a semantic one."""
    from autoner_ray.pipelines.kg import matched_sentences
    from autoner_ray.stages.triples import aggregate_edges

    sf = "/root/testdata/sf0.001"

    def edges(coalesce):
        pairs = matched_sentences(sf, output="pairs")
        df = aggregate_edges(pairs, coalesce=coalesce).to_pandas()
        return {
            (r.subj, r.pred, r.obj): r.weight
            for r in df.itertuples(index=False)
        }

    a, b = edges(True), edges(False)
    assert a == b and len(a) > 0


def test_negative_samples_properties(ray_session):
    """Negative sampling invariants on a hand graph: corrupted object
    is hash-determined from the ascending vocab, never an endpoint of
    its positive, never a true edge; a COMPLETE graph yields zero
    negatives (every corruption is a real edge)."""
    import pyarrow as pa
    import ray.data as rd

    from autoner_ray.functions.hashing import md5_64
    from autoner_ray.pipelines.kg import negative_samples

    def edges_ds(pairs):
        return rd.from_arrow(
            pa.table(
                {
                    "subj": pa.array([a for a, _ in pairs], pa.string()),
                    "obj": pa.array([b for _, b in pairs], pa.string()),
                }
            )
        )

    # sparse path graph a-b-c-d: corruptions can land on non-edges
    pairs = [("a", "b"), ("b", "c"), ("c", "d")]
    vocab = sorted({v for e in pairs for v in e})
    true = {tuple(sorted(e)) for e in pairs}
    out = negative_samples(edges_ds(pairs), k=2).to_pandas()
    want = []
    for s, o in pairs:
        for i in (1, 2):
            cand = vocab[md5_64(f"{s}|{o}|{i}") % len(vocab)]
            if cand in (s, o) or tuple(sorted((s, cand))) in true:
                continue
            want.append((s, o, cand, i))
    got = sorted(map(tuple, out[
        ["subj", "obj", "neg_obj", "neg_i"]].itertuples(index=False)))
    assert got == sorted(want)
    assert len(got) > 0  # the fixture must actually emit something

    # complete triangle: every corruption hits an endpoint or true edge
    tri = [("a", "b"), ("a", "c"), ("b", "c")]
    empty = negative_samples(edges_ds(tri), k=2)
    # empty results come back as a schema'd Arrow table (Ray's
    # Dataset.to_pandas drops columns on empty datasets)
    assert isinstance(empty, pa.Table)
    assert empty.num_rows == 0
    assert empty.column_names == ["subj", "obj", "neg_obj", "neg_i"]
