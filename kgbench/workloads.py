"""The benchmark's workloads: corpus shape, job, oracle and check.

A job is one call into an engine pipeline until its result rows reach
the driver. Every job's rows are compared with an oracle computed once
per corpus, outside any timed region; a job that raises or mismatches
counts as failed. The reason each workload exists is recorded in its
``why`` (also listed in ``BENCHMARK.json``).
"""

from __future__ import annotations

import os
import shutil
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from kgbench.corpus import CorpusSpec

HYBRID_BATCH = 128  # rows per HybridPairs call in hybrid_triples
RESUMABLE_PARTS = 4


class Mismatch(AssertionError):
    """A job's output differs from the oracle."""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def attempt(wl: "Workload", ctx: "JobContext", expected, tally: Tally):
    """Run one job, time it, check it against ``expected`` and count it.

    Returns ``(wall_s, result)``; ``result`` is None when the job raised.
    A job that raises or mismatches counts as failed and the run goes
    on; the traceback goes to the run log (stderr).
    """
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        result = wl.run(ctx)
    except Exception:
        wall = time.perf_counter() - t0
        tally.failed += 1
        traceback.print_exc()
        return wall, None
    wall = time.perf_counter() - t0
    try:
        wl.check(result, expected)
    except Exception:
        tally.failed += 1
        traceback.print_exc()
    if result.out_dir:
        shutil.rmtree(result.out_dir, ignore_errors=True)
    return wall, result


@dataclass
class JobContext:
    """What a job may touch: the corpus directory, a scratch directory
    for outputs, and the engine resources loaded once per run."""

    corpus_dir: str
    scratch_dir: str
    model_blob: bytes | None = None
    seed: int = 0
    _n_dirs: int = 0

    @property
    def documents(self) -> str:
        return os.path.join(self.corpus_dir, "documents.parquet")

    def fresh_dir(self, prefix: str) -> str:
        self._n_dirs += 1
        path = os.path.join(self.scratch_dir, f"{prefix}-{self._n_dirs:04d}")
        shutil.rmtree(path, ignore_errors=True)
        return path


@dataclass
class JobResult:
    rows: list[dict]
    dataset: object  # the ray.data.Dataset whose stats() describe the job
    out_dir: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: CorpusSpec
    run: Callable[[JobContext], JobResult]
    oracle: Callable[[JobContext], object]
    check: Callable[[JobResult, object], None]

    @property
    def n_docs(self) -> int:
        return self.spec.n_docs


# -- shared helpers ----------------------------------------------------------

def model_blob() -> bytes:
    import autoner_ray

    path = os.path.join(
        os.path.dirname(autoner_ray.__file__), "artifacts", "tagger_demo.npz"
    )
    with open(path, "rb") as f:
        return f.read()


def corpus_sentences(documents: str) -> list[list[str]]:
    """Token lists of every sentence, in doc order, as the tokenizer
    stage emits them (empty sentences dropped)."""
    import pyarrow.parquet as pq

    from autoner_ray.stages.tokenize import (
        sentence_token_stream,
        split_sentences,
    )

    out = []
    for text in pq.read_table(documents, columns=["text"])["text"].to_pylist():
        for sent in split_sentences(text or ""):
            toks = sentence_token_stream(sent)
            if toks:
                out.append(toks)
    return out


def edge_map(rows: list[dict]) -> dict[tuple[str, str, str], int]:
    out: dict[tuple[str, str, str], int] = {}
    for r in rows:
        key = (r["subj"], r["pred"], r["obj"])
        if key in out:
            raise Mismatch(f"edge {key} appears twice")
        out[key] = int(r["weight"])
    return out


def check_edges(result: JobResult, expected: dict) -> None:
    got = edge_map(result.rows)
    if got != expected:
        diff = sorted(set(got.items()) ^ set(expected.items()))[:5]
        raise Mismatch(
            f"{len(got)} edges vs {len(expected)} expected; first diffs {diff}"
        )


# -- kg_flagship ---------------------------------------------------------------

def run_flagship(ctx: JobContext) -> JobResult:
    from autoner_ray.pipelines import kg

    ds = kg.triples_dataset(ctx.corpus_dir)
    return JobResult(ds.take_all(), ds)


def dict_pairs_oracle(ctx: JobContext) -> dict:
    """Plain-Python trie + segmentDP over every sentence, then pair counts."""
    from autoner_ray.dicts import CORE_DICT, FULL_DICT, STOPWORDS
    from autoner_ray.functions.text import normalize_surface
    from autoner_ray.stages.triples import PRED_COOCCUR
    from autoner_ray.state.trie import FILTERED_TYPE, build_trie, segment_dp

    trie = build_trie(CORE_DICT, FULL_DICT, STOPWORDS)
    edges: Counter = Counter()
    for toks in corpus_sentences(ctx.documents):
        ents = {
            normalize_surface(" ".join(toks[l:r]))
            for l, r, ty in segment_dp(trie, toks)
            if ty and ty != FILTERED_TYPE
        }
        for a, b in combinations(sorted(ents), 2):
            edges[(a, PRED_COOCCUR, b)] += 1
    return dict(edges)


# -- kg_hybrid -----------------------------------------------------------------

def run_hybrid(ctx: JobContext) -> JobResult:
    from autoner_ray.dicts import CORE_DICT, FULL_DICT, STOPWORDS
    from autoner_ray.pipelines import kg
    from autoner_ray.stages.tagger_stage import hybrid_triples

    ds = hybrid_triples(
        kg.sentences_dataset(ctx.corpus_dir), ctx.model_blob,
        CORE_DICT, FULL_DICT, STOPWORDS,
    )
    return JobResult(ds.take_all(), ds)


def hybrid_oracle(ctx: JobContext) -> dict:
    """In-process ``HybridPairs`` over the corpus sentences, summed."""
    import pyarrow as pa

    from autoner_ray.dicts import CORE_DICT, FULL_DICT, STOPWORDS
    from autoner_ray.stages.tagger_stage import HybridPairs

    scorer = HybridPairs(ctx.model_blob, CORE_DICT, FULL_DICT, STOPWORDS)
    sents = corpus_sentences(ctx.documents)
    edges: Counter = Counter()
    for i in range(0, len(sents), HYBRID_BATCH):
        batch = pa.table(
            {"tokens": pa.array(sents[i:i + HYBRID_BATCH],
                                pa.list_(pa.string()))}
        )
        for r in scorer(batch).to_pylist():
            edges[(r["subj"], r["pred"], r["obj"])] += r["w"]
    return dict(edges)


# -- curation layers (measured in kg_resumable's traced run) -----------------

# About 10% each of quality rejects, exact duplicates, near-duplicates in
# clusters of 2-3, and docs holding a 10-word span of a doc_id % 10 == 0
# (benchmark-split) doc. One-paragraph docs: the SQL oracle splits on
# single spaces only.
CURATION_SPEC = CorpusSpec(
    n_docs=1000, sentences=(1, 1), words=(20, 60), sentence_sep=" ",
    dup_share=0.1, near_share=0.1, reject_share=0.1, contam_share=0.1,
)


def curation_oracle(ctx: JobContext) -> dict:
    """The engine's DuckDB twin of the curation pipeline."""
    import duckdb
    import pyarrow.parquet as pq

    from autoner_ray.pipelines.curation import curation_pipeline_oracle_sql

    con = duckdb.connect()
    try:
        con.register("documents", pq.read_table(ctx.documents))
        rows = con.execute(curation_pipeline_oracle_sql()).fetchall()
    finally:
        con.close()
    return {src: (int(n), int(c)) for src, n, c in rows}


# -- kg_resumable --------------------------------------------------------------

def run_resumable(ctx: JobContext) -> JobResult:
    from autoner_ray.pipelines.checkpoint import run_resumable_triples

    out = ctx.fresh_dir("ckpt")
    ds = run_resumable_triples(
        ctx.corpus_dir, out, num_parts=RESUMABLE_PARTS
    )
    return JobResult(ds.take_all(), ds, out_dir=out)


def check_resumable(result: JobResult, expected: dict) -> None:
    from autoner_ray.state import manifest as mf

    check_edges(result, expected)
    records = mf.read_manifest(result.out_dir, RESUMABLE_PARTS)
    parts = sorted(r["partition"] for r in records)
    if parts != list(range(RESUMABLE_PARTS)):
        raise Mismatch(f"committed partitions {parts}")
    for r in records:
        if not r.get("lineage", {}).get("stages"):
            raise Mismatch(f"partition {r['partition']} has no lineage")


# -- the set -----------------------------------------------------------------

KG_SPEC = dict(sentences=(1, 4), words=(8, 24), dup_share=0.005)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "kg_flagship",
            "dictionary matcher (trie + segmentDP) does most of the work and "
            "the edge exchange carries under 80 edges: matcher changes show "
            "here, exchange changes should not",
            CorpusSpec(n_docs=6000, **KG_SPEC),
            run_flagship, dict_pairs_oracle, check_edges,
        ),
        Workload(
            "kg_hybrid",
            "numpy tagger forward pass dominates and the matcher is a small "
            "share: tagger and fusion changes show here, matcher changes "
            "barely move it",
            CorpusSpec(n_docs=400, **KG_SPEC),
            run_hybrid, hybrid_oracle, check_edges,
        ),
        Workload(
            "kg_resumable",
            "same matcher as kg_flagship plus Parquet writes, _SUCCESS "
            "lineage commits and a Ray Data execution per partition: "
            "write-path and per-job fixed costs show here",
            CorpusSpec(n_docs=4000, **KG_SPEC),
            run_resumable, dict_pairs_oracle, check_resumable,
        ),
    )
}
