"""Traced mode: per-layer metrics measured from outside the engine.

The traced run times the fixed costs (session start, first job, trivial
one-block jobs), runs the untraced closed job loop for ``--seconds``,
then one traced job whose ``Dataset.stats()`` it keeps, then calls each
layer's public functions in-process on the workload's own input, cut
into the batches the pipeline uses. Every call is a span
(``kgbench/spans.py``). The spans that rebuild one job sit under
``layers.job``; their summed self time over the traced job's wall is
``trace.coverage`` (both run on one CPU). Spans that only count things
sit under ``layers.extra``, and the curation stages (measured in
kg_resumable's traced run) under ``layers.curation``; both are left out
of coverage.

Each per-layer metric is reported on every workload; a layer that is
not on a workload's path reads 0 there. The layer each metric belongs
to, and the end-to-end metric it should move, is in ``PER_LAYER``.
"""

from __future__ import annotations

import os
import re
import shutil
import statistics

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from kgbench.spans import Tracer
from kgbench.workloads import HYBRID_BATCH, RESUMABLE_PARTS, attempt

FLOOR_JOBS = 5  # trivial one-block jobs behind cluster.job_floor_s
TOKEN_BUDGET = 12000  # bucketed_predict's default bucket budget

# Ray Data operators of the workloads' jobs, keyed by the first listed
# UDF of a fused chain or by the operator kind; other operators are not
# broken out (exchange totals still count them).
STAGES = ("read", "match_batch", "stage_batch", "add_part", "sort", "combine")

# name -> unit. Comments: layer (module) -> end-to-end metric it moves.
PER_LAYER = {
    # cluster: fixed cost -> setup_s; job floor -> job wall
    # (kg_resumable more than kg_flagship); orchestration -> docs_per_s
    "cluster.init_s": "s",
    "cluster.first_job_s": "s",
    "cluster.job_floor_s": "s",
    "cluster.orchestration_s": "s",
    # sources.pages, stages.extract, stages.tokenize -> docs_per_s
    # on kg_flagship and kg_resumable
    "sources.read_s": "s",
    "sources.derive_s": "s",
    "sources.rows": "count",
    "extract.busy_s": "s",
    "extract.html_rows": "count",
    "tokenize.busy_s": "s",
    "tokenize.sentences": "count",
    "tokenize.tokens": "count",
    # state.trie -> setup_s on the kg workloads
    "trie.build_s": "s",
    # stages.dict_match -> docs_per_s on kg_flagship (large),
    # kg_resumable, kg_hybrid (small)
    "dict_match.busy_s": "s",
    "dict_match.tokens_per_s": "tokens/s",
    "dict_match.mentions": "count",
    "dict_match.pair_rows": "count",
    "dict_match.hit_ratio": "ratio",
    # state.tagger: load -> setup_s; the rest -> docs_per_s on kg_hybrid
    "tagger.load_s": "s",
    "tagger.busy_s": "s",
    "tagger.tokens_per_s": "tokens/s",
    "tagger.spans": "count",
    "tagger.pad_ratio": "ratio",
    # stages.triples -> job wall (docs_per_s) on kg_flagship and kg_resumable
    "triples.partial_rows_in": "count",
    "triples.edges_out": "count",
    "triples.combine_ratio": "ratio",
    "triples.aggregate_s": "s",
    # exchange (all-to-all operators of the job) -> job wall (docs_per_s) on
    # kg_flagship and kg_resumable (small: under 1k rows exchanged)
    "exchange.ops": "count",
    "exchange.rows": "count",
    "exchange.busy_s": "s",
    # curation stages (analysis, dedup, joins, decontam), measured in
    # kg_resumable's traced run on a curation corpus; no end-to-end
    # workload runs the curation pipeline (see curation_layers)
    "analysis.quality_s": "s",
    "analysis.quality_dropped": "count",
    "dedup.exact_s": "s",
    "dedup.exact_dropped": "count",
    "dedup.neardup_s": "s",
    "dedup.neardup_pairs": "count",
    "dedup.neardup_dropped": "count",
    "joins.cogroup_s": "s",
    "decontam.busy_s": "s",
    "decontam.dropped": "count",
    # state.manifest / pipelines.checkpoint -> job wall on kg_resumable
    "checkpoint.write_phase_s": "s",
    "checkpoint.read_phase_s": "s",
    "manifest.commit_s": "s",
    "manifest.partitions": "count",
    "manifest.bytes_written": "bytes",
    # Ray Data stages of the job (Dataset.stats()) -> peak_rss_mb
    **{
        f"stage.{s}.{m}": u
        for s in STAGES
        for m, u in (("wall_s", "s"), ("rows_out", "count"),
                     ("tasks", "count"))
    },
    "stage.spilled_mb": "MB",
    # the trace itself
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}

# in-process kernels: their self time is what orchestration is not
KERNEL_SPANS = (
    "sources.derive_pages_batch", "extract.extract_text_batch",
    "tokenize.tokenize_pages_batch", "dict_match.call",
    "triples.pair_counts_batch", "tagger.bucketed_predict",
)


def trace(wl, ctx, expected, tally, session, spans_path: str,
          seconds: float) -> dict:
    import ray.data as rd

    from kgbench import host
    from kgbench.run import closed_loop, import_engine

    tr = Tracer(os.path.basename(os.path.dirname(spans_path)))
    m = {name: 0 for name in PER_LAYER}
    with tr.span("run"):
        with tr.span("engine.import"):
            import_engine()
        with tr.span("cluster.init"):
            session.start()
        with tr.span("cluster.first_job"):
            attempt(wl, ctx, expected, tally)
        for _ in range(FLOOR_JOBS):
            with tr.span("cluster.floor_job"):
                rd.range(1, override_num_blocks=1).map_batches(
                    _identity, batch_format="pyarrow"
                ).take_all()
        # untraced reference: the same closed loop as the untraced mode
        ref = closed_loop(wl, ctx, expected, tally, seconds)
        # The traced job's worker and the in-process rebuild share one
        # CPU, so the ratio of their times does not depend on vCPU speed.
        allowed = os.sched_getaffinity(0)
        cpu = min(allowed)
        rest = (allowed - {cpu}) or allowed
        try:
            host.pin(os.getpid(), {cpu}, rest)
            with tr.span("job"):
                job_wall, result = attempt(wl, ctx, expected, tally)
            stats = result.dataset.stats() if result is not None else ""
            print(stats, flush=True)  # into the run log, for reference
            host.pin(os.getpid(), rest, {cpu})
            LAYERS[wl.name](tr, ctx, m, expected, tally)
        finally:
            host.pin(os.getpid(), allowed, allowed)

    floor = [s.duration for s in tr.spans if s.name == "cluster.floor_job"]
    m["cluster.init_s"] = tr.total("cluster.init")
    m["cluster.first_job_s"] = tr.total("cluster.first_job")
    m["cluster.job_floor_s"] = statistics.median(floor)
    m.update(parse_stats(stats))
    kernel_s = sum(tr.total(n, self_only=True) for n in KERNEL_SPANS)
    m["cluster.orchestration_s"] = job_wall - kernel_s - m["exchange.busy_s"]
    (job_layers,) = [s for s in tr.spans if s.name == "layers.job"]
    covered = sum(
        tr.self_time(s) for s in tr.spans if _under(tr, s, job_layers.id)
    )
    m["trace.coverage"] = covered / job_wall
    # closed-loop job i ran on the i-th allowed CPU: compare with the
    # untraced jobs that ran on the traced job's CPU (the first one)
    m["trace.overhead_s"] = job_wall - statistics.median(ref[::len(allowed)])
    tr.write(spans_path)
    return {
        "metrics": {
            k: {"value": v, "unit": PER_LAYER[k]} for k, v in m.items()
        },
        "job_walls": ref + [job_wall],
    }


def _identity(t: pa.Table) -> pa.Table:
    return t


def _under(tr: Tracer, span, ancestor_id: int) -> bool:
    p = span.parent
    while p is not None:
        if p == ancestor_id:
            return True
        p = tr.spans[p].parent
    return False


def _batches(t: pa.Table, size: int):
    return [t.slice(i, size) for i in range(0, t.num_rows, size)]


def _layer_check(tally, ok: bool, what: str) -> None:
    """The layer-by-layer rebuild of a job counts as one attempted
    operation; it fails when its result differs from the oracle."""
    tally.attempted += 1
    if not ok:
        tally.failed += 1
        print(f"layer rebuild mismatch: {what}", flush=True)


# -- KG front: read -> derive -> extract -> tokenize -> match -> pairs --------

def _kg_front(tr, ctx, m) -> pa.Table:
    """Documents to sentence rows through the pipeline's own stage
    functions, one call per ``kg.DEFAULT_BATCH_SIZE`` docs."""
    from autoner_ray.pipelines.kg import DEFAULT_BATCH_SIZE
    from autoner_ray.sources.pages import derive_pages_batch
    from autoner_ray.stages.extract import extract_text_batch
    from autoner_ray.stages.tokenize import tokenize_pages_batch

    with tr.span("sources.read"):
        docs = pq.read_table(ctx.documents, columns=["doc_id", "text", "lang"])
    sents = []
    for batch in _batches(docs, DEFAULT_BATCH_SIZE):
        with tr.span("sources.derive_pages_batch"):
            pages = derive_pages_batch(batch)
        m["extract.html_rows"] += pages["text"].null_count
        with tr.span("extract.extract_text_batch"):
            text = extract_text_batch(pages)
        with tr.span("tokenize.tokenize_pages_batch"):
            sents.append(tokenize_pages_batch(text))
    sents = pa.concat_tables(sents)
    m["sources.read_s"] = tr.total("sources.read")
    m["sources.derive_s"] = tr.total("sources.derive_pages_batch")
    m["sources.rows"] = docs.num_rows
    m["extract.busy_s"] = tr.total("extract.extract_text_batch")
    m["tokenize.busy_s"] = tr.total("tokenize.tokenize_pages_batch")
    m["tokenize.sentences"] = sents.num_rows
    m["tokenize.tokens"] = pc.sum(sents["n_tokens"]).as_py() or 0
    return sents


def _matcher(tr, m):
    from autoner_ray.dicts import CORE_DICT, FULL_DICT, STOPWORDS
    from autoner_ray.stages.dict_match import DictMatcher
    from autoner_ray.state.trie import build_trie

    with tr.span("trie.build_trie"):
        build_trie(CORE_DICT, FULL_DICT, STOPWORDS)
    m["trie.build_s"] = tr.total("trie.build_trie")
    return DictMatcher(CORE_DICT, FULL_DICT, STOPWORDS, output="sentences")


def _match(tr, m, matcher, batch: pa.Table) -> pa.Table:
    with tr.span("dict_match.call"):
        out = matcher(batch)
    cnt = out["mention_cnt"]
    m["dict_match.mentions"] += pc.sum(cnt).as_py() or 0
    m["dict_match.hit_ratio"] += pc.sum(pc.greater(cnt, 0)).as_py() or 0
    return out


def _finish_match(tr, m) -> None:
    busy = tr.total("dict_match.call")
    m["dict_match.busy_s"] = busy
    m["dict_match.tokens_per_s"] = m["tokenize.tokens"] / busy if busy else 0
    sents = m["tokenize.sentences"]
    hits = m["dict_match.hit_ratio"]
    m["dict_match.hit_ratio"] = hits / sents if sents else 0


def _aggregate(tr, m, partials: list[pa.Table], coalesce: bool = True) -> dict:
    import ray.data as rd

    from autoner_ray.stages.triples import aggregate_edges
    from kgbench.workloads import edge_map

    m["triples.partial_rows_in"] = sum(t.num_rows for t in partials)
    with tr.span("triples.aggregate_edges"):
        rows = aggregate_edges(
            rd.from_arrow(partials), coalesce=coalesce
        ).take_all()
    m["triples.aggregate_s"] = tr.total("triples.aggregate_edges")
    m["triples.edges_out"] = len(rows)
    if m["triples.partial_rows_in"]:
        m["triples.combine_ratio"] = (
            m["triples.edges_out"] / m["triples.partial_rows_in"]
        )
    return edge_map(rows)


def _pairs(tr, m, entities: pa.Table) -> pa.Table:
    from autoner_ray.stages.triples import pair_counts_batch

    with tr.span("triples.pair_counts_batch"):
        out = pair_counts_batch(entities)
    m["dict_match.pair_rows"] += out.num_rows
    return out


def kg_flagship_layers(tr, ctx, m, expected, tally) -> None:
    from autoner_ray.pipelines.kg import DEFAULT_BATCH_SIZE

    # the trie is built once per worker, so it is set-up, not job time
    matcher = _matcher(tr, m)
    with tr.span("layers.job"):
        sents = _kg_front(tr, ctx, m)
        partials = [
            _pairs(tr, m, _match(tr, m, matcher, b))
            for b in _batches(sents, DEFAULT_BATCH_SIZE)
        ]
        edges = _aggregate(tr, m, partials)
    _finish_match(tr, m)
    _layer_check(tally, edges == expected, "kg edges")


def kg_hybrid_layers(tr, ctx, m, expected, tally) -> None:
    from autoner_ray.functions.text import normalize_surface
    from autoner_ray.stages.tagger_stage import bucketed_predict
    from autoner_ray.state.tagger import (
        Tagger,
        encode_sentence,
        token_budget_batches,
    )

    # trie and model load once per worker: set-up, not job time
    matcher = _matcher(tr, m)
    with tr.span("tagger.load"):
        tagger = Tagger.from_bytes(ctx.model_blob)
    with tr.span("layers.job"):
        sents = _kg_front(tr, ctx, m)
        partials = []
        for batch in _batches(sents, HYBRID_BATCH):
            tokens = batch["tokens"].to_pylist()
            with tr.span("tagger.bucketed_predict"):
                preds = bucketed_predict(tagger, tokens, 0.0)
            matched = _match(tr, m, matcher, batch)
            ents = []
            for toks, dict_ents, spans in zip(
                tokens, matched["entities"].to_pylist(), preds
            ):
                m["tagger.spans"] += len(spans)
                union = set(dict_ents)
                union.update(
                    normalize_surface(" ".join(toks[l:r]))
                    for l, r, _ty, _score in spans
                )
                ents.append(sorted(union))
            partials.append(_pairs(tr, m, pa.table(
                {"entities": pa.array(ents, pa.list_(pa.string()))}
            )))
        # hybrid_triples aggregates without the pre-shuffle coalesce
        edges = _aggregate(tr, m, partials, coalesce=False)
    _finish_match(tr, m)
    busy = tr.total("tagger.bucketed_predict")
    m["tagger.load_s"] = tr.total("tagger.load")
    m["tagger.busy_s"] = busy
    m["tagger.tokens_per_s"] = m["tokenize.tokens"] / busy if busy else 0
    real = padded = 0
    for batch in _batches(sents, HYBRID_BATCH):
        records = [
            encode_sentence(t, tagger.c_map, tagger.w_map)
            for t in batch["tokens"].to_pylist()
        ]
        for bucket in token_budget_batches(records, TOKEN_BUDGET):
            lens = [len(r[0]) for r in bucket]
            real += sum(lens)
            padded += max(lens) * len(lens)
    m["tagger.pad_ratio"] = real / padded if padded else 0
    _layer_check(tally, edges == expected, "hybrid edges")


def _bench_split(t: pa.Table):
    """doc_id % 10 == 0: the benchmark side of decontamination."""
    ids = t["doc_id"]
    return pc.equal(pc.subtract(ids, pc.multiply(pc.divide(ids, 10), 10)), 0)


def curation_layers(tr, ctx, m, tally) -> None:
    """The curation pipeline's stages, one call each, on a curation
    corpus generated from the run's seed (``CURATION_SPEC``) and checked
    against the DuckDB oracle. The whole curation pipeline is not an
    end-to-end workload: in a 1-CPU session on a 4-vCPU VM one job of
    1k docs is ~6-9 s, nearly all orchestration, and its wall spread
    ~27% between seeds, too wide for any bound."""
    import ray.data as rd

    from autoner_ray.pipelines.kg import DEFAULT_BATCH_SIZE
    from autoner_ray.stages.analysis import quality_batch
    from autoner_ray.stages.decontam import decontaminate
    from autoner_ray.stages.dedup import (
        exact_dedup,
        neardup_keep_one,
        ngram_jaccard_exact_pairs,
    )
    from autoner_ray.stages.joins import cogroup_join
    from kgbench.corpus import generate, write_corpus
    from kgbench.workloads import CURATION_SPEC, JobContext, curation_oracle

    aux = JobContext(ctx.fresh_dir("curation"), ctx.scratch_dir)
    write_corpus(generate(ctx.seed, CURATION_SPEC), aux.corpus_dir)
    expected = curation_oracle(aux)
    with tr.span("layers.curation"):
        with tr.span("curation.read"):
            docs = pq.read_table(aux.documents)
        kept = []
        for batch in _batches(docs.select(["doc_id", "text"]),
                              DEFAULT_BATCH_SIZE):
            with tr.span("analysis.quality_batch"):
                q = quality_batch(batch)
            kept.append(batch.filter(pc.and_(
                pc.and_(pc.greater_equal(q["n_words"], 20),
                        pc.greater_equal(q["stop_ratio"], 0.02)),
                pc.less_equal(q["mean_word_len"], 5.0),
            )))
        filtered = pa.concat_tables(kept)
        with tr.span("dedup.exact_dedup"):
            winners = exact_dedup(rd.from_arrow(filtered)).take_all()
        deduped = filtered.filter(pc.is_in(
            filtered["doc_id"], pa.array([r["doc_id"] for r in winners],
                                         pa.int64())
        ))
        with tr.span("dedup.neardup_keep_one"):
            survivors = neardup_keep_one(
                rd.from_arrow(deduped), threshold=0.6
            ).take_all()
        surv = pa.table({"doc_id": pa.array(
            [r["doc_id"] for r in survivors], pa.int64())})
        with tr.span("joins.cogroup_join"):
            joined = cogroup_join(
                rd.from_arrow(deduped), rd.from_arrow(surv), on=("doc_id",)
            ).take_all()
        ids = pa.array([r["doc_id"] for r in joined], pa.int64())
        corpus = deduped.filter(pc.is_in(deduped["doc_id"], ids))
        corpus = corpus.filter(pc.invert(_bench_split(corpus)))
        all_docs = docs.select(["doc_id", "text"])
        bench = all_docs.filter(_bench_split(all_docs))
        with tr.span("decontam.decontaminate"):
            final = decontaminate(
                rd.from_arrow(corpus), rd.from_arrow(bench), n=8
            ).take_all()
    with tr.span("layers.extra"):
        n_pairs = ngram_jaccard_exact_pairs(
            rd.from_arrow(deduped), threshold=0.6
        ).count()
    m["analysis.quality_s"] = tr.total("analysis.quality_batch")
    m["analysis.quality_dropped"] = docs.num_rows - filtered.num_rows
    m["dedup.exact_s"] = tr.total("dedup.exact_dedup")
    m["dedup.exact_dropped"] = filtered.num_rows - deduped.num_rows
    m["dedup.neardup_s"] = tr.total("dedup.neardup_keep_one")
    m["dedup.neardup_pairs"] = n_pairs
    m["dedup.neardup_dropped"] = deduped.num_rows - surv.num_rows
    m["joins.cogroup_s"] = tr.total("joins.cogroup_join")
    m["decontam.busy_s"] = tr.total("decontam.decontaminate")
    m["decontam.dropped"] = corpus.num_rows - len(final)

    final_ids = {r["doc_id"] for r in final}
    report: dict = {}
    for did, src, n_chars in zip(
        docs["doc_id"].to_pylist(), docs["source"].to_pylist(),
        docs["n_chars"].to_pylist(),
    ):
        if did in final_ids:
            n, c = report.get(src, (0, 0))
            report[src] = (n + 1, c + n_chars)
    _layer_check(tally, report == expected, "curation report")
    shutil.rmtree(aux.corpus_dir, ignore_errors=True)


def kg_resumable_layers(tr, ctx, m, expected, tally) -> None:
    from autoner_ray.pipelines.checkpoint import _partition_pairs, final_edges
    from autoner_ray.pipelines.kg import DEFAULT_BATCH_SIZE
    from autoner_ray.state import manifest as mf
    from kgbench.workloads import edge_map

    out = ctx.fresh_dir("trace-ckpt")
    with tr.span("layers.job"):
        for part in range(RESUMABLE_PARTS):
            with tr.span("checkpoint.write_phase"):
                pairs = _partition_pairs(
                    ctx.corpus_dir, part, RESUMABLE_PARTS, None
                )

                def write(tmp_dir, _pairs=pairs):
                    with tr.span("checkpoint.write_fn"):
                        mat = _pairs.materialize()
                        mat.write_parquet(os.path.join(tmp_dir, "pairs"))
                        return {"rows": mat.count()}

                with tr.span("manifest.commit_partition"):
                    mf.commit_partition(
                        out, part, write,
                        lineage={"stages": ["dict_match:pairs"]},
                    )
        with tr.span("checkpoint.read_phase"):
            edges = edge_map(final_edges(out, RESUMABLE_PARTS).take_all())
    # the same stream as in-process kernels, for the per-kernel numbers
    with tr.span("layers.extra"):
        sents = _kg_front(tr, ctx, m)
        matcher = _matcher(tr, m)
        partials = [
            _pairs(tr, m, _match(tr, m, matcher, b))
            for b in _batches(sents, DEFAULT_BATCH_SIZE)
        ]
        m["triples.partial_rows_in"] = sum(t.num_rows for t in partials)
    _finish_match(tr, m)
    m["triples.edges_out"] = len(edges)
    if m["triples.partial_rows_in"]:
        m["triples.combine_ratio"] = len(edges) / m["triples.partial_rows_in"]
    m["triples.aggregate_s"] = tr.total("checkpoint.read_phase")
    m["checkpoint.write_phase_s"] = tr.total("checkpoint.write_phase")
    m["checkpoint.read_phase_s"] = tr.total("checkpoint.read_phase")
    m["manifest.commit_s"] = tr.total(
        "manifest.commit_partition", self_only=True
    )
    records = mf.read_manifest(out, RESUMABLE_PARTS)
    m["manifest.partitions"] = len(records)
    m["manifest.bytes_written"] = sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(out) for f in files
    )
    _layer_check(
        tally, edges == expected and len(records) == RESUMABLE_PARTS,
        "resumable edges/manifest",
    )
    curation_layers(tr, ctx, m, tally)


LAYERS = {
    "kg_flagship": kg_flagship_layers,
    "kg_hybrid": kg_hybrid_layers,
    "kg_resumable": kg_resumable_layers,
}


# -- Dataset.stats() ---------------------------------------------------------

_OP = re.compile(r"^Operator \d+ (?P<name>.+?): (?P<rest>.*)$")
_TASKS = re.compile(r"(\d+) tasks executed")
_ROWS = re.compile(r"Output num rows per block: .*?(\d+) total")
_BUSY = re.compile(r"Remote wall time: .*?([\d.]+)(us|ms|s) total")
_SECONDS = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_SPILL = re.compile(r"Spilled to disk: ([\d.]+)\s*(MiB|MB|GiB|GB)")
_ALL_TO_ALL = ("Sort", "Repartition", "Aggregate", "RandomShuffle",
               "HashShuffle", "Shuffle")


def stage_key(op_name: str) -> str | None:
    if op_name.startswith("Read"):
        return "read"
    if op_name == "Sort":
        return "sort"
    udfs = re.findall(r"MapBatches\((\w+)\)", op_name)
    return next((u for u in udfs if u in STAGES), None)


def parse_stats(text: str) -> dict:
    """Per-stage wall/rows/tasks, exchange totals and spill from the
    text of ``Dataset.stats()`` (only the job's final execution: stages
    behind a ``materialize()`` show as cached).

    A stage's ``wall_s`` and the exchange ``busy_s`` are the summed
    remote wall time of the operator's tasks (Ray's operator wall is
    printed to 10 ms and, for an all-to-all operator, spans the wait
    for its whole input).
    """
    out = {k: 0 for k in PER_LAYER if k.startswith(("stage.", "exchange."))}
    ops: list[dict] = []
    for line in text.splitlines():
        hit = _OP.match(line)
        if hit:
            rest = hit["rest"]
            cached = "[execution cached]" in rest
            ops.append({
                "name": hit["name"], "cached": cached,
                "tasks": int(_TASKS.search(rest)[1]) if _TASKS.search(rest)
                else 0,
                "rows": 0, "busy": 0.0,
            })
            continue
        if not ops or ops[-1]["cached"]:
            continue
        t = _TASKS.search(line)
        if t and "Suboperator" in line:
            ops[-1]["tasks"] += int(t[1])
        b = _BUSY.search(line)
        if b:
            ops[-1]["busy"] += float(b[1]) * _SECONDS[b[2]]
        r = _ROWS.search(line)
        if r:
            ops[-1]["rows"] = int(r[1])  # the last sub-operator's output wins
    for op in ops:
        if op["cached"]:
            continue
        key = stage_key(op["name"])
        if key is not None:
            out[f"stage.{key}.wall_s"] += op["busy"]
            out[f"stage.{key}.rows_out"] += op["rows"]
            out[f"stage.{key}.tasks"] += op["tasks"]
        if op["name"].split("(")[0] in _ALL_TO_ALL:
            out["exchange.ops"] += 1
            out["exchange.rows"] += op["rows"]
            out["exchange.busy_s"] += op["busy"]
    spill = _SPILL.search(text)
    if spill:
        scale = 1024.0 if spill[2].startswith("G") else 1.0
        out["stage.spilled_mb"] = float(spill[1]) * scale
    return out

