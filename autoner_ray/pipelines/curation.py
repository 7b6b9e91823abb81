"""End-to-end corpus curation composition — the pipeline an LLM
training-data run actually executes, as ONE driver-checkable query:

    quality filter → exact dedup (keep first) → near-dup keep-one
    → benchmark decontamination → per-source survivor report

Every stage is an already-oracle-backed operator (docs_quality_filter,
docs_exact_dedup, docs_neardup_keep_one, docs_decontaminate); this
module chains them over ONE stream of ``(doc_id, text, source,
n_chars)`` read once — each stage narrows that stream, never
materializing the corpus on the driver — and the SQL twin chains the
same five CTE blocks, so the composition itself (ordering, join
semantics, survivor bookkeeping) is what the value-hash certifies.

Scale shape: one cogroup join on doc_id (the exact-dedup winners), the
near-dup losers and the contaminated ids as broadcast anti-filters
(``joins.id_filter``), the stages' own exchanges, and one bounded
per-source combine at the tail. Benchmark side of decontamination is
doc_id % 10 == 0 of the ORIGINAL corpus (the driver's standing
synthetic test set).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def curation_pipeline(sf_dir: str, neardup_threshold: float = 0.6,
                      decontam_n: int = 8,
                      pair_source: str = "exact"):
    import ray.data as rd

    from autoner_ray.stages.analysis import quality_batch
    from autoner_ray.stages.combine import keyed_combine
    from autoner_ray.stages.decontam import decontaminate
    from autoner_ray.stages.dedup import exact_dedup, neardup_keep_one
    from autoner_ray.stages.joins import cogroup_join

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "source", "n_chars"],
    )

    # -- stage 1: quality filter (docs_quality_filter thresholds) -----
    def q_keep(batch: pa.Table) -> pa.Table:
        q = quality_batch(batch)
        mask = pc.and_(
            pc.and_(
                pc.greater_equal(q["n_words"], 20),
                pc.greater_equal(q["stop_ratio"], 0.02),
            ),
            pc.less_equal(q["mean_word_len"], 5.0),
        )
        return batch.filter(mask)

    filtered = docs.map_batches(
        q_keep, batch_format="pyarrow"
    ).materialize()  # feeds md5-winner pass AND the winner semi-join

    # -- stage 2: exact dedup, keep smallest doc_id per text md5 ------
    winners = exact_dedup(filtered).select_columns(["doc_id"])
    deduped = cogroup_join(filtered, winners, on=("doc_id",)).materialize()

    # -- stage 3: near-dup keep-one over the deduped stream -----------
    # pair_source="exact" keeps the oracle-checkable shared-shingle
    # join (the driver row); "lsh" is the sub-quadratic at-scale tier
    # the stress bench exercises (bench.py --stress)
    survivors = neardup_keep_one(
        deduped, threshold=neardup_threshold, pair_source=pair_source
    )

    # -- stage 4: decontamination vs the id%10==0 benchmark split -----
    def bench_mask(t: pa.Table):
        # doc_id % 10 == 0 via trunc-div (doc_ids are non-negative)
        return pc.equal(
            pc.subtract(
                t["doc_id"], pc.multiply(pc.divide(t["doc_id"], 10), 10)
            ),
            0,
        )

    bench = docs.map_batches(
        lambda t: t.filter(bench_mask(t)), batch_format="pyarrow"
    )
    corpus = survivors.map_batches(
        lambda t: t.filter(pc.invert(bench_mask(t))), batch_format="pyarrow"
    )
    final_docs = decontaminate(corpus, bench, n=decontam_n)

    # -- stage 5: per-source survivor report --------------------------
    def report_partial(t: pa.Table) -> pa.Table:
        agg = (
            t.select(["source", "n_chars"])
            .group_by("source")
            .aggregate([("n_chars", "count"), ("n_chars", "sum")])
        )
        return agg.rename_columns(["source", "n_docs", "sum_chars"])

    # source is corpus data: no key bound, so the partitioned tier
    return keyed_combine(
        final_docs.map_batches(report_partial, batch_format="pyarrow"),
        pa.schema([("source", pa.string()), ("n_docs", pa.int64()),
                   ("sum_chars", pa.int64())]),
        [("n_docs", "sum"), ("sum_chars", "sum")],
    )


def curation_pipeline_oracle_sql(neardup_threshold: float = 0.6,
                                 decontam_n: int = 8) -> str:
    g = decontam_n - 1
    return f"""
        WITH RECURSIVE q AS MATERIALIZED (
            SELECT doc_id, text FROM (
                SELECT doc_id, text,
                       CAST(len(string_split(text, ' ')) AS BIGINT)
                           AS n_words,
                       round(len(list_filter(string_split(text, ' '),
                                 w -> w IN ('a', 'the')))
                             / CAST(len(string_split(text, ' '))
                                    AS DOUBLE), 6) AS stop_ratio,
                       round(list_aggregate(
                                 list_transform(string_split(text, ' '),
                                                w -> length(w)), 'sum')
                             / CAST(len(string_split(text, ' '))
                                    AS DOUBLE), 6) AS mean_word_len
                FROM documents
            )
            WHERE n_words >= 20 AND stop_ratio >= 0.02
              AND mean_word_len <= 5.0
        ),
        dd AS MATERIALIZED (
            SELECT MIN(doc_id) AS doc_id FROM q GROUP BY md5(text)
        ),
        d AS MATERIALIZED (
            SELECT q.doc_id, q.text FROM q JOIN dd USING (doc_id)
        ),
        toks AS MATERIALIZED (
            SELECT doc_id, string_split(text, ' ') AS w FROM d
        ),
        sh AS (
            SELECT doc_id,
                   CASE WHEN len(w) = 0 THEN []
                        WHEN len(w) < 3 THEN [array_to_string(w, ' ')]
                        ELSE list_transform(range(1, len(w) - 1),
                             i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
                   END AS shingles
            FROM toks
        ),
        ds AS MATERIALIZED (
            SELECT DISTINCT doc_id, t.s FROM sh, UNNEST(shingles) AS t(s)
        ),
        sizes AS (
            SELECT doc_id, COUNT(*) AS sz FROM ds GROUP BY doc_id
        ),
        common AS (
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS c
            FROM ds a JOIN ds b ON a.s = b.s AND a.doc_id < b.doc_id
            GROUP BY 1, 2
        ),
        nd_pairs AS MATERIALIZED (
            SELECT doc_a, doc_b FROM common
            JOIN sizes sa ON sa.doc_id = doc_a
            JOIN sizes sb ON sb.doc_id = doc_b
            WHERE CAST(c AS DOUBLE) / CAST(sa.sz + sb.sz - c AS DOUBLE)
                  >= {neardup_threshold}
        ),
        bidir AS (
            SELECT doc_a AS u, doc_b AS v FROM nd_pairs
            UNION ALL SELECT doc_b, doc_a FROM nd_pairs
        ),
        reach(a, b) AS (
            SELECT u, u FROM bidir
            UNION
            SELECT r.a, e.v FROM reach r JOIN bidir e ON e.u = r.b
        ),
        nd_losers AS (
            SELECT a AS doc_id FROM reach GROUP BY a HAVING MIN(b) < a
        ),
        s3 AS MATERIALIZED (
            SELECT d.doc_id, d.text FROM d
            WHERE d.doc_id NOT IN (SELECT doc_id FROM nd_losers)
        ),
        corpus AS MATERIALIZED (
            SELECT doc_id, text FROM s3 WHERE doc_id % 10 <> 0
        ),
        bench_grams AS MATERIALIZED (
            SELECT DISTINCT array_to_string(w[i:i+{g}], ' ') AS gr
            FROM (SELECT string_split(text, ' ') AS w FROM documents
                  WHERE doc_id % 10 = 0),
                 unnest(generate_series(
                     1, greatest(len(w) - {g}, 0))) AS t(i)
        ),
        corpus_grams AS (
            SELECT DISTINCT doc_id, array_to_string(w[i:i+{g}], ' ') AS gr
            FROM (SELECT doc_id, string_split(text, ' ') AS w
                  FROM corpus),
                 unnest(generate_series(
                     1, greatest(len(w) - {g}, 0))) AS t(i)
        ),
        contaminated AS (
            SELECT DISTINCT cg.doc_id
            FROM corpus_grams cg JOIN bench_grams b ON cg.gr = b.gr
        ),
        final AS (
            SELECT c.doc_id FROM corpus c
            WHERE c.doc_id NOT IN (SELECT doc_id FROM contaminated)
        )
        SELECT doc.source, COUNT(*) AS n_docs,
               CAST(SUM(doc.n_chars) AS BIGINT) AS sum_chars
        FROM final f JOIN documents doc ON f.doc_id = doc.doc_id
        GROUP BY doc.source
    """
