"""The curation composition against its DuckDB twin with the near-dup
component labels forced onto the distributed tier."""

from __future__ import annotations


def test_curation_pipeline_distributed_labels_match_oracle(ray_session,
                                                           sf_dir,
                                                           monkeypatch):
    import duckdb

    from autoner_ray.pipelines.curation import (
        curation_pipeline,
        curation_pipeline_oracle_sql,
    )
    from autoner_ray.stages import graph

    monkeypatch.setattr(graph, "DRIVER_UF_MAX_EDGES", 0)
    got = sorted(
        (r["source"], r["n_docs"], r["sum_chars"])
        for r in curation_pipeline(sf_dir).take_all()
    )
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf_dir}/documents.parquet')"
    )
    want = sorted(
        tuple(r) for r in con.execute(curation_pipeline_oracle_sql()).fetchall()
    )
    assert got and got == want
