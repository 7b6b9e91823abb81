"""source_lang_pivot: wide per-source language counts agree with the
plain per-language totals on the sf0.001 fixture."""

from __future__ import annotations

import pandas as pd


def test_pivot_totals_match_lang_counts(ray_session):
    import ray

    from autoner_ray.stages.analysis import source_lang_pivot

    ds = ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["source", "lang"],
    )
    wide = source_lang_pivot(ds).to_pandas()
    df = pd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["source", "lang"],
    )
    assert wide["n_total"].sum() == len(df)
    assert (wide["n_other"] == 0).all()
    for lg in ("en", "de"):
        assert wide[f"n_{lg}"].sum() == (df["lang"] == lg).sum()
