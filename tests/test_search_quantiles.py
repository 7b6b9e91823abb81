"""boolean_and_search vs brute force."""

from __future__ import annotations

import pyarrow as pa
import ray

from autoner_ray.stages.analysis import boolean_and_search


def test_boolean_and_search_matches_python():
    docs = [
        "a b c a",        # has a,b -> tf 3 (for terms a,b)
        "a a a",          # missing b
        "b b a",          # tf 3
        "",               # nothing
        None,             # null text
        "x a b y a",      # tf 3
    ]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(docs)), pa.int64()),
                "text": pa.array(docs, pa.string()),
            }
        )
    ).repartition(3)
    got = (
        boolean_and_search(ds, terms=("a", "b"))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = []
    for i, t in enumerate(docs):
        toks = (t or "").split(" ")
        if "a" in toks and "b" in toks:
            want.append((i, toks.count("a") + toks.count("b")))
    assert list(zip(got["doc_id"], got["tf"])) == want
