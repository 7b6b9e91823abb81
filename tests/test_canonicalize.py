"""Canonicalization stage vs a single-process oracle.

Checks: combiner+salted two-phase selection produces exactly the
most-frequent-surface-per-key (ties lexicographic), dense ids follow
(count desc, key asc), and the broadcast link join resolves every
mention.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import pyarrow as pa


def _mentions_table():
    surfaces = (
        ["Ray Data"] * 5
        + ["ray data"] * 9
        + ["RAY  DATA"] * 2
        + ["Arrow"] * 4
        + ["arrow"] * 4  # tie on count -> lexicographic: "Arrow" < "arrow"
        + ["Spark"] * 1
    )
    return pa.table(
        {
            "surface": pa.array(surfaces, pa.string()),
            "doc_id": pa.array(range(len(surfaces)), pa.int64()),
        }
    )


def _oracle(table):
    from autoner_ray.functions.text import normalize_surface

    counts = Counter()
    per_key = defaultdict(Counter)
    for s in table["surface"].to_pylist():
        k = normalize_surface(s)
        counts[k] += 1
        per_key[k][s] += 1
    entities = {}
    for k, c in per_key.items():
        best = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
        entities[k] = (best, counts[k])
    ids = {
        k: i
        for i, k in enumerate(
            sorted(entities, key=lambda k: (-entities[k][1], k))
        )
    }
    return entities, ids


def test_canonical_entities_match_oracle(ray_session, typed_blocks):
    import ray.data as rd

    from autoner_ray.stages.canonicalize import (
        canonical_entities,
        entity_id_table,
    )

    table = _mentions_table()
    entities, ids = _oracle(table)
    # tiny blocks to force multi-block combine paths
    ds = rd.from_arrow(table).repartition(5)
    entities_ds = canonical_entities(ds).materialize()
    assert typed_blocks(entities_ds, pa.schema(
        [("key", pa.string()), ("canonical_surface", pa.string()),
         ("n_mentions", pa.int64())]
    )) == 0
    got = entity_id_table(entities_ds)
    got_map = {
        k: (s, n)
        for k, s, n in zip(
            got["key"].to_pylist(),
            got["canonical_surface"].to_pylist(),
            got["n_mentions"].to_pylist(),
        )
    }
    assert got_map == entities
    got_ids = dict(zip(got["key"].to_pylist(), got["entity_id"].to_pylist()))
    assert got_ids == ids


def test_link_mentions(ray_session):
    import ray.data as rd

    from autoner_ray.stages.canonicalize import (
        canonical_entities,
        link_mentions,
    )

    table = _mentions_table()
    _, ids = _oracle(table)
    ds = rd.from_arrow(table).repartition(3)
    linked = link_mentions(ds, canonical_entities(ds)).to_pandas()
    from autoner_ray.functions.text import normalize_surface

    assert len(linked) == table.num_rows
    for s, eid in zip(linked["surface"], linked["entity_id"]):
        assert eid == ids[normalize_surface(s)]
