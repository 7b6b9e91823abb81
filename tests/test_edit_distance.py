"""vocab_edit_distance_pairs: banded-DP kernel and SymSpell pipeline
vs brute-force Levenshtein over a random vocabulary."""

from __future__ import annotations

import random

import pyarrow as pa
import ray

from autoner_ray.stages.analysis import (
    _deletion_variants,
    _levenshtein_leq,
    vocab_alias_clusters,
    vocab_edit_distance_pairs,
)


def _lev_full(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(
                min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
            )
        prev = cur
    return prev[len(b)]


def test_banded_dp_matches_full_dp():
    rng = random.Random(7)
    alphabet = "abcde"
    for _ in range(400):
        a = "".join(
            rng.choice(alphabet) for _ in range(rng.randrange(0, 9))
        )
        b = "".join(
            rng.choice(alphabet) for _ in range(rng.randrange(0, 9))
        )
        for d in (1, 2, 3):
            exact = _lev_full(a, b)
            got = _levenshtein_leq(a, b, d)
            if exact <= d:
                assert got == exact, (a, b, d)
            else:
                assert got == d + 1, (a, b, d)


def test_deletion_signature_covers_edits():
    # ed(a,b) <= d guarantees a shared <= d-deletion signature
    rng = random.Random(11)
    alphabet = "abc"
    for _ in range(200):
        a = "".join(
            rng.choice(alphabet) for _ in range(rng.randrange(1, 7))
        )
        b = "".join(
            rng.choice(alphabet) for _ in range(rng.randrange(1, 7))
        )
        d = _lev_full(a, b)
        if d <= 2:
            assert _deletion_variants(a, 2) & _deletion_variants(b, 2), (
                a,
                b,
                d,
            )


def test_pipeline_matches_bruteforce():
    rng = random.Random(3)
    alphabet = "abcd"
    vocab = sorted(
        {
            "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(1, 6))
            )
            for _ in range(60)
        }
    )
    # scatter the vocab across docs with repeats, blanks and nulls
    docs, i = [], 0
    while i < len(vocab):
        k = rng.randrange(1, 5)
        docs.append(" ".join(vocab[i : i + k] + [vocab[rng.randrange(len(vocab))]]))
        i += k
    docs += ["", None, "  "]
    ds = ray.data.from_arrow(
        pa.table({"text": pa.array(docs, pa.string())})
    ).repartition(4)

    got = {
        (r["word_a"], r["word_b"]): r["dist"]
        for r in vocab_edit_distance_pairs(ds, max_dist=2).take_all()
    }
    want = {}
    for x in range(len(vocab)):
        for y in range(x + 1, len(vocab)):
            d = _lev_full(vocab[x], vocab[y])
            if 1 <= d <= 2:
                want[(vocab[x], vocab[y])] = d
    assert got == want


def test_alias_clusters_both_tiers_match_bruteforce(monkeypatch):
    from autoner_ray.stages import graph

    rng = random.Random(5)
    alphabet = "abc"
    vocab = sorted(
        {
            "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(1, 5))
            )
            for _ in range(40)
        }
    )
    ds = ray.data.from_arrow(
        pa.table({"text": pa.array([" ".join(vocab)], pa.string())})
    ).repartition(3)

    # brute-force: union-find over all ed<=2 pairs, canonical = min
    parent = {w: w for w in vocab}

    def find(w):
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    touched = set()
    for x in range(len(vocab)):
        for y in range(x + 1, len(vocab)):
            if 1 <= _lev_full(vocab[x], vocab[y]) <= 2:
                touched |= {vocab[x], vocab[y]}
                ra, rb = find(vocab[x]), find(vocab[y])
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    want = {w: find(w) for w in touched}

    for uf_cap in (10**6, 0):  # driver union-find tier, distributed CC tier
        monkeypatch.setattr(graph, "DRIVER_UF_MAX_EDGES", uf_cap)
        got = {
            r["word"]: r["canonical"]
            for r in vocab_alias_clusters(ds, max_dist=2).take_all()
        }
        assert got == want, uf_cap
