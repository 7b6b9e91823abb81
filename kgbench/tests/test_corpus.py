"""The corpus is a pure function of the seed and the workload's spec."""

import statistics

import pytest

from kgbench.corpus import generate, write_corpus
from kgbench.workloads import CURATION_SPEC, WORKLOADS

SPECS = {name: w.spec for name, w in WORKLOADS.items()}
SPECS["curation"] = CURATION_SPEC


def _bytes(tmp_path, name, seed, spec):
    path = write_corpus(generate(seed, spec), str(tmp_path / name))
    with open(path, "rb") as f:
        return f.read()


@pytest.mark.parametrize("workload", sorted(SPECS))
def test_same_seed_gives_byte_identical_corpus(tmp_path, workload):
    spec = SPECS[workload]
    assert _bytes(tmp_path, "a", 7, spec) == _bytes(tmp_path, "b", 7, spec)
    assert _bytes(tmp_path, "a", 7, spec) != _bytes(tmp_path, "c", 8, spec)


def _shares(table):
    texts = table["text"].to_pylist()
    words = [t.split() for t in texts]
    n = len(texts)
    seen, dups = set(), 0
    for t in texts:
        dups += t in seen
        seen.add(t)
    return {
        "rows": n,
        "short": sum(len(w) < 20 for w in words) / n,
        "dup": dups / n,
        "words": statistics.mean(len(w) for w in words),
        "sentences": statistics.mean(t.count("\n") + 1 for t in texts),
        "the": sum(w.count("the") for w in words) / sum(map(len, words)),
    }


@pytest.mark.parametrize("workload", sorted(SPECS))
def test_other_seed_gives_same_sizes_and_shares(workload):
    spec = SPECS[workload]
    a, b = _shares(generate(1, spec)), _shares(generate(2, spec))
    assert a["rows"] == b["rows"] == spec.n_docs
    for key in ("short", "dup", "the"):
        assert a[key] == pytest.approx(b[key], abs=0.03), key
    for key in ("words", "sentences"):
        assert a[key] == pytest.approx(b[key], rel=0.05), key


def test_curation_corpus_plants_its_shares():
    spec = CURATION_SPEC
    s = _shares(generate(3, spec))
    assert s["short"] == pytest.approx(spec.reject_share)
    # exact copies plus the rare natural collision
    assert spec.dup_share <= s["dup"] <= spec.dup_share + 0.01
