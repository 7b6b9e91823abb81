"""Dataset-agnostic reproduction: the full distant pipeline (dict ->
FILTERED-aware distant supervision -> v2 tagger -> span F1) on two
synthesized second datasets, mirroring the reference's NCBI-Disease and
LaptopReview configurations (`autoner_train.sh:7-24` — only the corpus
and dictionary paths differ between datasets).

The pinned claim is AutoNER's headline one: with an INCOMPLETE core
dictionary (20% of surfaces held out, present only in the full dict →
FILTERED / no supervision), the trained tagger beats pure dictionary
match on gold F1 by recovering held-out surfaces from context +
characters. Everything is seeded — results are deterministic."""

import numpy as np
import pytest

from autoner_ray.synth import (
    DISEASE_SURFACES,
    laptop_like,
    ncbi_like,
    train_eval_distant,
)


def _held_recall(ds, tagger):
    held = {tuple(s.split()) for s in ds.heldout_surfaces}
    hg = hh = 0
    preds = tagger.predict_batch(ds.eval_sents)
    for toks, gold, pred in zip(ds.eval_sents, ds.eval_gold, preds):
        pset = {(l, r, t) for l, r, t, *_ in pred}
        for (l, r, t) in gold:
            if tuple(toks[l:r]) in held:
                hg += 1
                hh += (l, r, t) in pset
    return hh / max(hg, 1)


def test_fixtures_deterministic_and_well_formed():
    a, b = ncbi_like(), ncbi_like()
    assert a.train_sents == b.train_sents and a.eval_gold == b.eval_gold
    assert a.core_surfaces and a.heldout_surfaces
    assert not set(a.heldout_surfaces) & set(a.core_surfaces)
    # held-out surfaces are in the full dict (FILTERED) but not core
    core_surf = {ln.split("\t")[1] for ln in a.core_lines}
    assert set(a.heldout_surfaces).isdisjoint(core_surf)
    assert set(a.heldout_surfaces) <= set(a.full_lines)
    # gold spans point at real entity tokens
    for toks, gold in zip(a.eval_sents, a.eval_gold):
        for l, r, t in gold:
            assert t == "Disease" and 0 <= l < r <= len(toks)
    # surfaces come from the in-repo public Disease inventory
    assert "ataxia" in DISEASE_SURFACES and len(DISEASE_SURFACES) == 60


@pytest.mark.parametrize(
    "make,min_held",
    [
        (ncbi_like, 0.25),
        (laptop_like, 0.6),
    ],
    ids=["ncbi_like", "laptop_like"],
)
def test_neural_beats_incomplete_dictionary(make, min_held):
    """README.md:103 — the reference reports AutoNER > dictionary match
    on NCBI-Disease and LaptopReview; reproduced here on same-shaped
    synthetic corpora (the real corpora are not shipped / no network)."""
    ds = make()
    neural, dict_f1, tagger = train_eval_distant(ds, epochs=20)
    # the planted dictionary never false-positives, so the only way to
    # win is recall on held-out surfaces — the AutoNER mechanism itself
    assert dict_f1["precision"] == 1.0
    assert neural["f1"] > dict_f1["f1"], (neural, dict_f1)
    assert neural["recall"] > dict_f1["recall"]
    assert _held_recall(ds, tagger) >= min_held


def test_self_training_round_adds_pseudo_spans():
    """One self-training round on the second dataset carves model
    predictions into FILTERED gaps and does not hurt eval F1."""
    ds = ncbi_like()
    base, dict_f1, _ = train_eval_distant(ds, epochs=20)
    st, _, _ = train_eval_distant(ds, epochs=20, self_train_rounds=1)
    assert st["f1"] >= base["f1"] - 0.01
    assert st["f1"] > dict_f1["f1"]
