"""Deterministic second-dataset fixtures (NCBI-Disease-like,
LaptopReview-like) for the dataset-agnostic training path.

The reference engine is dataset-agnostic by construction: every dataset
is just (raw corpus, ``dict_core.txt``, ``dict_full.txt``, stopwords)
in the same formats (`autoner_train.sh:7-24` — only the four paths
change between BC5CDR / NCBI-Disease / LaptopReview). The two
non-shipped corpora can't be fetched offline, so these fixtures
synthesize corpora of the same SHAPE from public surface inventories:

- NCBI-like: single entity type (Disease), hand-listed public disease
  names (1-3 lowercase alphabetic tokens, none a sub-span of another, so
  the planted dictionary never false-positives) embedded in PubMed-ish
  templates.
- Laptop-like: single type (AspectTerm), hand-listed public-knowledge
  laptop aspect terms in review-ish templates.

The key property reproduced is AutoNER's incomplete-dictionary story: a
held-out fraction of surfaces is OMITTED from the core dict but kept in
the full dict, so distant supervision marks them ``__FILTERED__``
(unknown — no negative signal, `annotation.h:278-280`) and the tagger
must recover them from context + characters. Everything is seeded —
same fixture bytes on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SynthDataset:
    """A synthesized distant-supervision dataset (one entity type)."""

    type_name: str
    train_sents: list[list[str]]
    eval_sents: list[list[str]]
    eval_gold: list[list[tuple[int, int, str]]]  # typed spans per sentence
    core_lines: list[str]  # "Type\tsurface"
    full_lines: list[str]  # untyped high-recall phrases
    stop_lines: list[str] = field(default_factory=lambda: ["the", "a", "is"])
    core_surfaces: list[str] = field(default_factory=list)
    heldout_surfaces: list[str] = field(default_factory=list)


DISEASE_SURFACES = [
    "ataxia", "hypertension", "hypotension", "asthma", "seizures",
    "epilepsy", "nephrotoxicity", "hepatotoxicity", "cardiotoxicity",
    "neutropenia", "thrombocytopenia", "anemia", "arrhythmia",
    "bradycardia", "tachycardia", "myocardial infarction",
    "heart failure", "acute renal failure", "liver injury", "hepatitis",
    "cirrhosis", "pancreatitis", "diabetes", "obesity", "depression",
    "schizophrenia", "psychosis", "dementia", "parkinsonism",
    "tardive dyskinesia", "catalepsy", "headache", "migraine", "nausea",
    "vomiting", "diarrhea", "peripheral neuropathy", "rhabdomyolysis",
    "myopathy", "proteinuria", "hematuria", "pulmonary edema", "stroke",
    "cerebral hemorrhage", "leukemia", "breast cancer", "lung cancer",
    "carcinoma", "glaucoma", "cataract", "delirium", "agranulocytosis",
    "cholestasis", "hyperkalemia", "hypoglycemia", "encephalopathy",
    "cardiomyopathy", "ventricular fibrillation", "bladder cancer",
    "hepatic necrosis",
]

LAPTOP_ASPECTS = [
    "battery life", "screen", "keyboard", "touchpad", "price",
    "hard drive", "operating system", "speakers", "warranty",
    "boot time", "display", "graphics card", "memory", "processor",
    "build quality", "fan noise", "webcam", "ports", "hinge",
    "trackpad", "charger", "screen resolution", "battery", "cooling",
    "storage", "wifi card", "power button", "backlit keyboard",
    "audio quality", "screen brightness", "usb ports", "sound",
    "battery charger", "power supply", "touch screen", "disk speed",
    "customer support", "delivery time", "software bundle", "bios",
]

# templates: None marks an entity slot; everything else is a literal token
NCBI_TEMPLATES = [
    ["patients", "with", None, "were", "treated", "promptly", "."],
    ["a", "severe", "case", "of", None, "is", "reported", "here", "."],
    ["the", "diagnosis", "of", None, "was", "confirmed", "by", "biopsy",
     "."],
    ["treatment", "induced", None, "in", "three", "subjects", "."],
    ["risk", "of", None, "increased", "with", "dose", "."],
    ["we", "observed", None, "and", None, "in", "the", "cohort", "."],
    ["history", "of", None, "was", "recorded", "for", "each", "patient",
     "."],
]

NCBI_DISTRACTORS = [
    ["the", "study", "was", "conducted", "over", "two", "years", "."],
    ["samples", "were", "collected", "at", "baseline", "."],
    ["results", "are", "summarized", "in", "table", "one", "."],
    ["informed", "consent", "was", "obtained", "from", "all",
     "participants", "."],
]

LAPTOP_TEMPLATES = [
    ["the", None, "on", "this", "laptop", "is", "great", "."],
    ["i", "love", "the", None, "but", "the", None, "is", "terrible", "."],
    ["its", None, "broke", "after", "two", "weeks", "."],
    ["excellent", None, "for", "the", "money", "."],
    ["the", None, "could", "be", "better", "."],
    ["you", "will", "enjoy", "the", None, "every", "day", "."],
    ["my", "only", "complaint", "is", "the", None, "."],
]

LAPTOP_DISTRACTORS = [
    ["i", "bought", "this", "laptop", "last", "month", "."],
    ["overall", "i", "am", "quite", "happy", "with", "it", "."],
    ["would", "recommend", "to", "a", "friend", "."],
    ["it", "arrived", "two", "days", "late", "."],
]


def _fill(template, surfaces, rng):
    toks: list[str] = []
    gold: list[tuple[int, int]] = []
    for t in template:
        if t is None:
            surf = surfaces[int(rng.integers(len(surfaces)))]
            parts = surf.split()
            gold.append((len(toks), len(toks) + len(parts)))
            toks.extend(parts)
        else:
            toks.append(t)
    return toks, gold


def make_distant_fixture(
    surfaces: list[str],
    type_name: str,
    templates,
    distractors,
    n_train: int = 400,
    n_eval: int = 120,
    heldout_frac: float = 0.2,
    distractor_frac: float = 0.25,
    seed: int = 13,
) -> SynthDataset:
    """Synthesize a distant-supervision dataset with an INCOMPLETE core
    dictionary: ``heldout_frac`` of surfaces appear in text (and gold)
    but only in the full dict — the exact supervision gap AutoNER's
    FILTERED mechanism exists for."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(surfaces))
    n_held = max(1, int(len(surfaces) * heldout_frac))
    heldout = [surfaces[i] for i in order[:n_held]]
    core = [surfaces[i] for i in order[n_held:]]

    def gen(n, pool):
        sents, golds = [], []
        for _ in range(n):
            if rng.random() < distractor_frac:
                sents.append(list(distractors[int(rng.integers(
                    len(distractors)))]))
                golds.append([])
            else:
                tmpl = templates[int(rng.integers(len(templates)))]
                toks, spans = _fill(tmpl, pool, rng)
                sents.append(toks)
                golds.append([(l, r, type_name) for l, r in spans])
        return sents, golds

    # train draws from every surface (held-out ones land as FILTERED);
    # eval too — its gold makes the dictionary-recall ceiling visible
    train_sents, _ = gen(n_train, core + heldout)
    eval_sents, eval_gold = gen(n_eval, core + heldout)
    return SynthDataset(
        type_name=type_name,
        train_sents=train_sents,
        eval_sents=eval_sents,
        eval_gold=eval_gold,
        core_lines=[f"{type_name}\t{s}" for s in core],
        full_lines=list(core + heldout),
        core_surfaces=core,
        heldout_surfaces=heldout,
    )


def ncbi_like(seed: int = 13, **kw) -> SynthDataset:
    return make_distant_fixture(
        DISEASE_SURFACES, "Disease", NCBI_TEMPLATES, NCBI_DISTRACTORS,
        seed=seed, **kw,
    )


def laptop_like(seed: int = 29, **kw) -> SynthDataset:
    return make_distant_fixture(
        LAPTOP_ASPECTS, "AspectTerm", LAPTOP_TEMPLATES,
        LAPTOP_DISTRACTORS, seed=seed, **kw,
    )


def train_eval_distant(ds: SynthDataset, epochs: int = 30,
                       hidden: int = 24, seed: int = 7,
                       budget: int = 3000, lr: float = 5e-3,
                       self_train_rounds: int = 0,
                       pseudo_min_score: float = 0.6):
    """Full distant pipeline on a SynthDataset: dictionary match ->
    FILTERED-aware encoding -> v2 tagger training (+ optional
    self-training rounds that stamp confident predictions into the
    FILTERED gaps, `carve_pseudo_segments`) -> span F1 on eval gold,
    next to the dictionary-match baseline F1.

    Returns (neural_f1, dict_f1, tagger)."""
    from autoner_ray.stages.dict_match import DictMatcher
    from autoner_ray.state.tagger import (
        Tagger,
        build_vocabs,
        carve_pseudo_segments,
        encode_sentence,
        f1_from_counts,
        segments_to_slots,
        span_f1_counts,
        spans_from_segments,
        token_budget_batches,
    )
    from autoner_ray.state.trie import FILTERED_TYPE

    matcher = DictMatcher(ds.core_lines, ds.full_lines, ds.stop_lines)
    seg_col = [matcher.segments(t) for t in ds.train_sents]
    type_lists = [
        [ty for _, _, ty in segs if ty and ty != FILTERED_TYPE]
        for segs in seg_col
    ]
    c_map, w_map, tl_map = build_vocabs(ds.train_sents, type_lists,
                                        char_min_count=0)

    def encode_all(segments_col):
        out = []
        for toks, sg in zip(ds.train_sents, segments_col):
            ci, wi, slots = encode_sentence(toks, c_map, w_map)
            brk, known = segments_to_slots(len(toks), sg)
            out.append(
                (ci, wi, slots, brk, known,
                 spans_from_segments(sg, tl_map))
            )
        return out

    from autoner_ray.state.tagger import word_dropout_records

    def fit(batch, tagger=None, word_drop: float = 0.2):
        tagger = tagger or Tagger(
            c_map, w_map, tl_map, arch="lstm", char_dim=16, word_dim=16,
            hidden=hidden, layers=2, label_dim=20, seed=seed,
        )
        rng = np.random.default_rng(seed)
        state = None
        for _ in range(epochs):
            eb = word_dropout_records(batch, word_drop, rng)
            for bt in token_budget_batches(eb, budget=budget):
                _, state = tagger.train_batch_v2(
                    bt, lr=lr, droprate=0.1, adam_state=state, rng=rng
                )
        return tagger

    tagger = fit(encode_all(seg_col))
    for _ in range(self_train_rounds):
        preds = tagger.predict_batch(ds.train_sents)
        for i, pred in enumerate(preds):
            seg_col[i], _ = carve_pseudo_segments(
                seg_col[i], pred, len(ds.train_sents[i]),
                min_score=pseudo_min_score,
            )
        tagger = fit(encode_all(seg_col))  # fresh model, enriched labels

    def f1_of(pred_spans_col):
        ng = npred = nh = 0
        for gold, preds in zip(ds.eval_gold, pred_spans_col):
            g, p, h = span_f1_counts(gold, preds)
            ng += g
            npred += p
            nh += h
        return f1_from_counts(ng, npred, nh)

    dict_preds = [
        [(l, r, ty, 1.0) for l, r, ty in matcher.segments(t)
         if ty and ty != FILTERED_TYPE]
        for t in ds.eval_sents
    ]
    neural_preds = tagger.predict_batch(ds.eval_sents)
    return f1_of(neural_preds), f1_of(dict_preds), tagger
