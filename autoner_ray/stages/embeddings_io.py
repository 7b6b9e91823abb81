"""Embedding-table operators (SURVEY.md §2 S7/S8, A6, J3).

Reference semantics (`preprocess_partial_ner/save_emb.py:18-59`):
- parse ``word v1..vd`` lines; malformed-width rows are SKIPPED;
- FIRST occurrence of a word wins (later duplicates dropped,
  `save_emb.py:24-35`);
- a lone ``unk`` row is remembered separately and stored as ``<unk>``;
- after the file, special tokens ``<unk> <s> < > <\\n>`` that are still
  missing get seeded uniform(-sqrt(3/d), +sqrt(3/d)) vectors
  (`save_emb.py:42-56` uses numpy's global RNG; we pin an explicit
  seeded Generator so artifacts are reproducible).

The distributed variants below re-express the semantics over a Ray
Dataset when the embedding file is itself large:
- first-wins dedup (A6) carries the original row index and keeps the
  min-index row per word via a groupby — order-independent.
- ``filter_words`` (J3, `encode_folder.py:11-30`) is the vocab semi-join:
  corpus vocab is aggregated (distinct), broadcast, and embedding rows
  are kept when word or word.lower() is in-vocab (specials always kept).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

SPECIALS = ("<unk>", "<s>", "< >", "<\n>")


def parse_embedding_lines(
    lines, dim: int | None = None, seed: int = 19910724
) -> tuple[dict[str, int], np.ndarray]:
    """Single-process reader with exact reference semantics (S7)."""
    w_map: dict[str, int] = {}
    vecs: list[np.ndarray] = []
    unk_vec = None
    for line in lines:
        parts = line.rstrip("\n").split()
        if not parts:
            continue
        word, vals = parts[0], parts[1:]
        if dim is None and len(vals) > 0:
            dim = len(vals)
        if len(vals) != dim:
            continue  # malformed width: skipped (save_emb.py:27)
        v = np.asarray(vals, dtype=np.float32)
        if word == "unk" and "<unk>" not in w_map:
            unk_vec = v
            continue
        if word in w_map:
            continue  # first wins (save_emb.py:24-35)
        w_map[word] = len(vecs)
        vecs.append(v)
    if dim is None:
        dim = 50
    rng = np.random.default_rng(seed)
    bound = float(np.sqrt(3.0 / dim))
    if unk_vec is not None and "<unk>" not in w_map:
        w_map["<unk>"] = len(vecs)
        vecs.append(unk_vec)
    for sp in SPECIALS:
        if sp not in w_map:
            w_map[sp] = len(vecs)
            vecs.append(
                rng.uniform(-bound, bound, size=dim).astype(np.float32)
            )
    return w_map, np.stack(vecs) if vecs else np.zeros((0, dim), np.float32)


def first_wins_dedup(emb_ds):
    """A6 as a distributed op: keep the min-row-index row per word."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from autoner_ray.stages.combine import exchange

    def keep_first(t: pa.Table) -> pa.Table:
        t = t.sort_by([("word", "ascending"), ("row_idx", "ascending")])
        words = t["word"].combine_chunks()
        first = pc.not_equal(words[1:], words[:-1]).to_numpy(
            zero_copy_only=False
        )
        return t.filter(np.concatenate([[True], first]))

    schema = emb_ds.schema()
    return exchange(
        emb_ds, ("word",), keep_first,
        pa.schema(list(zip(schema.names, schema.types))),
    )


def corpus_vocab(tokens_ds):
    """Distinct corpus words (+ lowercase forms), as a driver-side set.

    The vocab aggregate runs distributed (groupby distinct); only the
    distinct result — dictionary-scale, not corpus-scale — reaches the
    driver, to become the broadcast side of the semi-join.
    """
    def explode(batch: pa.Table) -> pa.Table:
        words: set[str] = set()
        for toks in batch["tokens"].to_pylist():
            for t in toks:
                words.add(t)
                words.add(t.lower())
        return pa.table({"word": pa.array(sorted(words), pa.string())})

    vals = tokens_ds.map_batches(explode, batch_format="pyarrow").unique(
        "word"
    )
    return set(vals)


class FilterWords:
    """J3 semi-join: keep embedding rows whose word is in the corpus
    vocab (raw or lowercased); specials always kept. Vocab is broadcast
    (ray.put handle or plain set)."""

    def __init__(self, vocab_ref) -> None:
        import ray

        v = (
            ray.get(vocab_ref)
            if isinstance(vocab_ref, ray.ObjectRef)
            else vocab_ref
        )
        self.vocab = set(v)

    def __call__(self, batch: pa.Table) -> pa.Table:
        keep = [
            w in self.vocab or w.lower() in self.vocab or w in SPECIALS
            for w in batch["word"].to_pylist()
        ]
        return batch.filter(pa.array(keep, pa.bool_()))


def filter_embeddings(emb_ds, tokens_ds, concurrency: int = 2):
    import ray

    vocab = ray.put(corpus_vocab(tokens_ds))
    return emb_ds.map_batches(
        FilterWords,
        fn_constructor_kwargs={"vocab_ref": vocab},
        batch_format="pyarrow",
        concurrency=concurrency,
    )
