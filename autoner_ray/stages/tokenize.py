"""Sentence split + tokenization (stateless map_batches stage).

Emits ONE ROW PER SENTENCE (SURVEY.md §1.3): the sentence is the natural
parallel unit because dictionary matching never crosses it
(src/string_match.h:35-37). Token stream semantics: ``simpleTokenize``
(src/utils.h:195-231) with single-char WHITESPACE tokens dropped — this
reproduces the reference's pre-tokenized corpus contract (one token per
line, punctuation tokens kept, whitespace only a delimiter;
src/generate.cpp:23-32 + data/BC5CDR/raw_text.txt layout). Case is kept
(the trie holds case variants).

:func:`tokenize_pages_batch` runs as Arrow compute over the whole batch:
split on "\n", keep sentences that ``str.strip()`` leaves non-empty, pad
every non-whitespace separator with spaces and split on whitespace runs.
:func:`split_sentences` and :func:`sentence_token_stream` are the
per-string reference it is tested against.

Output schema:
    url: string, doc_id: int64, sent_id: int32, n_tokens: int32,
    tokens: list<string>
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from autoner_ray.functions.text import simple_tokenize
from autoner_ray.schemas import check
from autoner_ray.sources.pages import URL_PREFIX

_WHITESPACE_TOKENS = frozenset(" \t\v\f\r")
# RE2 class of the 29 code points where ``str.isspace()`` is true: a
# sentence survives ``str.strip()`` iff it has a char outside it
_PY_SPACE = (
    r"\t-\r\x1c- \x85\xa0\x{1680}\x{2000}-\x{200a}\x{2028}\x{2029}"
    r"\x{202f}\x{205f}\x{3000}"
)
_HAS_TEXT_RE = f"[^{_PY_SPACE}]"
# separators other than whitespace become tokens of their own
_SEP_RE = r"([/.,\-()!?~@#$%^&*\[\]])"
_WHITESPACE_RE = r"[ \t\x0b\x0c\r]+"


def sentence_token_stream(sentence: str) -> list[str]:
    """Tokens of one sentence: separators kept, whitespace dropped."""
    return [t for t in simple_tokenize(sentence) if t not in _WHITESPACE_TOKENS]


def split_sentences(text: str) -> list[str]:
    """Newline is the sentence sentinel (src/generate.cpp:26-30)."""
    return [s for s in text.split("\n") if s.strip()]


def _doc_id_from_url(url: str) -> int:
    if url.startswith(URL_PREFIX):
        try:
            return int(url[len(URL_PREFIX):])
        except ValueError:
            pass
    return -1


def tokenize_pages_batch(batch: pa.Table) -> pa.Table:
    lines = pc.split_pattern(batch["text"].combine_chunks(), "\n")
    sents = pc.list_flatten(lines)
    keep = pc.match_substring_regex(sents, _HAS_TEXT_RE)
    sents = sents.filter(keep)
    doc = pc.list_parent_indices(lines).filter(keep).to_numpy()
    # sent_id: rank of the sentence among its doc's kept sentences
    new_doc = np.ones(len(doc), bool)
    new_doc[1:] = doc[1:] != doc[:-1]
    idx = np.arange(len(doc))
    sent_id = idx - np.maximum.accumulate(np.where(new_doc, idx, 0))
    pieces = pc.split_pattern_regex(
        pc.replace_substring_regex(sents, _SEP_RE, r" \1 "), _WHITESPACE_RE
    )
    toks = pc.list_flatten(pieces)
    nonempty = pc.not_equal(pc.binary_length(toks), 0)
    n_tokens = np.bincount(
        pc.list_parent_indices(pieces).filter(nonempty).to_numpy(),
        minlength=len(doc),
    )
    offsets = np.zeros(len(doc) + 1, np.int32)
    np.cumsum(n_tokens, out=offsets[1:])
    doc_ids = pa.array(
        [_doc_id_from_url(u) for u in batch["url"].to_pylist()], pa.int64()
    )
    return check(
        pa.table(
            {
                "url": batch["url"].take(doc).cast(pa.string()),
                "doc_id": doc_ids.take(doc),
                "sent_id": pa.array(sent_id.astype(np.int32)),
                "n_tokens": pa.array(n_tokens.astype(np.int32)),
                "tokens": pa.ListArray.from_arrays(
                    pa.array(offsets), toks.filter(nonempty)
                ),
            }
        ),
        "sentences",
    )
