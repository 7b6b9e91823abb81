r"""Sentence split + tokenization (stateless map_batches stage).

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

The whitespace split is ``ascii_split_whitespace``. Its whitespace is
``[\t\n\v\f\r ]``, the C ``isspace`` set. ``sentence_token_stream``
cuts on all six and drops every one but "\n" as a token; no "\n"
survives the sentence split, so on a sentence both split on exactly
``[\t\v\f\r ]`` runs, the class of the regex split this replaced.
Other Unicode whitespace (``\x1c``-``\x1f``, ``\x85``, ``\xa0``,
``\u3000``, ...) stays inside tokens on both sides. The empty pieces a
leading or trailing run leaves are dropped with the other empty tokens.
The doc_id of a ``URL_PREFIX`` url is parsed in Arrow too; only a suffix
that is not a plain ``-?[0-9]{1,18}`` falls back to ``int()``.

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
# a URL_PREFIX suffix that ``int()`` and an Arrow cast read alike
_PLAIN_ID_RE = r"^-?[0-9]{1,18}$"


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


def _doc_ids(urls: pa.Array) -> pa.Array:
    """:func:`_doc_id_from_url` over a column: plain ids are cast in
    Arrow, any other prefixed suffix (``+5``, `` 5``, ``5_0``, non-ASCII
    digits, 19+ digits) keeps ``int()``'s reading."""
    prefixed = pc.starts_with(urls, URL_PREFIX)
    suffix = pc.utf8_slice_codeunits(urls, len(URL_PREFIX))
    plain = pc.and_(prefixed, pc.match_substring_regex(suffix, _PLAIN_ID_RE))
    ids = pc.if_else(plain, suffix, "-1").cast(pa.int64())
    other = pc.and_not(prefixed, plain)
    if pc.any(other).as_py():
        odd = urls.filter(other).to_numpy(zero_copy_only=False)
        parsed = pa.array([_doc_id_from_url(u) for u in odd], pa.int64())
        ids = pc.replace_with_mask(ids, other, parsed)
    return ids


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
    pieces = pc.ascii_split_whitespace(
        pc.replace_substring_regex(sents, _SEP_RE, r" \1 ")
    )
    toks = pc.list_flatten(pieces)
    nonempty = pc.not_equal(pc.binary_length(toks), 0)
    n_tokens = np.bincount(
        pc.list_parent_indices(pieces).filter(nonempty).to_numpy(),
        minlength=len(doc),
    )
    offsets = np.zeros(len(doc) + 1, np.int32)
    np.cumsum(n_tokens, out=offsets[1:])
    urls = batch["url"].combine_chunks()
    return check(
        pa.table(
            {
                "url": urls.take(doc).cast(pa.string()),
                "doc_id": _doc_ids(urls).take(doc),
                "sent_id": pa.array(sent_id.astype(np.int32)),
                "n_tokens": pa.array(n_tokens.astype(np.int32)),
                "tokens": pa.ListArray.from_arrays(
                    pa.array(offsets), toks.filter(nonempty)
                ),
            }
        ),
        "sentences",
    )
