"""Byte-stable text extraction from HTML (stateless map_batches stage).

The per-row invariant from BASELINE.json input_hint: extracted text must be
byte-identical per url. Rows that already carry ``text`` pass through
untouched; html-only rows go through :func:`extract_text_from_html`, the
exact inverse of :func:`autoner_ray.sources.pages.make_html` for the body
markup family it emits (first ``<p ...>…</p>`` block, entities unescaped).

The wide ``html`` binary column is DROPPED on output so downstream blocks
shrink ~5× (SURVEY.md §4 memory row).
"""

from __future__ import annotations

import html as _html
import re

import pyarrow as pa

_MAIN_P_RE = re.compile(rb"<p\b[^>]*>(.*?)</p>", re.S)
_TAG_RE = re.compile(r"<[^>]+>")


def extract_text_from_html(html_bytes: bytes) -> str:
    """First-paragraph extractor: inner text of the first ``<p>`` block.

    Deterministic, pure; inner tags stripped, entities unescaped. Returns
    "" when no paragraph is found (callers keep the row with empty text so
    counts stay stable and lineage is visible).
    """
    m = _MAIN_P_RE.search(html_bytes)
    if not m:
        return ""
    inner = m.group(1).decode("utf-8", errors="replace")
    return _html.unescape(_TAG_RE.sub("", inner))


def extract_text_batch(batch: pa.Table) -> pa.Table:
    """pages -> (url, warc_ts, text, lang); html-only rows extracted."""
    texts = batch["text"].to_pylist()
    htmls = batch["html"].to_pylist()
    out = [
        t if t is not None else extract_text_from_html(h or b"")
        for t, h in zip(texts, htmls)
    ]
    from autoner_ray.schemas import check

    return check(
        pa.table(
            {
                "url": batch["url"],
                "warc_ts": batch["warc_ts"],
                "text": pa.array(out, type=pa.string()),
                "lang": batch["lang"],
            }
        ),
        "extracted",
    )
