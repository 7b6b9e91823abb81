"""Byte-stable text extraction from HTML (stateless map_batches stage).

The per-row invariant from BASELINE.json input_hint: extracted text must be
byte-identical per url. Rows that already carry ``text`` pass through
untouched as Arrow data; only the html-only rows (null ``text``) are
converted to Python and go through :func:`extract_text_from_html`, the
exact inverse of :func:`autoner_ray.sources.pages.make_html` for the body
markup family it emits (first ``<p ...>…</p>`` block, entities unescaped).
Their results are scattered back into the ``text`` column in place.

The wide ``html`` binary column is DROPPED on output so downstream blocks
shrink ~5× (SURVEY.md §4 memory row).
"""

from __future__ import annotations

import html as _html
import re

import pyarrow as pa
import pyarrow.compute as pc

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
    text = batch["text"].combine_chunks()
    if text.null_count:
        html_only = text.is_null()
        htmls = batch["html"].combine_chunks().filter(html_only)
        found = [extract_text_from_html(h or b"") for h in htmls.to_pylist()]
        text = pc.replace_with_mask(
            text, html_only, pa.array(found, type=pa.string())
        )
    from autoner_ray.schemas import check

    return check(
        pa.table(
            {
                "url": batch["url"],
                "warc_ts": batch["warc_ts"],
                "text": text,
                "lang": batch["lang"],
            }
        ),
        "extracted",
    )
