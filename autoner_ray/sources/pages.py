"""Common-Crawl-style ``pages`` table (input_hint shape), derived
deterministically from the driver's ``documents`` table.

Schema (BASELINE.json input_hint):
    url: string, warc_ts: timestamp[us], html: binary,
    text: string (null on rows where only html is present), lang: string

Derivation is a pure per-row function of ``doc_id``/``text``/``lang`` so the
pages table is identical regardless of block layout or execution order.
:func:`derive_pages_batch` computes it column-wise (Arrow string kernels
and numpy masks, no per-row Python); :func:`make_html` and
:func:`link_targets` are the per-row reference it is tested against.
Even doc_ids drop the ``text`` column (html-only rows) to force the
extractor through the html path; the extractor must recover the text
byte-identically (oracle-diff test + driver value-hash vs ``documents``).

At 100 TB scale the real input would already be Parquet pages; this module
then reduces to ``ray.data.read_parquet(pages_glob, columns=[...])``.
"""

from __future__ import annotations

import html as _html

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

URL_PREFIX = "https://example.org/doc/"
# fixed epoch base — no wall clock anywhere (determinism)
_TS_BASE_US = 1_577_836_800_000_000  # 2020-01-01T00:00:00Z in microseconds


def link_targets(doc_id: int) -> list[int]:
    """Deterministic outlink targets of a page: a pure arithmetic
    function of ``doc_id`` (so a SQL oracle can re-derive the link
    graph without parsing HTML), first-occurrence-deduped, self-loops
    dropped. Targets may exceed the corpus id range — dangling links,
    like the real web."""
    out: list[int] = []
    for dst in (doc_id + 1, 2 * doc_id + 1, doc_id // 3):
        if dst != doc_id and dst not in out:
            out.append(dst)
    return out


def make_html(doc_id: int, text: str) -> bytes:
    """Deterministic page markup wrapping ``text`` (entity-escaped).

    Outlinks (``link_targets``) live in the footer, AFTER the main
    ``<p>`` block, so the first-paragraph text extractor
    (`stages/extract.py`) is unaffected — the byte-identity invariant
    on extracted text holds with or without the anchors."""
    body = _html.escape(text, quote=False)
    anchors = "".join(
        f'<a href="{URL_PREFIX}{dst}">doc {dst}</a>'
        for dst in link_targets(doc_id)
    )
    return (
        f"<html><head><title>doc {doc_id}</title></head>"
        f"<body><nav>site nav</nav><p id=\"main\">{body}</p>"
        f"<footer>footer{anchors}</footer></body></html>"
    ).encode()


def _anchors(dst: np.ndarray) -> pa.Array:
    """:func:`make_html`'s outlink anchor for every target in ``dst``."""
    s = pc.cast(pa.array(dst), pa.string())
    return pc.binary_join_element_wise(
        f'<a href="{URL_PREFIX}', s, '">doc ', s, "</a>", ""
    )


def derive_pages_batch(batch: pa.Table) -> pa.Table:
    """documents(doc_id, text, lang, ...) -> pages(url, warc_ts, html,
    text, lang).

    Column-wise :func:`make_html` / :func:`link_targets`: the output is
    byte-identical to applying them per row. A null ``text`` derives like
    ``""`` (and stays null in the ``text`` column)."""
    ids = batch["doc_id"].combine_chunks().cast(pa.int64())
    texts = batch["text"].combine_chunks().cast(pa.string())
    # checked: a doc_id whose timestamp overflows int64 raises, never wraps
    ts = pc.add_checked(pc.multiply_checked(ids, 1_000_000), _TS_BASE_US)
    body = pc.fill_null(texts, "")
    for ch, ent in (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;")):
        body = pc.replace_substring(body, ch, ent)  # html.escape's order
    d = ids.to_numpy()
    t1, t2, t3 = d + 1, 2 * d + 1, d // 3
    # link_targets' self-loop drop and first-occurrence dedup: d+1 is
    # never d, and a dropped 2d+1 equals d or d+1, so testing d//3
    # against it unconditionally changes nothing
    keep2 = pa.array((t2 != d) & (t2 != t1))
    keep3 = pa.array((t3 != d) & (t3 != t1) & (t3 != t2))
    anchors = (
        _anchors(t1),
        pc.if_else(keep2, _anchors(t2), ""),
        pc.if_else(keep3, _anchors(t3), ""),
    )
    id_str = pc.cast(ids, pa.string())
    htmls = pc.binary_join_element_wise(
        "<html><head><title>doc ", id_str,
        '</title></head><body><nav>site nav</nav><p id="main">', body,
        "</p><footer>footer", *anchors, "</footer></body></html>",
        "",
    ).cast(pa.binary())
    even = pc.equal(pc.bit_wise_and(ids, 1), 0)
    from autoner_ray.schemas import check

    return check(
        pa.table(
            {
                "url": pc.binary_join_element_wise(URL_PREFIX, id_str, ""),
                "warc_ts": ts.cast(pa.timestamp("us")),
                "html": htmls,
                "text": pc.if_else(even, pa.scalar(None, pa.string()), texts),
                "lang": batch["lang"],
            }
        ),
        "pages",
    )


def read_pages(
    sf_dir: str, parallelism: int | None = None, repeat: int = 1
):
    """Stream the documents table and derive the pages shape in-flight.

    ``repeat`` re-reads the same file N times (N independent read tasks) —
    used by the bench to scale up work on the small local fixture the way
    a real corpus's many input files would; at 100 TB the file count
    itself provides the read parallelism.
    """
    import ray.data as rd

    kwargs = {}
    if parallelism is not None:
        kwargs["override_num_blocks"] = parallelism
    ds = rd.read_parquet(
        [f"{sf_dir}/documents.parquet"] * max(1, repeat),
        columns=["doc_id", "text", "lang"],
        **kwargs,
    )
    return ds.map_batches(derive_pages_batch, batch_format="pyarrow")
