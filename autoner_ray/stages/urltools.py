"""URL canonicalization — the crawl-side twin of document dedup: the
same page is fetched under many spellings (case-varied host, default
port, tracking params, fragments, trailing slash), and a crawl that
doesn't collapse them re-crawls and re-trains on duplicates. The rules
here are the standard public set (RFC 3986 §6 syntax-based
normalization + the usual tracking-param strip used by crawl dedup):

  1. scheme and host lowercased
  2. default port stripped (http:80 / https:443)
  3. fragment removed
  4. tracking query params dropped (``utm_*``, fbclid, gclid,
     msclkid, ref)
  5. surviving query params sorted by (key, value) — order-insensitive
     equality
  6. trailing slash stripped from non-root paths

Scale shape: a stateless string kernel inside ``map_batches`` (the
parse is inherently per-string, same cost class as the md5/regex
kernels elsewhere); the dedup count flows through the url-partitioned
combine — the canonical-url key set is corpus-sized and never lands on
the driver.

The driver queries prove the kernel end-to-end the same way
``pages_warc_roundtrip`` proves the WARC codec: messy variants are
synthesized as a PURE ARITHMETIC function of ``doc_id`` (so a DuckDB
oracle reconstructs both the raw and the canonical strings without a
URL parser), and the value-hash pins the engine's parse+normalize on
every row. The rule battery itself is pinned by
``tests/test_urltools.py`` on adversarial cases the synth doesn't hit.
"""

from __future__ import annotations

from urllib.parse import parse_qsl, urlencode, urlsplit, urlunsplit

import pyarrow as pa

_DEFAULT_PORTS = {"http": 80, "https": 443}
_TRACKING_KEYS = {"fbclid", "gclid", "msclkid", "ref"}


def canonicalize_url(url: str) -> str:
    """Apply the module's six normalization rules to one URL."""
    parts = urlsplit(url)
    scheme = parts.scheme.lower()
    host = (parts.hostname or "").lower()
    port = parts.port
    netloc = host
    if port is not None and port != _DEFAULT_PORTS.get(scheme):
        netloc = f"{host}:{port}"
    path = parts.path
    if path.endswith("/") and path != "/":
        path = path.rstrip("/") or "/"
    keep = [
        (k, v)
        for k, v in parse_qsl(parts.query, keep_blank_values=True)
        if not k.startswith("utm_") and k not in _TRACKING_KEYS
    ]
    query = urlencode(sorted(keep))
    return urlunsplit((scheme, netloc, path, query, ""))


_CANON_SCHEMA = pa.schema(
    [("url_raw", pa.string()), ("url_canon", pa.string())]
)


def canonicalize_batch(t: pa.Table) -> pa.Table:
    """(.., url_raw, ..) -> (url_raw, url_canon)."""
    if len(t) == 0:
        return _CANON_SCHEMA.empty_table()
    raw = t["url_raw"].to_pylist()
    return pa.table(
        {
            "url_raw": t["url_raw"],
            "url_canon": pa.array(
                [canonicalize_url(u) for u in raw], pa.string()
            ),
        },
        schema=_CANON_SCHEMA,
    )


_VARIANT_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("url_raw", pa.string())]
)


def synth_variants_batch(t: pa.Table) -> pa.Table:
    """Messy URL spellings per doc — a pure function of ``doc_id`` the
    oracle mirrors with string concatenation: two variants always
    (upper-cased host + default port + utm param + fragment; mixed-case
    host + trailing slash + utm param) and a third on ``doc_id % 3 ==
    0`` (default port + gclid). All canonicalize to
    ``https://example.org/doc/{id}?id={id}``."""
    if len(t) == 0:
        return _VARIANT_SCHEMA.empty_table()
    ids: list[int] = []
    raws: list[str] = []
    for i in t["doc_id"].to_pylist():
        d = str(i)
        ids.append(i)
        raws.append(
            f"HTTPS://EXAMPLE.org:443/doc/{d}?utm_source=feed&id={d}#frag"
        )
        ids.append(i)
        raws.append(f"https://Example.Org/doc/{d}/?id={d}&utm_campaign=promo")
        if i % 3 == 0:
            ids.append(i)
            raws.append(f"https://example.org:443/doc/{d}?gclid=abc123&id={d}")
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "url_raw": pa.array(raws, pa.string()),
        },
        schema=_VARIANT_SCHEMA,
    )


def _variants(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).map_batches(synth_variants_batch, batch_format="pyarrow")


def url_canonical_map(sf_dir: str):
    """(url_raw, url_canon) for every synthesized variant — the
    per-row proof that each normalization rule fired."""
    return _variants(sf_dir).map_batches(
        canonicalize_batch, batch_format="pyarrow"
    )


def url_canonical_dedup(sf_dir: str):
    """(url_canon, n_variants): canonical-URL group sizes — the crawl
    frontier's fetched-already check. Counts flow through the
    url-keyed combine (canonical key set is corpus-sized)."""
    from autoner_ray.stages.combine import keyed_combine

    def count_partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        vc = pc.value_counts(t["url_canon"])
        return pa.table(
            {
                "url_canon": vc.field("values"),
                "n_variants": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    return keyed_combine(
        url_canonical_map(sf_dir)
        .select_columns(["url_canon"])
        .map_batches(count_partial, batch_format="pyarrow",
                     batch_size=65536),
        pa.schema([("url_canon", pa.string()), ("n_variants", pa.int64())]),
        [("n_variants", "sum")],
    )


def url_canonical_map_oracle_sql() -> str:
    return """
        WITH v AS (
            SELECT doc_id,
                   'HTTPS://EXAMPLE.org:443/doc/' || CAST(doc_id AS VARCHAR)
                       || '?utm_source=feed&id=' || CAST(doc_id AS VARCHAR)
                       || '#frag' AS url_raw
            FROM documents
            UNION ALL
            SELECT doc_id,
                   'https://Example.Org/doc/' || CAST(doc_id AS VARCHAR)
                       || '/?id=' || CAST(doc_id AS VARCHAR)
                       || '&utm_campaign=promo'
            FROM documents
            UNION ALL
            SELECT doc_id,
                   'https://example.org:443/doc/' || CAST(doc_id AS VARCHAR)
                       || '?gclid=abc123&id=' || CAST(doc_id AS VARCHAR)
            FROM documents WHERE doc_id % 3 = 0
        )
        SELECT url_raw,
               'https://example.org/doc/' || CAST(doc_id AS VARCHAR)
                   || '?id=' || CAST(doc_id AS VARCHAR) AS url_canon
        FROM v
    """


def url_canonical_dedup_oracle_sql() -> str:
    return """
        SELECT 'https://example.org/doc/' || CAST(doc_id AS VARCHAR)
                   || '?id=' || CAST(doc_id AS VARCHAR) AS url_canon,
               CAST(2 + CASE WHEN doc_id % 3 = 0 THEN 1 ELSE 0 END
                    AS BIGINT) AS n_variants
        FROM documents
    """
