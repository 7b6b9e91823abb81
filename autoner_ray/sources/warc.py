"""WARC (ISO 28500) source/sink for crawled pages.

Common-Crawl-style corpora — the north-rule input family — ship as
gzipped WARC files of ``response`` records, not Parquet. This module
makes the engine a drop-in consumer/producer of that layout while
keeping the Ray-Data-native shape: the writer is a block-parallel
``map_batches`` stage emitting ONE ``.warc.gz`` FILE PER BLOCK (the
partitioned, resumable layout), and the reader restores a streaming
Dataset with file-driven parallelism via ``read_binary_files``.

Format notes (public WARC 1.0 spec + Common Crawl conventions):

- Each file opens with a ``warcinfo`` record, then one ``response``
  record per page whose payload is a full HTTP/1.1 response envelope
  around the raw html bytes (exactly how Common Crawl stores pages).
- Records are INDIVIDUALLY gzipped and concatenated ("gzip members"),
  the spec's recommended compression so readers can split on member
  boundaries; Python's ``gzip.decompress`` transparently decodes the
  concatenation.
- Determinism contract (same as the other sinks): no wall clock, no
  uuid4 — ``WARC-Record-ID`` is derived from the target URI + date,
  file names are content hashes, gzip mtime is pinned to 0, so a
  re-run of identical data rewrites identical bytes.

At 100 TB the reader's parallelism is the file count (one task per
WARC, ~1 GB each in real crawls); nothing here holds more than one
file's records in memory at a time.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import shutil

import pyarrow as pa

_CRLF = b"\r\n"
_TS_EPOCH_US = 0


def fresh_dir(path: str) -> str:
    """Delete-and-recreate ``path``, so a re-run never appends to a
    previous run's files."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)
    return path


def _warc_date(ts_us: int) -> str:
    """Microsecond timestamp -> WARC-Date (ISO-8601, second precision,
    Z suffix). Pure arithmetic — no datetime.now anywhere."""
    import datetime

    dt = datetime.datetime.fromtimestamp(
        ts_us / 1_000_000, tz=datetime.timezone.utc
    )
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def _parse_warc_date(s: str) -> int:
    import datetime

    dt = datetime.datetime.strptime(s, "%Y-%m-%dT%H:%M:%SZ").replace(
        tzinfo=datetime.timezone.utc
    )
    return int(dt.timestamp() * 1_000_000)


def _record(headers: list[tuple[str, str]], payload: bytes) -> bytes:
    head = b"WARC/1.0" + _CRLF
    for k, v in headers:
        head += f"{k}: {v}".encode() + _CRLF
    head += f"Content-Length: {len(payload)}".encode() + _CRLF
    return head + _CRLF + payload + _CRLF + _CRLF


def _gzip_member(raw: bytes) -> bytes:
    import io

    buf = io.BytesIO()
    with gzip.GzipFile(filename="", mode="wb", fileobj=buf, mtime=0) as f:
        f.write(raw)
    return buf.getvalue()


def _response_record(url: str, ts_us: int, html: bytes) -> bytes:
    date = _warc_date(ts_us)
    rid = hashlib.md5((url + date).encode()).hexdigest()
    http = (
        b"HTTP/1.1 200 OK" + _CRLF
        + b"Content-Type: text/html; charset=UTF-8" + _CRLF
        + f"Content-Length: {len(html)}".encode() + _CRLF
        + _CRLF + html
    )
    return _record(
        [
            ("WARC-Type", "response"),
            ("WARC-Record-ID", f"<urn:md5:{rid}>"),
            ("WARC-Date", date),
            ("WARC-Target-URI", url),
            ("Content-Type", "application/http; msgtype=response"),
        ],
        http,
    )


def _warcinfo_record() -> bytes:
    info = (
        b"software: autoner-ray-engine" + _CRLF
        + b"format: WARC File Format 1.0" + _CRLF
    )
    return _record(
        [
            ("WARC-Type", "warcinfo"),
            ("WARC-Record-ID", "<urn:md5:warcinfo>"),
            ("WARC-Date", _warc_date(_TS_EPOCH_US)),
            ("Content-Type", "application/warc-fields"),
        ],
        info,
    )


def write_warc(pages_ds, out_dir: str) -> str:
    """pages(url, warc_ts, html, ...) -> gzipped WARC files, one per
    block. Returns ``out_dir``; the write is driven block-parallel via
    the manifest materialize (no driver-side iteration)."""
    fresh_dir(out_dir)

    def write_batch(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "path": pa.array([], pa.string()),
                "records": pa.array([], pa.int64()),
            }
        )
        if len(t) == 0:
            return empty
        members = [_gzip_member(_warcinfo_record())]
        urls = t["url"].to_pylist()
        # int64 epoch-us view, NOT datetime.timestamp() (which would
        # reinterpret naive datetimes in host-local time)
        ts = t["warc_ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_pylist()
        htmls = t["html"].to_pylist()
        for url, ts_us, html in zip(urls, ts, htmls):
            members.append(
                _gzip_member(_response_record(url, ts_us, html or b""))
            )
        payload = b"".join(members)
        name = hashlib.md5(payload).hexdigest()[:16] + ".warc.gz"
        with open(os.path.join(out_dir, name), "wb") as f:
            f.write(payload)
        return pa.table(
            {
                "path": pa.array([name], pa.string()),
                "records": pa.array([len(t)], pa.int64()),
            }
        )

    pages_ds.map_batches(
        write_batch, batch_format="pyarrow"
    ).materialize()
    return out_dir


def parse_warc_bytes(raw: bytes) -> pa.Table:
    """One WARC file's bytes -> (url, warc_ts, html) arrow table.

    Walks records by Content-Length (the only spec-correct framing —
    payloads may contain blank lines); skips non-``response`` records;
    unwraps the HTTP envelope by its own Content-Length header."""
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    urls: list[str] = []
    ts: list[int] = []
    htmls: list[bytes] = []
    pos = 0
    n = len(raw)
    while pos < n:
        head_end = raw.find(_CRLF + _CRLF, pos)
        if head_end < 0:
            break
        head = raw[pos:head_end].decode("utf-8", errors="replace")
        fields: dict[str, str] = {}
        for line in head.split("\r\n")[1:]:
            k, _, v = line.partition(":")
            fields[k.strip().lower()] = v.strip()
        clen = int(fields.get("content-length", "0"))
        payload = raw[head_end + 4 : head_end + 4 + clen]
        pos = head_end + 4 + clen + 4  # trailing CRLF CRLF
        if fields.get("warc-type") != "response":
            continue
        if "warc-target-uri" not in fields or "warc-date" not in fields:
            continue  # malformed record: skip, don't kill the read task
        http_end = payload.find(_CRLF + _CRLF)
        if http_end < 0:
            # no HTTP header/body split — nothing parseable as html
            body = b""
        else:
            http_head = payload[:http_end].decode(
                "utf-8", errors="replace"
            )
            http_fields = {}
            for line in http_head.split("\r\n")[1:]:
                k, _, v = line.partition(":")
                http_fields[k.strip().lower()] = v.strip()
            body_start = http_end + 4
            if "content-length" in http_fields:
                body = payload[
                    body_start
                    : body_start + int(http_fields["content-length"])
                ]
            else:
                # real crawls store chunked / connection-close responses
                # with no Content-Length: the body is the payload
                # remainder, not empty
                body = payload[body_start:]
        urls.append(fields["warc-target-uri"])
        ts.append(_parse_warc_date(fields["warc-date"]))
        htmls.append(body)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(ts, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
        }
    )


def read_warc(path: str):
    """WARC directory/file -> streaming Dataset(url, warc_ts, html);
    one parse task per file."""
    import ray.data as rd

    ds = rd.read_binary_files(path)

    def parse(batch: pa.Table) -> pa.Table:
        tables = [parse_warc_bytes(b.as_py()) for b in batch["bytes"]]
        if not tables:
            return pa.table(
                {
                    "url": pa.array([], pa.string()),
                    "warc_ts": pa.array([], pa.timestamp("us")),
                    "html": pa.array([], pa.binary()),
                }
            )
        return pa.concat_tables(tables)

    return ds.map_batches(parse, batch_format="pyarrow")


def warc_roundtrip_extracted(sf_dir: str):
    """documents -> derived pages -> WARC sink -> WARC source -> html
    text extraction -> one row per page (url, warc_ts, n_chars).

    End-to-end proof of the Common-Crawl interchange path: the SQL twin
    recomputes every column from the ORIGINAL documents parquet (url
    and warc_ts are pure functions of doc_id, n_chars = length(text)),
    so any byte loss in the WARC write/read or the html extraction
    breaks the driver value hash. WARC carries only url/ts/html — text
    is re-extracted from the html payload for every row (the
    byte-identity invariant of stages/extract.py)."""
    from autoner_ray.sources.pages import read_pages
    from autoner_ray.stages.extract import extract_text_from_html

    tag = os.path.basename(os.path.normpath(sf_dir))
    out = f"/tmp/autoner_ray_io/warc_pages_{tag}"
    write_warc(
        read_pages(sf_dir).map_batches(
            lambda t: t.select(["url", "warc_ts", "html"]),
            batch_format="pyarrow",
        ),
        out,
    )

    def extracted(t: pa.Table) -> pa.Table:
        n = [
            len(extract_text_from_html(h or b""))
            for h in t["html"].to_pylist()
        ]
        return pa.table(
            {
                "url": t["url"],
                "warc_ts": t["warc_ts"],
                "n_chars": pa.array(n, pa.int64()),
            }
        )

    return read_warc(out).map_batches(extracted, batch_format="pyarrow")


def warc_roundtrip_oracle_sql() -> str:
    return """
        SELECT 'https://example.org/doc/' || CAST(doc_id AS VARCHAR)
                   AS url,
               TIMESTAMP '2020-01-01 00:00:00'
                   + doc_id * INTERVAL 1 SECOND AS warc_ts,
               CAST(LENGTH(text) AS BIGINT) AS n_chars
        FROM documents
    """
