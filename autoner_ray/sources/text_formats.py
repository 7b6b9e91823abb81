"""JSONL / CSV source-sink plumbing (interchange formats).

The engine's native interchange is Parquet (TESTDATA.md tables), but a
drop-in replacement for the reference toolchain must also speak the
line-oriented interchange formats its corpora arrive in (newline-
delimited JSON dumps, CSV exports — reference corpora ship as raw text
files read line-by-line, ``main.py:24-38``). These wrappers keep the
Ray-Data-native shape: ``write_*`` emits ONE FILE PER BLOCK into a
directory (the partitioned, resumable layout — a failed run re-writes
only missing files), ``read_*`` restores a streaming Dataset with
file-driven parallelism.

Determinism contract for driver queries: ``fresh_dir`` clears the
target first, so a re-run never appends to a previous run's files.
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa


def fresh_dir(path: str) -> str:
    """Delete-and-recreate ``path`` (idempotent re-runs; /tmp scratch)."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)
    return path


def write_jsonl(ds, out_dir: str) -> str:
    """Dataset -> newline-delimited JSON, one file per block."""
    ds.write_json(fresh_dir(out_dir))
    return out_dir


def read_jsonl(path: str, **kwargs):
    import ray.data as rd

    return rd.read_json(path, **kwargs)


def write_jsonl_gz(ds, out_dir: str) -> str:
    """Dataset -> gzip-compressed newline-delimited JSON, one
    ``.jsonl.gz`` file per batch — the compressed line-oriented layout
    web-scale corpora actually ship in (WET/WARC-derived dumps are
    gzipped). Files are named by content hash (deterministic bytes:
    gzip mtime pinned to 0), so a re-run of identical data rewrites
    identical files instead of appending. The write is driven through
    the returned manifest's ``materialize`` — block-parallel, no
    driver-side iteration."""
    import gzip
    import hashlib

    import pyarrow as pa

    fresh_dir(out_dir)

    def write_batch(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "path": pa.array([], pa.string()),
                "rows": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        payload = t.to_pandas().to_json(
            orient="records", lines=True
        ).encode()
        name = hashlib.md5(payload).hexdigest()[:16] + ".jsonl.gz"
        path = os.path.join(out_dir, name)
        with open(path, "wb") as raw:
            with gzip.GzipFile(
                filename="", mode="wb", fileobj=raw, mtime=0
            ) as f:
                f.write(payload)
        return pa.table(
            {
                "path": pa.array([name], pa.string()),
                "rows": pa.array([len(t)], pa.int64()),
            }
        )

    ds.map_batches(write_batch, batch_format="pyarrow").materialize()
    return out_dir


def write_ipc(ds, out_dir: str) -> str:
    """Dataset -> Arrow IPC (Feather v2) files, one ``.arrow`` file per
    batch, named by content hash so identical data re-writes identical
    files (the resumable layout). IPC is the zero-copy interchange a
    downstream Arrow/Flight consumer mmaps directly — no parse cost,
    exact schema fidelity (timestamps, large strings, lists)."""
    import hashlib

    import pyarrow as pa
    import pyarrow.ipc

    fresh_dir(out_dir)

    def write_batch(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "path": pa.array([], pa.string()),
                "rows": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        sink = pa.BufferOutputStream()
        with pa.ipc.new_file(sink, t.schema) as w:
            w.write_table(t)
        payload = sink.getvalue().to_pybytes()
        name = hashlib.md5(payload).hexdigest()[:16] + ".arrow"
        with open(os.path.join(out_dir, name), "wb") as f:
            f.write(payload)
        return pa.table(
            {
                "path": pa.array([name], pa.string()),
                "rows": pa.array([len(t)], pa.int64()),
            }
        )

    ds.map_batches(write_batch, batch_format="pyarrow").materialize()
    return out_dir


def read_ipc(path: str):
    """Arrow IPC directory -> streaming Dataset: file-driven
    parallelism via ``read_binary_files`` (one task per file), each
    payload opened zero-parse with ``pa.ipc.open_file``."""
    import pyarrow as pa
    import pyarrow.ipc
    import ray.data as rd

    def parse(t: pa.Table) -> pa.Table:
        tabs = [
            pa.ipc.open_file(pa.BufferReader(b)).read_all()
            for b in t["bytes"].to_pylist()
        ]
        tabs = [x for x in tabs if len(x)]
        if not tabs:
            return pa.table({})
        return pa.concat_tables(tabs)

    return rd.read_binary_files(path).map_batches(
        parse, batch_format="pyarrow"
    )


def write_csv(ds, out_dir: str) -> str:
    """Dataset -> CSV, one file per block (header per file)."""
    ds.write_csv(fresh_dir(out_dir))
    return out_dir


def read_csv(path: str, **kwargs):
    import ray.data as rd

    return rd.read_csv(path, **kwargs)


def roundtrip_source_stats(sf_dir: str, fmt: str = "jsonl"):
    """Per-source doc count + total chars computed THROUGH a
    JSONL/CSV write-read roundtrip of the documents table — proves the
    interchange sink+source end to end (schema, typing, row fidelity);
    the SQL twin reads the original parquet directly, so any roundtrip
    corruption breaks the value hash.

    Scale shape: the roundtrip is block-parallel file IO (no shuffle);
    the stats tail is the shuffle-free bounded combine.
    """
    import pyarrow as pa
    import ray.data as rd

    from autoner_ray.stages.combine import bounded_key_sum

    tag = os.path.basename(os.path.normpath(sf_dir))
    out = f"/tmp/autoner_ray_io/{fmt}_docs_{tag}"
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "source", "lang", "n_chars"],
    )
    if fmt == "jsonl":
        write_jsonl(ds, out)
        back = read_jsonl(out)
    elif fmt == "jsonl_gz":
        write_jsonl_gz(ds, out)
        back = read_jsonl(out)  # .jsonl.gz is in read_json's default
        # extension list; decompression is inferred from the path
    elif fmt == "csv":
        write_csv(ds, out)
        back = read_csv(out)
    elif fmt == "ipc":
        write_ipc(ds, out)
        back = read_ipc(out)
    else:  # pragma: no cover - caller bug
        raise ValueError(fmt)

    def partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "n_docs": pa.array([], pa.int64()),
                    "sum_chars": pa.array([], pa.int64()),
                }
            )
        agg = (
            t.select(["source", "n_chars"])
            .group_by("source")
            .aggregate([("n_chars", "count"), ("n_chars", "sum")])
        )
        return agg.rename_columns(["source", "n_docs", "sum_chars"])

    return bounded_key_sum(
        back.map_batches(partial, batch_format="pyarrow"),
        ["source"], ["n_docs", "sum_chars"],
    )


def parquet_partitioned_stats(sf_dir: str):
    """Per-language doc count + total chars computed THROUGH a
    hive-partitioned Parquet write-read roundtrip
    (``write_parquet(partition_cols=["lang"])`` -> one directory per
    language, files per block inside — the resumable layout where a
    re-run skips finished partitions). The SQL twin reads the original
    table directly, so partition-column round-trip loss (hive values
    come back from the PATH, not the file) breaks the value hash.

    Scale shape: block-parallel file IO, no shuffle; bounded combine
    tail."""
    import pyarrow as pa
    import ray.data as rd

    from autoner_ray.stages.combine import bounded_key_sum

    tag = os.path.basename(os.path.normpath(sf_dir))
    out = f"/tmp/autoner_ray_io/hive_docs_{tag}"
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "n_chars"],
    )
    ds.write_parquet(fresh_dir(out), partition_cols=["lang"])
    back = rd.read_parquet(out)

    def partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "lang": pa.array([], pa.string()),
                    "n_docs": pa.array([], pa.int64()),
                    "sum_chars": pa.array([], pa.int64()),
                }
            )
        agg = (
            pa.table(
                {
                    "lang": pc_cast_str(t["lang"]),
                    "n_chars": t["n_chars"],
                }
            )
            .group_by("lang")
            .aggregate([("n_chars", "count"), ("n_chars", "sum")])
        )
        return agg.rename_columns(["lang", "n_docs", "sum_chars"])

    return bounded_key_sum(
        back.map_batches(partial, batch_format="pyarrow"),
        ["lang"], ["n_docs", "sum_chars"],
    )


def pc_cast_str(col):
    """Hive partition columns read back as dictionary<string>; restore
    plain string so the group key matches the oracle's."""
    import pyarrow as pa
    import pyarrow.compute as pc

    col = col.combine_chunks() if hasattr(col, "combine_chunks") else col
    if pa.types.is_dictionary(col.type):
        col = pc.cast(col, pa.string())
    return pc.cast(col, pa.string())


def parquet_partitioned_stats_oracle_sql() -> str:
    return """
        SELECT lang, COUNT(*) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS sum_chars
        FROM documents GROUP BY lang
    """


def bucketed_parquet_stats(sf_dir: str, n_buckets: int = 16):
    """Per-bucket doc count + total chars computed THROUGH a
    hash-bucketed Parquet write-read roundtrip: docs land in
    ``n_buckets`` directories by a content hash of doc_id (first hex
    digit of md5 — the same function the SQL twin computes), the
    CLUSTER-BY layout that lets a downstream bucket join or point
    lookup open 1/n of the files. The twin recomputes buckets from the
    original table, so any routing or fidelity error breaks the hash.

    Scale shape: one stateless map assigns buckets, one partitioned
    write (files per block inside each bucket directory — resumable),
    stats stream back through the bounded combine."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from autoner_ray.stages.combine import bounded_key_sum

    tag = os.path.basename(os.path.normpath(sf_dir))
    out = f"/tmp/autoner_ray_io/bucketed_docs_{tag}"
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )

    def assign(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_chars": pa.array([], pa.int64()),
                    "bucket": pa.array([], pa.int64()),
                }
            )
        import hashlib

        b = [
            int(hashlib.md5(str(d).encode()).hexdigest()[0], 16)
            % n_buckets
            for d in t["doc_id"].to_pylist()
        ]
        return t.append_column("bucket", pa.array(b, pa.int64()))

    ds.map_batches(assign, batch_format="pyarrow").write_parquet(
        fresh_dir(out), partition_cols=["bucket"]
    )
    back = rd.read_parquet(out)

    def partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "bucket": pa.array([], pa.int64()),
                    "n_docs": pa.array([], pa.int64()),
                    "sum_chars": pa.array([], pa.int64()),
                }
            )
        bucket = pc.cast(pc_cast_str(t["bucket"]), pa.int64())
        agg = (
            pa.table({"bucket": bucket, "n_chars": t["n_chars"]})
            .group_by("bucket")
            .aggregate([("n_chars", "count"), ("n_chars", "sum")])
        )
        return agg.rename_columns(["bucket", "n_docs", "sum_chars"])

    return bounded_key_sum(
        back.map_batches(partial, batch_format="pyarrow"),
        ["bucket"], ["n_docs", "sum_chars"],
    )


def bucketed_parquet_stats_oracle_sql(n_buckets: int = 16) -> str:
    return f"""
        SELECT (strpos('0123456789abcdef',
                       substr(md5(CAST(doc_id AS VARCHAR)), 1, 1)) - 1)
                   % {n_buckets} AS bucket,
               COUNT(*) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS sum_chars
        FROM documents GROUP BY 1
    """


def schema_evolution_read(sf_dir: str,
                          out_dir: str = "/tmp/schema_evo_shards"):
    """Schema-evolution ingestion proof — the v1/v2 shard mix every
    long-lived crawl store accumulates: even doc_ids write as a V1
    shard (doc_id, text — no ``lang`` column yet), odd doc_ids as a V2
    shard (doc_id, text, lang); the reader unifies both under the V2
    schema with nulls for the missing column. Output one row per
    schema version: (schema_version, n_docs, n_null_lang, n_chars_sum)
    — the null count proving the fill and the char sum proving no row
    was lost or duplicated through the roundtrip.

    Scale shape: shard writes/reads stream block-wise
    (``write_parquet`` per split); the census is a stateless partial +
    bounded combine keyed by the 2-value version column."""
    import pyarrow.compute as pc

    import ray.data as rd

    from autoner_ray.stages.combine import bounded_key_sum

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    v1_dir = fresh_dir(f"{out_dir}/v1")
    v2_dir = fresh_dir(f"{out_dir}/v2")

    def v1_rows(t: pa.Table) -> pa.Table:
        keep = pc.equal(pc.bit_wise_and(t["doc_id"], 1), 0)
        return pa.table(
            {
                "doc_id": t["doc_id"].filter(keep),
                "text": t["text"].filter(keep),
            }
        )

    def v2_rows(t: pa.Table) -> pa.Table:
        keep = pc.equal(pc.bit_wise_and(t["doc_id"], 1), 1)
        return t.filter(keep)

    docs.map_batches(v1_rows, batch_format="pyarrow").write_parquet(v1_dir)
    docs.map_batches(v2_rows, batch_format="pyarrow").write_parquet(v2_dir)
    # unified read: V1 blocks gain a null lang column, then both
    # shard streams union under one schema
    v1 = rd.read_parquet(v1_dir).map_batches(
        lambda t: t.append_column(
            "lang", pa.nulls(len(t), pa.string())
        ).append_column(
            "schema_version", pa.array([1] * len(t), pa.int64())
        ),
        batch_format="pyarrow",
    )
    v2 = rd.read_parquet(v2_dir).map_batches(
        lambda t: t.select(["doc_id", "text", "lang"]).append_column(
            "schema_version", pa.array([2] * len(t), pa.int64())
        ),
        batch_format="pyarrow",
    )
    unified = v1.union(v2)

    _c_schema = pa.schema(
        [("schema_version", pa.int64()), ("n_docs", pa.int64()),
         ("n_null_lang", pa.int64()), ("n_chars_sum", pa.int64())]
    )

    def census(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _c_schema.empty_table()
        import pandas as pd

        df = pd.DataFrame(
            {
                "schema_version": t["schema_version"].to_numpy(
                    zero_copy_only=False
                ),
                "null_lang": pc.is_null(t["lang"]).to_numpy(
                    zero_copy_only=False
                ).astype("int64"),
                "n_chars": pc.utf8_length(t["text"]).to_numpy(
                    zero_copy_only=False
                ).astype("int64"),
            }
        )
        g = df.groupby("schema_version", as_index=False).agg(
            n_docs=("null_lang", "size"),
            n_null_lang=("null_lang", "sum"),
            n_chars_sum=("n_chars", "sum"),
        )
        return pa.Table.from_pandas(
            g, schema=_c_schema, preserve_index=False
        ).replace_schema_metadata(None)

    return bounded_key_sum(
        unified.map_batches(census, batch_format="pyarrow",
                            batch_size=65536),
        keys=["schema_version"],
        sum_cols=["n_docs", "n_null_lang", "n_chars_sum"],
    )
