"""Per-partition checkpoint manifest + lineage (north rule: resumable).

Generalizes the reference's file-existence idiom (`autoner_train.sh:29,47`
skips completed artifacts by checking paths) into a partition manifest:

- Work is split into deterministic PARTITIONS (groups of input files).
- Each partition's output is written to ``out_dir/part=NNNNN/`` via an
  atomic tmp-dir + ``os.rename``; a ``_SUCCESS`` JSON inside carries the
  lineage (input files, engine version, row count, wall seconds).
- On resume, completed partitions are exactly those with a valid
  ``_SUCCESS`` marker — the pending set is the anti-join, so a killed run
  re-does only unfinished work and half-written tmp dirs are ignored
  (and swept).

The manifest is the single source of truth; partition ids derive from
input content (sorted file list), never from execution order, so any
number of concurrent or restarted drivers converge on the same layout.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid

ENGINE_VERSION = "autoner-ray/0.1"
SUCCESS = "_SUCCESS"


def partition_name(idx: int) -> str:
    return f"part={idx:05d}"


def partition_dir(out_dir: str, idx: int) -> str:
    return os.path.join(out_dir, partition_name(idx))


def is_complete(out_dir: str, idx: int) -> bool:
    marker = os.path.join(partition_dir(out_dir, idx), SUCCESS)
    if not os.path.exists(marker):
        return False
    try:
        with open(marker) as f:
            json.load(f)
        return True
    except (json.JSONDecodeError, OSError):
        return False


def pending_partitions(out_dir: str, num_parts: int) -> list[int]:
    """Anti-join: all partition ids minus those with a valid marker."""
    return [i for i in range(num_parts) if not is_complete(out_dir, i)]


def sweep_tmp(out_dir: str, older_than_sec: float = 3600.0) -> None:
    """Remove half-written tmp dirs left by a KILLED run.

    Only dirs whose mtime is older than ``older_than_sec`` are removed: a
    concurrently-running driver's tmp dir is being actively written (its
    mtime is recent), so sweeping it would make the victim's
    ``os.rename`` fail mid-commit. Fresh orphans cost only disk until the
    next sweep ages them out — correctness never depends on sweeping,
    because resume reads ``_SUCCESS`` markers, not tmp dirs.
    """
    if not os.path.isdir(out_dir):
        return
    now = time.time()
    for name in os.listdir(out_dir):
        if not name.startswith("_tmp-"):
            continue
        path = os.path.join(out_dir, name)
        try:
            age = now - os.path.getmtime(path)
        except OSError:
            continue
        if age > older_than_sec:
            shutil.rmtree(path, ignore_errors=True)


def commit_partition(
    out_dir: str,
    idx: int,
    write_fn,
    lineage: dict,
) -> dict:
    """Run ``write_fn(tmp_dir)`` then atomically rename into place.

    ``write_fn`` writes the partition payload (e.g. ``ds.write_parquet``)
    into the tmp dir it is given and returns per-partition metrics (at
    minimum ``rows``, summed from the footers of the Parquet it wrote by
    :func:`parquet_rows`, so the plan is not executed a second time to
    count it). ``wall_sec`` is the wall of ``write_fn`` unless it
    reports its own (for work run before the commit). The ``_SUCCESS``
    marker is written inside the tmp dir BEFORE the rename, so a visible
    ``part=NNNNN/`` dir always has its marker — there is no window where
    a complete-looking dir lacks one.
    """
    os.makedirs(out_dir, exist_ok=True)
    tmp = os.path.join(out_dir, f"_tmp-{idx:05d}-{uuid.uuid4().hex[:8]}")
    os.makedirs(tmp)
    t0 = time.perf_counter()
    metrics = write_fn(tmp) or {}
    record = {
        "partition": idx,
        "engine_version": ENGINE_VERSION,
        "lineage": lineage,
        "metrics": {"wall_sec": round(time.perf_counter() - t0, 3), **metrics},
    }
    with open(os.path.join(tmp, SUCCESS), "w") as f:
        json.dump(record, f)
    final = partition_dir(out_dir, idx)
    if os.path.exists(final):  # lost a race with a concurrent driver — ok
        shutil.rmtree(tmp, ignore_errors=True)
    else:
        os.rename(tmp, final)
    return record


def parquet_rows(path: str) -> int:
    """Rows in the Parquet files under ``path``, summed from their
    footers (no data pages are read); 0 when ``path`` does not exist,
    as after a ``write_parquet`` of an empty dataset."""
    if not os.path.isdir(path):
        return 0
    import pyarrow.dataset as pads

    return pads.dataset(path, format="parquet").count_rows()


def read_manifest(out_dir: str, num_parts: int) -> list[dict]:
    """All committed partition records (lineage + metrics)."""
    out = []
    for i in range(num_parts):
        marker = os.path.join(partition_dir(out_dir, i), SUCCESS)
        if os.path.exists(marker):
            with open(marker) as f:
                out.append(json.load(f))
    return out
