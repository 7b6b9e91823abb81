"""Local replica of the driver's correctness gate.

Runs every ``queries()`` entry at the given sf_dir; where an
``oracle_sql()`` twin exists, compares row count, column-name set and
order-insensitive values against DuckDB. Exits non-zero on any mismatch.

Usage: python scripts/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd

# every oracle_sql() twin reads only this table
TABLES = ["documents"]


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1).copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64")
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(
        drop=True
    )
    return df


def compare(name: str, got: pd.DataFrame, want: pd.DataFrame) -> list[str]:
    errs = []
    if len(got) != len(want):
        errs.append(f"row count {len(got)} != {len(want)}")
    if sorted(got.columns) != sorted(want.columns):
        errs.append(f"columns {sorted(got.columns)} != {sorted(want.columns)}")
        return errs
    g, w = normalize(got), normalize(want)
    if len(g) == len(w):
        for c in g.columns:
            if pd.api.types.is_float_dtype(g[c]):
                ok = np.allclose(
                    g[c].fillna(-1e308), w[c].fillna(-1e308),
                    rtol=0, atol=0, equal_nan=True,
                )
                exact = (g[c].fillna(-1e308) == w[c].fillna(-1e308)).all()
                if not exact:
                    if ok:
                        errs.append(f"col {c}: allclose but not exact")
                    else:
                        bad = (g[c] != w[c]) & ~(g[c].isna() & w[c].isna())
                        errs.append(
                            f"col {c}: {bad.sum()} mismatches, e.g. "
                            f"{g[c][bad].head(3).tolist()} vs "
                            f"{w[c][bad].head(3).tolist()}"
                        )
            else:
                eq = (g[c] == w[c]) | (g[c].isna() & w[c].isna())
                if not eq.all():
                    bad = ~eq
                    errs.append(
                        f"col {c}: {bad.sum()} mismatches, e.g. "
                        f"{g[c][bad].head(3).tolist()} vs "
                        f"{w[c][bad].head(3).tolist()}"
                    )
    return errs


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=8,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{sf_dir}/{t}.parquet')"
        )

    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}",
                  flush=True)
            failures += 1
            continue
        dt = time.time() - t0
        sql = oracles.get(name)
        if sql is None:
            print(f"ok   {name}: rows={len(got)} (rows-only) "
                  f"[engine {dt:.1f}s]", flush=True)
            continue
        t0 = time.time()
        try:
            want = con.execute(sql).df()
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: oracle raised {e}", flush=True)
            failures += 1
            continue
        timing = f"[engine {dt:.1f}s | oracle {time.time() - t0:.1f}s]"
        errs = compare(name, got, want)
        if errs:
            failures += 1
            print(f"FAIL {name}: " + "; ".join(errs) + f" {timing}",
                  flush=True)
        else:
            print(f"ok   {name}: rows={len(got)} == oracle {timing}",
                  flush=True)
    ray.shutdown()
    print("FAILURES:", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
