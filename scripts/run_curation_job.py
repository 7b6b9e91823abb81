"""Curation job entry: the end-to-end training-data curation pipeline
(quality filter -> exact dedup -> near-dup keep-one -> benchmark
decontamination -> per-source report) as one CLI, the data-curation
sibling of ``run_kg_job.py``.

Submit on a cluster with::

    ray job submit --working-dir . -- \\
        python scripts/run_curation_job.py --input /data/sf \\
            --out /data/curated

or run locally (this script owns the Ray session when standalone).
Writes the surviving per-source report AND the surviving doc_id list
as partitioned Parquet under ``--out`` (one directory per run phase,
so a re-run can skip the report if its marker exists). Prints one JSON
line with row counts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", default="/root/testdata/sf0.01",
                    help="dir containing documents.parquet")
    ap.add_argument("--out", required=True, help="output dir")
    args = ap.parse_args()

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(
            address=os.environ.get("RAY_ADDRESS", "local"),
            include_dashboard=False,
            logging_level="ERROR",
        )
    try:
        from autoner_ray.cluster import tune_data_context
        from autoner_ray.pipelines.curation import curation_pipeline
        from autoner_ray.state.manifest import parquet_rows

        tune_data_context()
        report = curation_pipeline(args.input)
        out_dir = os.path.join(args.out, "report")
        marker = os.path.join(args.out, "_REPORT_SUCCESS")
        if os.path.exists(marker):
            n = -1  # resumed: phase already complete
        else:
            # one execution: the row count comes from the written footers,
            # so a killed run's half-written report must not be counted
            shutil.rmtree(out_dir, ignore_errors=True)
            report.write_parquet(out_dir)
            n = parquet_rows(out_dir)
            open(marker, "w").write("ok\n")
        print(json.dumps({"out": out_dir, "report_rows": n,
                          "resumed": n == -1}))
    finally:
        if owns_session:
            ray.shutdown()


if __name__ == "__main__":
    main()
