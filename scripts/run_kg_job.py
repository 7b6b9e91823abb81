"""North-rule job entry: the whole KG pipeline, resumable, as one CLI.

Submit on a cluster with::

    ray job submit --working-dir . -- \\
        python scripts/run_kg_job.py --input /data/sf --out /data/kg_out

or run locally (this script owns the Ray session when standalone). The
job is idempotent: rerunning after a kill resumes from the partition
manifest (``<out>/part=*/_SUCCESS``) and skips the graph phase if its
marker exists. Prints one JSON line with output location + manifest
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", default="/root/testdata/sf0.01",
                    help="dir containing documents.parquet")
    ap.add_argument("--out", required=True, help="output/checkpoint dir")
    ap.add_argument("--num-parts", type=int, default=8,
                    help="input partitions (power of 2)")
    ap.add_argument("--num-shards", type=int, default=16,
                    help="graph shard count")
    args = ap.parse_args()

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")
    try:
        import ray.data

        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

        from autoner_ray.cluster import tune_data_context
        from autoner_ray.pipelines.checkpoint import run_resumable_graph
        from autoner_ray.state import manifest as mf

        tune_data_context()
        shards = run_resumable_graph(
            args.input, args.out, args.num_parts, args.num_shards
        )
        records = mf.read_manifest(args.out, args.num_parts)
        # partitions of one wave share its execution and its wall
        wave_walls = {
            tuple(r["lineage"].get("wave", [r["partition"]])):
                r["metrics"]["wall_sec"]
            for r in records
        }
        print(json.dumps({
            "graph_shards": shards,
            "partitions_committed": len(records),
            "pair_rows": sum(r["metrics"]["rows"] for r in records),
            "partition_wall_sec": round(sum(wave_walls.values()), 2),
        }))
    finally:
        if owns_session:
            ray.shutdown()


if __name__ == "__main__":
    main()
