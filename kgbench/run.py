"""Seeded benchmark for the KG pipelines (and the curation stages).

    python3 kgbench/run.py --workload kg_flagship --seed 1 --seconds 12 --trace 0

One run: generate the workload's corpus from ``--seed`` into a fresh run
directory, compute the oracle, start a Ray session as wide as ``nproc``
(OpenMP/BLAS pinned to the same count), then

* ``--trace 0``: set up the session ``SETUP_CYCLES`` times (each cycle =
  ``ray.init`` + engine import + one warm-up job; the median is
  ``setup_s``), then run jobs in a closed loop with one client for
  ``--seconds`` and report ``docs_per_s`` (docs x jobs / summed job
  wall) and ``peak_rss_mb`` (summed VmHWM of the Ray process tree);
* ``--trace 1``: time the fixed costs, run the same closed loop, one
  traced job, then call each layer's public functions in-process on the
  same input and report the per-layer metrics (``kgbench/layers.py``).

Stdout carries two JSON lines: a run description (host fingerprint,
every job and set-up wall, their ``job_s_p50``, error rate = failed /
attempted, log path) and, last, the result ``{"correct", "attempted",
"failed", "metrics"}``. ``job_s_p50`` and ``error_rate`` are not result
metrics: the median of ~12 jobs spread twice as wide between runs as
their mean (``docs_per_s``), and the error rate is 0 when all is well
and is already carried by ``failed`` / ``attempted``.
Ray's own output goes to ``run.log`` in the run directory. The run
exits non-zero and prints nothing when it cannot produce a result
(engine missing, stale raylet, deadline). It may be started from any
working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("kg_flagship", "kg_hybrid", "kg_resumable")
SETUP_CYCLES = 2
DEADLINE_S = 150  # set-up and measuring; teardown has TEARDOWN_S more
TEARDOWN_S = 10


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Session:
    """Ray session lifecycle for one run: start, restart, stop."""

    def __init__(self, cpus: int, env: dict[str, str], temp_dir: str):
        self.cpus, self.env, self.temp_dir = cpus, env, temp_dir

    def start(self) -> None:
        from kgbench import host

        host.start_ray(ROOT, self.cpus, self.temp_dir, self.env)
        from autoner_ray.cluster import tune_data_context

        tune_data_context()

    def stop(self) -> None:
        from kgbench import host

        if "ray" in sys.modules and sys.modules["ray"].is_initialized():
            sys.modules["ray"].shutdown()
        host.wait_children_gone(os.getpid())


def import_engine() -> float:
    """Import every engine module a job touches; returns the seconds."""
    t0 = time.perf_counter()
    import autoner_ray.pipelines.checkpoint  # noqa: F401
    import autoner_ray.pipelines.curation  # noqa: F401
    import autoner_ray.pipelines.kg  # noqa: F401
    import autoner_ray.stages.tagger_stage  # noqa: F401

    return time.perf_counter() - t0


def closed_loop(wl, ctx, expected, tally, seconds: float) -> list[float]:
    """Jobs back to back with one client until ``seconds`` have passed;
    job ``i`` runs with the Ray workers pinned to the i-th allowed CPU
    (round robin, see ``host.pin``). Returns the job walls."""
    from kgbench import host
    from kgbench.workloads import attempt

    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    walls: list[float] = []
    t_loop = time.perf_counter()
    try:
        while not walls or time.perf_counter() - t_loop < seconds:
            cpu = cpus[len(walls) % len(cpus)]
            host.pin(os.getpid(), {cpu}, (allowed - {cpu}) or allowed)
            walls.append(attempt(wl, ctx, expected, tally)[0])
    finally:
        host.pin(os.getpid(), allowed, allowed)
    return walls


def measure(wl, ctx, expected, tally, session, seconds: float) -> dict:
    """End-to-end metrics: set-up cycles, then the closed job loop."""
    from kgbench import host
    from kgbench.workloads import attempt

    import_s = import_engine()
    setups = []
    for cycle in range(SETUP_CYCLES):
        if cycle:
            session.stop()
        t0 = time.perf_counter()
        session.start()
        attempt(wl, ctx, expected, tally)
        # a re-import in the same process is free, so every cycle is
        # charged the import cost this fresh process paid once
        setups.append(time.perf_counter() - t0 + import_s)
        _log_phase(f"setup cycle {cycle}: {setups[-1]:.3f} s")

    walls = closed_loop(wl, ctx, expected, tally, seconds)
    rss = host.peak_rss_mb(os.getpid())
    return {
        "metrics": {
            "docs_per_s": {
                "value": wl.n_docs * len(walls) / sum(walls), "unit": "docs/s"
            },
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
        "job_walls": walls,
        "setup_walls": setups,
    }


_T0 = time.perf_counter()


def _log_phase(what: str) -> None:
    print(f"[{time.perf_counter() - _T0:8.3f} s] {what}", flush=True)


def _on_alarm(signum, frame):
    from kgbench.host import BenchTimeout

    raise BenchTimeout("run hit its deadline")


def main(argv=None) -> int:
    args = parse_args(argv)
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from kgbench import host

    cpus = host.nproc()
    env = host.pin_threads(cpus)  # before numpy loads anywhere
    run_dir = os.path.join(
        ROOT, ".kgbench_out",
        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}",
    )
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    log_path = os.path.join(run_dir, "run.log")
    spans_path = os.path.join(run_dir, "spans.json") if args.trace else None

    out = os.fdopen(os.dup(1), "w")
    log = open(log_path, "a")
    os.dup2(log.fileno(), 1)
    os.dup2(log.fileno(), 2)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)

    temp_dir = host.ray_temp_dir(ROOT)
    session = Session(cpus, env, temp_dir)
    before = set(os.listdir(temp_dir))
    report = None
    try:
        host.check_no_stale_raylet(temp_dir)
        from kgbench.corpus import generate, write_corpus
        from kgbench.workloads import WORKLOADS, JobContext, Tally, model_blob

        wl = WORKLOADS[args.workload]
        corpus_dir = os.path.join(run_dir, "corpus")
        write_corpus(generate(args.seed, wl.spec), corpus_dir)
        ctx = JobContext(
            corpus_dir, os.path.join(run_dir, "scratch"), model_blob(),
            args.seed,
        )
        _log_phase("corpus written")
        expected = wl.oracle(ctx)
        _log_phase("oracle computed")
        tally = Tally()
        if args.trace:
            from kgbench.layers import trace

            body = trace(
                wl, ctx, expected, tally, session, spans_path, args.seconds
            )
        else:
            body = measure(wl, ctx, expected, tally, session, args.seconds)
        _log_phase("measured")
        report = (
            {
                "workload": wl.name, "seed": args.seed, "trace": args.trace,
                "host": host.fingerprint(ROOT),
                "job_s_p50": statistics.median(body["job_walls"]),
                "job_walls": body["job_walls"],
                "setup_walls": body.get("setup_walls"),
                "error_rate": tally.error_rate,
                "log": log_path, "spans": spans_path,
            },
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": body["metrics"],
            },
        )
    except BaseException:
        traceback.print_exc()
    finally:
        signal.alarm(TEARDOWN_S)
        try:
            session.stop()
        except BaseException:
            report = None
            traceback.print_exc()
        finally:
            signal.alarm(0)
            host.kill_tree(os.getpid())
            for name in set(os.listdir(temp_dir)) - before:
                shutil.rmtree(os.path.join(temp_dir, name), ignore_errors=True)
            if temp_dir != os.path.join(ROOT, host.RAY_DIR):
                shutil.rmtree(temp_dir, ignore_errors=True)
            for sub in ("corpus", "scratch"):
                shutil.rmtree(os.path.join(run_dir, sub), ignore_errors=True)
            _log_phase("stopped")
            log.flush()
    if report is None:
        return 1
    for line in report:
        out.write(json.dumps(line) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
