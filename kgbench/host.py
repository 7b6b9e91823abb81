"""Host and Ray-session plumbing for one benchmark run.

Everything here reads ``/proc`` directly (psutil is not a dependency):
the process tree of the run, its summed peak RSS, and raylets left
behind by an earlier run of this benchmark. ``start_ray`` sizes the
session from the CPUs this process may run on and hands the repository
root to every worker through ``runtime_env``, so the engine imports in
workers whatever the driver's working directory is.
"""

from __future__ import annotations

import os
import platform
import signal
import subprocess
import time

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
OBJECT_STORE_BYTES = 512 * 1024 * 1024
RAY_DIR = ".kgbench_ray"  # Ray's session files, inside the checkout
# AF_UNIX socket paths are capped at 107 bytes; Ray puts its sockets at
# <temp_dir>/session_<date>_<time>_<us>_<pid>/sockets/plasma_store.
_MAX_RAY_TEMP_DIR = 40


class StaleRayletError(RuntimeError):
    """A raylet started by an earlier run of this benchmark is alive."""


class BenchTimeout(BaseException):
    """The run hit its wall-clock deadline (a BaseException, so that the
    per-job ``except Exception`` never swallows it)."""


def nproc() -> int:
    """What ``nproc`` prints: the CPUs this process may run on, capped by
    ``OMP_NUM_THREADS`` / ``OMP_THREAD_LIMIT`` when they are set."""
    try:
        out = subprocess.run(
            ["nproc"], capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass
    return len(os.sched_getaffinity(0))


def pin_threads(n: int) -> dict[str, str]:
    """Pin OpenMP/BLAS pools to ``n`` threads in this process's
    environment (call before numpy is imported); returns the settings
    for worker processes."""
    env = {v: str(n) for v in THREAD_VARS}
    os.environ.update(env)
    return env


def ray_temp_dir(root: str) -> str:
    """Ray's session directory: inside the checkout when the socket
    paths fit, else a fresh directory under the system temp dir (the
    caller removes it at exit)."""
    path = os.path.join(root, RAY_DIR)
    if len(path) <= _MAX_RAY_TEMP_DIR:
        os.makedirs(path, exist_ok=True)
        return path
    import tempfile

    return tempfile.mkdtemp(prefix="kgbray")


def start_ray(root: str, cpus: int, temp_dir: str, env: dict[str, str]):
    import ray

    ray.init(
        address="local",
        num_cpus=cpus,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _temp_dir=temp_dir,
        runtime_env={"env_vars": {**env, "PYTHONPATH": root}},
    )
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    return ray


# -- /proc -------------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        with open(path, "rb") as f:
            return f.read().decode(errors="replace")
    except OSError:
        return None


def _pids() -> list[int]:
    return [int(n) for n in os.listdir("/proc") if n.isdigit()]


def _ppid_map() -> dict[int, int]:
    out = {}
    for pid in _pids():
        stat = _read(f"/proc/{pid}/stat")
        if stat is None:
            continue
        # comm may hold spaces or parens; fields resume after the last ')'
        fields = stat[stat.rfind(")") + 2:].split()
        out[pid] = int(fields[1])
    return out


def descendants(pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for p, pp in _ppid_map().items():
        children.setdefault(pp, []).append(p)
    out, stack = [], [pid]
    while stack:
        for c in children.get(stack.pop(), ()):
            out.append(c)
            stack.append(c)
    return out


def _cmdline(pid: int) -> str:
    raw = _read(f"/proc/{pid}/cmdline") or ""
    return raw.replace("\0", " ")


def peak_rss_mb(pid: int) -> float:
    """Sum of ``VmHWM`` over ``pid`` and every live descendant."""
    total_kb = 0
    for p in [pid, *descendants(pid)]:
        status = _read(f"/proc/{p}/status") or ""
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


def pin(pid: int, workers: set[int], rest: set[int]) -> None:
    """Pin the idle Ray task workers under ``pid`` to the CPUs
    ``workers``, and ``pid`` with every other descendant (raylet, GCS,
    agents, Ray Data's helper actors, workers still starting) to
    ``rest``. Call it between jobs, when every task worker is idle.

    On a VM whose vCPUs run at different speeds (measured on a 4-vCPU
    VM: one at half the speed of the others, the rest within ±20%), a run
    whose worker happens to sit on a slow vCPU reads up to 2x slower.
    Rotating the worker over every allowed CPU, job by job, makes each
    run sample the same mix of vCPUs, so runs agree with each other.
    The driver stays off the worker's CPU because Ray Data's executor
    loop runs in the driver; so do the stats and autoscaling actors.
    """
    for p in [pid, *descendants(pid)]:
        # an idle task worker is titled "ray::IDLE"; an actor keeps
        # "ray::<ClassName>"
        mask = workers if _cmdline(p).strip() == "ray::IDLE" else rest
        try:
            os.sched_setaffinity(p, mask)
        except (ProcessLookupError, PermissionError):
            pass  # the process exited meanwhile


def check_no_stale_raylet(temp_dir: str) -> None:
    """Raise if a raylet whose session lives under ``temp_dir`` is alive
    and is not ours: it would share the CPU with this run."""
    mine = set(descendants(os.getpid()))
    for pid in _pids():
        if pid in mine:
            continue
        cmd = _cmdline(pid)
        if "raylet" in cmd and temp_dir in cmd:
            raise StaleRayletError(
                f"raylet pid {pid} from an earlier run is still alive "
                f"under {temp_dir}; stop it (ray stop --force) and rerun"
            )


def kill_tree(pid: int, grace_s: float = 5.0) -> None:
    """SIGTERM then SIGKILL every descendant of ``pid``; reap our own
    children and wait until none is left."""
    victims = descendants(pid)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for p in victims:
            try:
                os.kill(p, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            _reap()
            if not set(descendants(pid)) & set(victims):
                return
            time.sleep(0.05)


def _reap() -> None:
    while True:
        try:
            done, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if done == 0:
            return


def wait_children_gone(pid: int, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while descendants(pid) and time.monotonic() < deadline:
        _reap()
        time.sleep(0.05)


# -- fingerprint ---------------------------------------------------------------

def _git_sha(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(root: str) -> dict:
    import numpy
    import pyarrow
    import ray

    mem_kb = 0
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemTotal:"):
            mem_kb = int(line.split()[1])
    return {
        "nproc": nproc(),
        "os_cpu_count": os.cpu_count(),
        "ram_mb": mem_kb // 1024,
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
        "git_sha": _git_sha(root),
    }
