"""Run isolation: any working directory, no engine, stale raylets."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from kgbench import host
from kgbench.run import ROOT


def _run(cwd, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "kgbench", "run.py"),
         "--workload", "kg_resumable", "--seed", "5", "--seconds", "1",
         "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_runs_from_filesystem_root():
    proc = _run("/")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 2
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert json.loads(lines[0])["error_rate"] == 0.0
    assert not host.descendants(os.getpid())


def test_fails_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "kgbench"), tmp_path / "kgbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run(str(tmp_path), str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_stale_raylet_is_a_named_error(monkeypatch):
    monkeypatch.setattr(host, "_pids", lambda: [424242])
    monkeypatch.setattr(host, "descendants", lambda pid: [])
    monkeypatch.setattr(
        host, "_cmdline",
        lambda pid: "/x/raylet --session_dir=/ck/.kgbench_ray/session_1",
    )
    with pytest.raises(host.StaleRayletError, match="424242"):
        host.check_no_stale_raylet("/ck/.kgbench_ray")
    host.check_no_stale_raylet("/elsewhere/.kgbench_ray")
