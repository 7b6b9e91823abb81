"""Driver-contract invariants that are easy to silently regress."""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ENTRY = REPO / "__ray_entry__.py"


def _entry_module():
    spec = importlib.util.spec_from_file_location(
        "__ray_entry___under_test", ENTRY
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_driver_window_fully_oracle_backed():
    """The grading driver checks only the FIRST 50 queries() entries, so
    dict ORDER is load-bearing: every window seat must carry an oracle
    (the driver then hash-checks all 50). Oracle-backed queries BEYOND
    the window are fine — the local gate (scripts/check_correctness.py)
    validates those."""
    m = _entry_module()
    names = list(m.queries())
    oracles = set(m.oracle_sql())
    assert oracles <= set(names), "oracle without a query"
    window = names[:50]
    unbacked = [n for n in window if n not in oracles]
    assert not unbacked, f"window seats without an oracle: {unbacked}"


def test_no_ray_init_in_library():
    """The driver owns the Ray session: importing the entry module and
    building the query dict must never call ray.init (only bench.py,
    scripts and the test fixture may)."""
    # (the real no-ray.init proof is the clean-subprocess check below —
    # in-process the session may already exist from the test fixture)
    m = _entry_module()
    qs = m.queries()
    sqls = m.oracle_sql()
    assert len(qs) == 281 and len(sqls) == 266
    import subprocess
    import sys

    # clean-process proof: import + build dicts with ray uninitialized
    code = (
        "import importlib.util, ray\n"
        "spec = importlib.util.spec_from_file_location("
        f"'e', {str(ENTRY)!r})\n"
        "m = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(m)\n"
        "m.queries(); m.oracle_sql()\n"
        "assert not ray.is_initialized()\n"
        "print('clean')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, cwd=REPO,
    )
    assert out.returncode == 0 and "clean" in out.stdout, out.stderr[-500:]
