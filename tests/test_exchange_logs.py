"""The exchange keeps one schema per operator on the curation jobs: Ray
Data logs "Operator produced a RefBundle with a different schema" when
an operator's output blocks change schema, which zero-column blocks
from empty shuffle reducers used to trigger."""

from __future__ import annotations

import importlib.util
import logging
from pathlib import Path

ENTRY = Path(__file__).resolve().parents[1] / "__ray_entry__.py"
SF = "/root/testdata/sf0.01"


class _Messages(logging.Handler):
    def __init__(self) -> None:
        super().__init__()
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


def test_curation_jobs_log_no_schema_divergence(ray_session):
    spec = importlib.util.spec_from_file_location(
        "__ray_entry___under_test", ENTRY
    )
    entry = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(entry)
    queries = entry.queries()

    handler = _Messages()
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    try:
        for name in ("docs_curation_pipeline", "docs_neardup_keep_one"):
            assert len(queries[name](SF).to_pandas()) > 0, name
    finally:
        logger.removeHandler(handler)
    diverged = [m for m in handler.messages if "different schema" in m]
    assert not diverged, diverged[:3]
