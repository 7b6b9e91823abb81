from pathlib import Path

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "requires_reference(path): the test reads this file or directory "
        "of the AutoNER reference checkout; skipped, naming the path, "
        "when it is absent",
    )


def pytest_collection_modifyitems(config, items):
    for item in items:
        for mark in item.iter_markers("requires_reference"):
            path = Path(mark.args[0])
            if not path.exists():
                item.add_marker(
                    pytest.mark.skip(
                        reason=f"reference data not present: {path}"
                    )
                )
                break


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from autoner_ray.cluster import tune_data_context

    tune_data_context()
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir() -> str:
    return "/root/testdata/sf0.001"


@pytest.fixture
def typed_blocks():
    """``check(ds, schema)``: every materialized block of ``ds`` that has
    columns has exactly the declared ``schema`` (metadata aside).
    Returns the number of zero-column blocks, which Ray emits for every
    zero-row block a map operator receives."""
    import ray

    def check(ds, schema) -> int:
        zero_column = 0
        for bundle in ds.iter_internal_ref_bundles():
            for ref in bundle.block_refs:
                block = ray.get(ref)
                if block.num_columns == 0:
                    zero_column += 1
                else:
                    assert block.schema.remove_metadata() == schema, (
                        block.schema
                    )
        return zero_column

    return check
