"""Parsing of ``Dataset.stats()`` into stage and exchange metrics."""

import pytest

from kgbench.layers import PER_LAYER, parse_stats, stage_key

STATS = """\
Operator 1 ReadParquet->SplitBlocks(2): 1 tasks executed, 2 blocks produced in 0.01s
* Remote wall time: 289.15us min, 7.2ms max, 3.75ms mean, 7.49ms total
* Output num rows per block: 250 min, 250 max, 250 mean, 500 total

Operator 2 MapBatches(derive_pages_batch)->MapBatches(match_batch): 2 tasks executed, 2 blocks produced in 1.4s
* Remote wall time: 685.38ms min, 704.12ms max, 694.75ms mean, 1.39s total
* Output num rows per block: 300 min, 339 max, 319 mean, 639 total

Operator 3 Sort: executed in 1.56s

\tSuboperator 0 SortMap: 1 tasks executed, 1 blocks produced
\t* Remote wall time: 419.33us min, 419.33us max, 419.33us mean, 419.33us total
\t* Output num rows per block: 70 min, 70 max, 70 mean, 70 total

\tSuboperator 1 SortReduce: 1 tasks executed, 1 blocks produced
\t* Remote wall time: 234.13us min, 234.13us max, 234.13us mean, 234.13us total
\t* Output num rows per block: 66 min, 66 max, 66 mean, 66 total

Operator 4 MapBatches(fn): [execution cached]

Operator 5 MapBatches(combine): 1 tasks executed, 1 blocks produced in 0.03s
* Remote wall time: 30.3ms min, 30.3ms max, 30.3ms mean, 30.3ms total
* Output num rows per block: 66 min, 66 max, 66 mean, 66 total
"""


def test_parse_stats():
    m = parse_stats(STATS)
    assert set(m) <= set(PER_LAYER)
    assert m["stage.read.rows_out"] == 500
    assert m["stage.match_batch.wall_s"] == pytest.approx(1.39)
    assert m["stage.match_batch.tasks"] == 2
    assert m["stage.sort.tasks"] == 2
    assert m["stage.sort.rows_out"] == 66
    assert m["stage.combine.rows_out"] == 66
    assert m["stage.combine.tasks"] == 1  # the cached operator is skipped
    assert m["exchange.ops"] == 1
    assert m["exchange.rows"] == 66
    assert m["exchange.busy_s"] == pytest.approx(653.46e-6)
    assert m["stage.spilled_mb"] == 0


def test_spill_is_read_when_reported():
    m = parse_stats(STATS + "\nCluster memory:\n* Spilled to disk: 12.5MiB\n")
    assert m["stage.spilled_mb"] == pytest.approx(12.5)


def test_stage_key():
    assert stage_key("ReadParquet->SplitBlocks(2)") == "read"
    assert stage_key(
        "MapBatches(tokenize_pages_batch)->MapBatches(stage_batch)"
        "->MapBatches(add_part)"
    ) == "stage_batch"
    assert stage_key("MapBatches(precombine)->MapBatches(add_part)") \
        == "add_part"
    assert stage_key("Repartition") is None
