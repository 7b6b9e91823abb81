"""BENCHMARK.json names exactly what the benchmark prints."""

import json
import os

from kgbench.layers import PER_LAYER
from kgbench.run import ROOT, WORKLOAD_NAMES
from kgbench.workloads import WORKLOADS


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_workloads_match():
    b = _bench()
    assert [w["name"] for w in b["workloads"]] == list(WORKLOAD_NAMES)
    assert sorted(WORKLOADS) == sorted(WORKLOAD_NAMES)
    for w in b["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


def test_per_layer_match():
    b = _bench()
    assert {m["name"]: m["unit"] for m in b["per_layer"]} == PER_LAYER


def test_end_to_end_names():
    names = [m["name"] for m in _bench()["end_to_end"]]
    assert names == ["docs_per_s", "setup_s", "peak_rss_mb"]
