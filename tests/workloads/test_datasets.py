"""Dataset layer: process memo and disk-cache path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import tracecache
from repro.workloads import datasets


@pytest.fixture(autouse=True)
def clean_state(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    datasets.clear_process_state()
    tracecache.STATS.reset()
    yield
    datasets.clear_process_state()


def spec(name="unit", params="p1"):
    return datasets.DatasetSpec(
        name=name, params=params, seed=7, rng_path=(1, 2)
    )


class CountingBuilder:
    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return {"data": np.arange(16, dtype=np.int64)}


class TestMemo:
    def test_second_lookup_hits_memo(self):
        build = CountingBuilder()
        first = datasets.get_dataset(spec(), build)
        second = datasets.get_dataset(spec(), build)
        assert build.calls == 1
        assert first is second
        assert not first["data"].flags.writeable

    def test_distinct_specs_build_separately(self):
        build = CountingBuilder()
        datasets.get_dataset(spec(params="p1"), build)
        datasets.get_dataset(spec(params="p2"), build)
        assert build.calls == 2

    def test_memo_cap_evicts_lru(self):
        build = CountingBuilder()
        keys = [spec(params=f"p{i}") for i in range(datasets.MEMO_CAP + 1)]
        for s in keys:
            datasets.get_dataset(s, build)
        datasets.MEMO_STATS.reset()
        for s in keys[1:]:
            datasets.get_dataset(s, build)
        assert datasets.MEMO_STATS.snapshot() == {
            "hits": datasets.MEMO_CAP, "misses": 0
        }
        datasets.get_dataset(keys[0], build)
        assert datasets.MEMO_STATS.misses == 1


class TestDiskPath:
    def test_cold_then_warm_process(self):
        """Simulate a fresh process by clearing the memo: the second
        lookup must come from disk, bit-identical."""
        build = CountingBuilder()
        first = datasets.get_dataset(spec(), build)
        datasets.clear_process_state()
        second = datasets.get_dataset(spec(), build)
        assert build.calls == 1
        assert tracecache.STATS.hits == 1
        np.testing.assert_array_equal(first["data"], second["data"])

