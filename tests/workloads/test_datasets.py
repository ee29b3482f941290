"""Dataset layer: memo modes, disk-cache path, shared-memory transport."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import tracecache
from repro.workloads import datasets, shm


@pytest.fixture(autouse=True)
def clean_state(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_DATASET_MEMO", raising=False)
    datasets.clear_process_state()
    tracecache.STATS.reset()
    yield
    datasets.clear_process_state()


def spec(name="unit", params="p1", legacy_cached=False):
    return datasets.DatasetSpec(
        name=name, params=params, seed=7, rng_path=(1, 2),
        legacy_cached=legacy_cached,
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
        assert len(datasets.memo_items()) == datasets.MEMO_CAP

    def test_legacy_mode_rebuilds_unless_legacy_cached(self, monkeypatch):
        monkeypatch.setenv("REPRO_DATASET_MEMO", "legacy")
        build = CountingBuilder()
        datasets.get_dataset(spec(), build)
        datasets.get_dataset(spec(), build)
        assert build.calls == 2  # pre-fast-lane: rebuilt per trial
        legacy = CountingBuilder()
        datasets.get_dataset(spec(params="q", legacy_cached=True), legacy)
        datasets.get_dataset(spec(params="q", legacy_cached=True), legacy)
        assert legacy.calls == 1  # single-slot cache, as before
        # Legacy mode never touches the disk cache.
        assert tracecache.STATS.stores == 0

    def test_legacy_single_slot_clears_on_key_change(self, monkeypatch):
        monkeypatch.setenv("REPRO_DATASET_MEMO", "legacy")
        build = CountingBuilder()
        datasets.get_dataset(spec(params="a", legacy_cached=True), build)
        datasets.get_dataset(spec(params="b", legacy_cached=True), build)
        datasets.get_dataset(spec(params="a", legacy_cached=True), build)
        assert build.calls == 3


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


class TestSharedMemory:
    def test_export_attach_roundtrip(self):
        arrays = {
            "a": np.arange(100, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 33),
            "c": np.array([True, False]),
        }
        server = shm.ShmServer()
        try:
            handle = server.export("k1", arrays)
            assert server.export("k1", arrays) is handle  # idempotent
            views = shm.attach_dataset(handle)
            assert set(views) == set(arrays)
            for name in arrays:
                np.testing.assert_array_equal(views[name], arrays[name])
                assert not views[name].flags.writeable
        finally:
            server.shutdown()

    def test_shutdown_unlinks_segments(self):
        server = shm.ShmServer()
        handle = server.export(
            "k2", {"x": np.arange(8, dtype=np.int64)}
        )
        server.shutdown()
        assert server.handles == {}
        # Fresh attach of an unlinked segment must fail...
        shm._ATTACHED.pop(handle.segment, None)
        with pytest.raises(FileNotFoundError):
            shm.attach_dataset(handle)

    def test_get_dataset_prefers_manifest(self):
        build = CountingBuilder()
        arrays = build()
        server = shm.ShmServer()
        try:
            s = spec(params="shm-test")
            handle = server.export(s.key, arrays)
            datasets.install_shm_manifest({s.key: handle})
            out = datasets.get_dataset(
                s, lambda: pytest.fail("should not rebuild")
            )
            np.testing.assert_array_equal(out["data"], arrays["data"])
        finally:
            server.shutdown()

    def test_manifest_miss_falls_back_to_build(self):
        build = CountingBuilder()
        server = shm.ShmServer()
        s = spec(params="gone")
        handle = server.export(s.key, build())
        server.shutdown()  # segment unlinked before the worker attaches
        shm._ATTACHED.pop(handle.segment, None)
        datasets.install_shm_manifest({s.key: handle})
        out = datasets.get_dataset(s, build)
        assert build.calls == 2
        np.testing.assert_array_equal(out["data"], np.arange(16))
