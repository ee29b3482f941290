"""On-disk trace cache: roundtrip, atomicity fallback, cap eviction."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro._env import int_knob
from repro.core import tracecache


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_TRACE_CACHE_CAP_MB", raising=False)
    tracecache.STATS.reset()
    return tmp_path


def sample_arrays():
    return {
        "offsets": np.arange(10, dtype=np.int64),
        "mask": np.array([True, False, True]),
    }


KEY = "a" * 64
OTHER = "b" * 64


class TestRoundtrip:
    def test_store_then_load(self, cache_dir):
        assert tracecache.store(KEY, "unit", sample_arrays())
        loaded = tracecache.load(KEY, "unit")
        assert loaded is not None
        assert set(loaded) == {"offsets", "mask"}
        np.testing.assert_array_equal(loaded["offsets"], np.arange(10))
        np.testing.assert_array_equal(
            loaded["mask"], np.array([True, False, True])
        )
        assert tracecache.STATS.stores == 1
        assert tracecache.STATS.hits == 1

    def test_miss_on_unknown_key(self, cache_dir):
        assert tracecache.load(KEY, "unit") is None
        assert tracecache.STATS.misses == 1

    def test_key_prefix_collision_is_miss(self, cache_dir):
        """A file whose name matches but whose stored key differs must
        not be served."""
        tracecache.store(KEY, "unit", sample_arrays())
        path = next(cache_dir.glob("*.npz"))
        forged = cache_dir / path.name.replace(KEY[:16], OTHER[:16])
        path.rename(forged)
        assert tracecache.load(OTHER, "unit") is None

    def test_disabled_by_env(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        assert tracecache.store(KEY, "unit", sample_arrays()) is False
        assert tracecache.load(KEY, "unit") is None
        assert list(cache_dir.iterdir()) == []


class TestRobustness:
    def test_corrupt_file_is_miss_and_removed(self, cache_dir):
        tracecache.store(KEY, "unit", sample_arrays())
        path = next(cache_dir.glob("*.npz"))
        path.write_bytes(b"not an npz payload")
        assert tracecache.load(KEY, "unit") is None
        assert not path.exists()
        assert tracecache.STATS.errors == 1

    def test_store_failure_is_swallowed(self, cache_dir, monkeypatch):
        monkeypatch.setenv(
            "REPRO_TRACE_CACHE", str(cache_dir / "file-not-dir")
        )
        (cache_dir / "file-not-dir").write_text("occupied")
        assert tracecache.store(KEY, "unit", sample_arrays()) is False


class TestEviction:
    def test_cap_evicts_oldest(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_CAP_MB", "1")
        big = {"blob": np.zeros(100_000, dtype=np.int64)}  # ~0.8 MiB
        tracecache.store("c" * 64, "first", big)
        first = next(cache_dir.glob("first-*.npz"))
        # Backdate so mtime ordering is unambiguous.
        import os

        os.utime(first, (1, 1))
        tracecache.store("d" * 64, "second", big)
        assert tracecache.STATS.evictions >= 1
        assert not first.exists()
        assert tracecache.load("d" * 64, "second") is not None


class TestCapKnob:
    @pytest.fixture(autouse=True)
    def fresh_parse(self):
        int_knob.cache_clear()
        yield
        int_knob.cache_clear()

    def test_unset_and_integer_values(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_CACHE_CAP_MB", raising=False)
        assert tracecache.cache_cap_bytes() == (
            tracecache.DEFAULT_CAP_MB << 20
        )
        monkeypatch.setenv("REPRO_TRACE_CACHE_CAP_MB", "3")
        assert tracecache.cache_cap_bytes() == 3 << 20
        monkeypatch.setenv("REPRO_TRACE_CACHE_CAP_MB", "0")
        assert tracecache.cache_cap_bytes() == 0

    def test_malformed_value_warns_once_and_keeps_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_CAP_MB", "lots")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert tracecache.cache_cap_bytes() == (
                tracecache.DEFAULT_CAP_MB << 20
            )
            assert tracecache.cache_cap_bytes() == (
                tracecache.DEFAULT_CAP_MB << 20
            )
        assert len(caught) == 1
        assert "REPRO_TRACE_CACHE_CAP_MB='lots'" in str(caught[0].message)
        # A different bad value warns again.
        monkeypatch.setenv("REPRO_TRACE_CACHE_CAP_MB", "1.5")
        with pytest.warns(UserWarning, match="REPRO_TRACE_CACHE_CAP_MB"):
            tracecache.cache_cap_bytes()
