"""MemorySystem integration: the fault path, eviction mechanics,
watermark-driven reclaim, and the concurrency corner cases."""

import numpy as np
import pytest

from repro._units import PAGE_SIZE
from repro.errors import ConfigError, SimulationError
from tests.conftest import make_small_system, run_threads, touch_all


class TestFirstTouch:
    def test_minor_faults_on_first_touch(self):
        eng, system, vma = make_small_system(capacity=512, heap_pages=128)
        run_threads(eng, system, [touch_all(system, vma)])
        assert system.stats.minor_faults == 128
        assert system.stats.major_faults == 0
        assert system.stats.hits == 0

    def test_second_pass_hits(self):
        eng, system, vma = make_small_system(capacity=512, heap_pages=128)

        def body():
            yield from touch_all(system, vma)
            yield from touch_all(system, vma)

        run_threads(eng, system, [body()])
        assert system.stats.hits == 128

    def test_write_sets_dirty(self):
        eng, system, vma = make_small_system(capacity=512, heap_pages=16)
        run_threads(eng, system, [touch_all(system, vma, write=True)])
        page = system.address_space.page_table.lookup(vma.start_vpn)
        assert page.dirty and page.accessed and page.present

    def test_access_sets_accessed_bit(self):
        eng, system, vma = make_small_system(capacity=512, heap_pages=16)
        run_threads(eng, system, [touch_all(system, vma)])
        for vpn in range(vma.start_vpn, vma.end_vpn):
            assert system.address_space.page_table.lookup(vpn).accessed


class TestEvictionAndRefault:
    def test_oversubscription_triggers_eviction_and_majors(self):
        eng, system, vma = make_small_system(capacity=128, heap_pages=256)

        def body():
            yield from touch_all(system, vma)
            yield from touch_all(system, vma)

        run_threads(eng, system, [body()])
        assert system.stats.evictions > 0
        assert system.stats.major_faults > 0
        assert system.stats.minor_faults == 256

    def test_resident_never_exceeds_capacity(self):
        eng, system, vma = make_small_system(capacity=128, heap_pages=256)
        run_threads(eng, system, [touch_all(system, vma)])
        resident = sum(
            1
            for vpn in range(vma.start_vpn, vma.end_vpn)
            if system.address_space.page_table.lookup(vpn).present
        )
        assert resident <= 128
        assert resident == system.frames.n_used

    def test_frame_conservation(self):
        eng, system, vma = make_small_system(capacity=128, heap_pages=512)

        def body():
            yield from touch_all(system, vma, write=True)

        run_threads(eng, system, [body()])
        resident = sum(
            1
            for vpn in range(vma.start_vpn, vma.end_vpn)
            if system.address_space.page_table.lookup(vpn).present
        )
        assert system.frames.n_used == resident
        assert system.frames.n_free + system.frames.n_used == 128
        assert len(system.rmap) == resident

    def test_dirty_eviction_writes_to_device(self):
        eng, system, vma = make_small_system(capacity=128, heap_pages=256)
        run_threads(eng, system, [touch_all(system, vma, write=True)])
        assert system.swap_device.stats.writes > 0
        assert system.stats.dirty_evictions > 0

    def test_clean_refaulted_page_needs_no_second_write(self):
        """Swap-cache semantics: evict dirty -> refault (read) -> evict
        clean again should not write the device a second time."""
        eng, system, vma = make_small_system(capacity=128, heap_pages=192)

        def body():
            yield from touch_all(system, vma, write=True)  # fills + evicts
            yield from touch_all(system, vma, write=False)  # refaults clean
            yield from touch_all(system, vma, write=False)  # more churn

        run_threads(eng, system, [body()])
        stats = system.swap_device.stats
        # Reads happen; total writes are bounded by the dirty evictions,
        # strictly fewer than total evictions.
        assert stats.reads > 0
        assert stats.writes < system.stats.evictions

    def test_refault_counter_tracks_shadows(self):
        eng, system, vma = make_small_system(capacity=128, heap_pages=256)

        def body():
            yield from touch_all(system, vma)
            yield from touch_all(system, vma)

        run_threads(eng, system, [body()])
        assert system.stats.refaults > 0
        assert system.stats.refaults <= system.stats.major_faults


class TestReclaimContexts:
    def test_kswapd_background_reclaim_happens(self):
        eng, system, vma = make_small_system(capacity=256, heap_pages=512)

        def body():
            yield from touch_all(system, vma, compute_ns=5000)

        run_threads(eng, system, [body()])
        assert system.stats.background_reclaims > 0

    def test_direct_reclaim_stall_accounted(self):
        eng, system, vma = make_small_system(capacity=128, heap_pages=512)
        run_threads(eng, system, [touch_all(system, vma, compute_ns=0)])
        assert system.stats.direct_reclaims > 0
        assert system.stats.direct_reclaim_stall_ns > 0

    def test_free_frames_recover_above_min_after_run(self):
        eng, system, vma = make_small_system(capacity=200, heap_pages=400)

        def body():
            yield from touch_all(system, vma, compute_ns=2000)

        run_threads(eng, system, [body()])
        # kswapd keeps draining until the high watermark once woken.
        assert system.frames.n_free >= system.frames.min_watermark


class TestConcurrency:
    def test_concurrent_faults_on_same_page_coalesce(self):
        eng, system, vma = make_small_system(capacity=512, heap_pages=64)
        vpns = np.arange(vma.start_vpn, vma.end_vpn)

        def body():
            yield from system.access_run(vpns, compute_ns_per_access=0)

        run_threads(eng, system, [body() for _ in range(8)])
        # Each page must be zero-filled exactly once despite 8 racing
        # threads (inflight-fault coalescing).
        assert system.stats.minor_faults == 64

    def test_many_threads_thrash_without_corruption(self):
        eng, system, vma = make_small_system(capacity=96, heap_pages=256, seed=5)
        rng = np.random.default_rng(0)

        def body(tid):
            picks = vma.start_vpn + rng.integers(0, 256, 400)
            yield from system.access_run(picks, write=(tid % 2 == 0))

        run_threads(eng, system, [body(t) for t in range(6)])
        resident = sum(
            1
            for vpn in range(vma.start_vpn, vma.end_vpn)
            if system.address_space.page_table.lookup(vpn).present
        )
        assert system.frames.n_used == resident
        assert len(system.rmap) == resident


class TestConfigValidation:
    def test_tiny_capacity_rejected(self):
        with pytest.raises(ConfigError):
            make_small_system(capacity=8)

    def test_stats_snapshot_contains_totals(self):
        eng, system, vma = make_small_system(capacity=128, heap_pages=64)
        run_threads(eng, system, [touch_all(system, vma)])
        snap = system.stats.snapshot()
        assert snap["total_faults"] == snap["minor_faults"] + snap["major_faults"]
        assert snap["minor_faults"] == 64


class TestAccessRunInput:
    def test_unmapped_vpn_raises_naming_it(self):
        eng, system, vma = make_small_system(capacity=128, heap_pages=64)
        bad = vma.end_vpn + 1000
        vpns = np.array([vma.start_vpn, bad, vma.end_vpn + 2000])

        def body():
            yield from system.access_run(vpns)

        with pytest.raises(SimulationError, match=f"unmapped vpn {bad}$"):
            run_threads(eng, system, [body()])
        # Nothing was touched before the error.
        assert system.stats.minor_faults == 0

    def _thrash(self, as_list):
        eng, system, vma = make_small_system(capacity=96, heap_pages=256, seed=5)
        rng = np.random.default_rng(0)

        def body(tid):
            picks = vma.start_vpn + rng.integers(0, 256, 400)
            if as_list:
                picks = picks.tolist()
            yield from system.access_run(
                picks, write=(tid % 2 == 0), compute_ns_per_access=700
            )

        run_threads(eng, system, [body(t) for t in range(4)])
        return eng.now, system.stats.snapshot()

    def test_list_input_matches_ndarray_input(self):
        assert self._thrash(as_list=True) == self._thrash(as_list=False)
