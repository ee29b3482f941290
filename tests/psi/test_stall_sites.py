"""PSI on a live simulator: every memstall bracket the fault path opens
is closed, including waits behind another thread's in-flight swap-in."""

from __future__ import annotations

from tests.conftest import make_small_system, run_threads, touch_all

from repro import observe
from repro.psi import PsiTracker


def _rounds(system, vma, n=3):
    for _ in range(n):
        yield from touch_all(system, vma)


def test_memstall_brackets_balance_with_concurrent_faulters():
    eng, system, vma = make_small_system(
        policy_name="clock", capacity=64, heap_pages=192, start=False
    )
    tracker = PsiTracker(eng)
    thrash_waits = []

    def spy(kind, cg, page):
        if kind == "inflight_wait" and page.swap_slot is not None:
            thrash_waits.append(page.vpn)

    tracker.attach(system)
    observe.attach("stall_begin", spy)
    try:
        system.start()
        threads = run_threads(
            eng, system, [_rounds(system, vma) for _ in range(4)]
        )
    finally:
        observe.detach("stall_begin", spy)
        tracker.detach()
    tracker.finalize(eng.now)

    # Four threads re-touching one evicted heap wait behind each
    # other's swap-ins: the thrashing memstall is exercised.
    assert thrash_waits
    sg = tracker.system
    assert sg.nr_stalled == 0
    assert all(t.in_memstall == 0 for t in threads)
    assert 0 < sg.full_total_ns <= sg.some_total_ns
