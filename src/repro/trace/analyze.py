"""Offline analyses over one :class:`~repro.trace.session.TraceCapture`.

Three views the paper's characterization leans on:

- **Refault-distance histogram** — log2-bucketed time between an
  eviction and the page's next fault (``mm_vmscan_refault``).  Short
  distances mean the policy is evicting its own working set; the
  shape separates thrash from healthy capacity misses.
- **Cost breakdown** — where reclaim CPU/wait time went: linear PTE
  scanning vs reverse-map walks vs swap-device I/O vs direct-reclaim
  stalls.  Computed from the vmstat final row plus the trial's cost
  constants (stashed in ``capture.meta``), mirroring the scan-cheap /
  rmap-expensive tradeoff the paper attributes MG-LRU's wins to.
- **Timeline summary** — the vmstat series resampled into coarse
  buckets, showing fault/eviction rates and the free-frame sawtooth
  over the life of the trial.

``summarize`` renders all three as the text report the
``python -m repro.trace`` CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.trace.session import TraceCapture


@dataclass
class RefaultHistogram:
    """Log2-bucketed inter-refault distances (nanoseconds).

    ``major``/``minor`` split the pooled distances by the *cost of the
    eviction the refault undoes*: a **major** refault follows an
    eviction that paid a device write-back (dirty page), a **minor**
    refault follows a clean drop (the swap copy was still valid, so
    the eviction was free).  Pooling the two hides the zram-vs-ssd
    distinction — on SSD the write-back round-trip dominates, on zram
    clean drops and write-backs cost nearly the same — so the split is
    what makes the histogram comparable across swap backends.
    """

    #: (bucket lower bound ns, count), ascending.
    buckets: List[Tuple[int, int]]
    n_refaults: int
    median_ns: float
    p90_ns: float
    #: Refaults whose eviction wrote the page back (None on the leaves).
    major: Optional["RefaultHistogram"] = None
    #: Refaults whose eviction was a clean drop (None on the leaves).
    minor: Optional["RefaultHistogram"] = None


def _bucketize(distances: np.ndarray) -> "RefaultHistogram":
    """One leaf histogram from a distance vector (no further split)."""
    if distances.shape[0] == 0:
        return RefaultHistogram(
            buckets=[], n_refaults=0, median_ns=0.0, p90_ns=0.0
        )
    exponents = np.floor(np.log2(np.maximum(distances, 1))).astype(np.int64)
    buckets = [
        (int(2**e), int(count))
        for e, count in zip(*np.unique(exponents, return_counts=True))
    ]
    return RefaultHistogram(
        buckets=buckets,
        n_refaults=int(distances.shape[0]),
        median_ns=float(np.median(distances)),
        p90_ns=float(np.percentile(distances, 90)),
    )


def _refault_wrote_back(capture: TraceCapture) -> np.ndarray:
    """Per-``mm_vmscan_refault`` event: did the eviction it undoes
    write the page back?

    Correlates each refault with the page's most recent
    ``mm_vmscan_evict`` record (payload ``c`` is ``wrote_back``) in
    timestamp order.  A refault whose eviction fell outside the capture
    window (ring wrap, or eviction tracepoint not selected) defaults to
    written-back — a refault always implies a prior eviction.
    """
    rf = capture.events_named("mm_vmscan_refault")
    ev = capture.events_named("mm_vmscan_evict")
    out = np.ones(rf.shape[0], dtype=bool)
    if rf.shape[0] == 0 or ev.shape[0] == 0:
        return out
    ev_ts = ev["ts"]
    ev_vpn = ev["a"]
    ev_wb = ev["c"]
    rf_ts = rf["ts"]
    rf_vpn = rf["a"]
    last_wb: Dict[int, bool] = {}
    i = 0
    n_ev = ev.shape[0]
    for j in range(rf.shape[0]):
        t = rf_ts[j]
        # The eviction strictly precedes the refault in sim time (the
        # swap-in device wait is never zero), so consuming evictions
        # with ts <= refault ts keeps the newest eviction per vpn.
        while i < n_ev and ev_ts[i] <= t:
            last_wb[int(ev_vpn[i])] = bool(ev_wb[i])
            i += 1
        got = last_wb.get(int(rf_vpn[j]))
        if got is not None:
            out[j] = got
    return out


def refault_distance_histogram(capture: TraceCapture) -> RefaultHistogram:
    """Histogram of time between eviction and re-fault per page,
    pooled plus the major (written-back) / minor (clean-drop) split."""
    recs = capture.events_named("mm_vmscan_refault")
    distances = recs["b"].astype(np.int64)
    valid = distances >= 0
    distances = distances[valid]
    if distances.shape[0] == 0:
        return RefaultHistogram(
            buckets=[], n_refaults=0, median_ns=0.0, p90_ns=0.0
        )
    wrote_back = _refault_wrote_back(capture)[valid]
    pooled = _bucketize(distances)
    pooled.major = _bucketize(distances[wrote_back])
    pooled.minor = _bucketize(distances[~wrote_back])
    return pooled


def cost_breakdown(capture: TraceCapture) -> Dict[str, int]:
    """Estimated nanoseconds per reclaim cost class for the trial.

    ``pte_scan`` and ``rmap_walk`` are *modeled* CPU time (final
    counters x the trial's cost constants); ``swap_io_wait`` is the sum
    of observed ``swap_io_done`` latencies; ``direct_reclaim_stall`` is
    the counter the fault path accumulates while it waits for frames.
    """
    # Imported lazily: the repro.mm package loads the whole simulator.
    from repro.mm.costs import CostModel

    final = capture.vmstat.final()
    costs = CostModel(**capture.meta.get("costs", {}))
    io_recs = capture.events_named("swap_io_done")
    return {
        "pte_scan_ns": final.get("ptes_scanned", 0) * costs.pte_scan_ns
        + final.get("ptes_scanned_nearby", 0) * costs.pte_nearby_scan_ns,
        "rmap_walk_ns": final.get("rmap_walks", 0)
        * (costs.rmap_walk_base_ns + costs.rmap_walk_jitter_ns),
        "swap_io_wait_ns": int(io_recs["b"].astype(np.int64).sum()),
        "direct_reclaim_stall_ns": final.get("direct_reclaim_stall_ns", 0),
    }


def timeline_summary(
    capture: TraceCapture, n_buckets: int = 10
) -> List[Dict[str, float]]:
    """The vmstat series resampled into ``n_buckets`` coarse rows.

    Each row reports the bucket end time, fault/eviction *rates* (per
    simulated millisecond) and the mean free-frame gauge across the
    snapshots the bucket covers.
    """
    series = capture.vmstat
    n = series.n_samples
    if n < 2:
        return []
    n_buckets = min(n_buckets, n - 1)
    edges = np.linspace(0, n - 1, n_buckets + 1).astype(np.int64)
    times = series.times_ns
    rows: List[Dict[str, float]] = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        span_ms = max((int(times[hi]) - int(times[lo])) / 1e6, 1e-9)
        row: Dict[str, float] = {"t_end_ms": int(times[hi]) / 1e6}
        for name in ("major_faults", "minor_faults", "evictions", "refaults"):
            col = series.columns[name]
            row[f"{name}_per_ms"] = (int(col[hi]) - int(col[lo])) / span_ms
        free = series.columns["free_frames"][lo : hi + 1]
        row["free_frames_mean"] = float(free.mean())
        rows.append(row)
    return rows


def summarize(capture: TraceCapture) -> str:
    """Render the capture's headline analyses as a text report."""
    lines: List[str] = []
    meta = capture.meta
    cell = "/".join(
        str(meta[k]) for k in ("workload", "policy", "swap") if k in meta
    )
    title = f"trace summary: {cell}" if cell else "trace summary"
    lines.append(title)
    lines.append("=" * len(title))
    runtime_ns = int(meta.get("runtime_ns", 0))
    lines.append(
        f"runtime {runtime_ns / 1e9:.3f} s sim | "
        f"{capture.total_events} events emitted, "
        f"{capture.n_events} kept, {capture.dropped_events} dropped | "
        f"{capture.vmstat.n_samples} vmstat rows"
        + (" (truncated)" if capture.vmstat.truncated else "")
    )

    final = capture.vmstat.final()
    if final:
        lines.append("")
        lines.append("final counters")
        lines.append("--------------")
        for name in (
            "major_faults",
            "minor_faults",
            "hits",
            "evictions",
            "refaults",
            "ptes_scanned",
            "rmap_walks",
        ):
            if name in final:
                lines.append(f"  {name:<24} {final[name]:>14,}")

    breakdown = cost_breakdown(capture)
    total = sum(breakdown.values())
    lines.append("")
    lines.append("reclaim cost breakdown (modeled)")
    lines.append("--------------------------------")
    for name, ns in sorted(breakdown.items(), key=lambda kv: -kv[1]):
        share = 100.0 * ns / total if total else 0.0
        lines.append(f"  {name:<24} {ns / 1e6:>12.3f} ms  {share:5.1f}%")

    hist = refault_distance_histogram(capture)
    lines.append("")
    lines.append(f"refault distances ({hist.n_refaults} refaults)")
    lines.append("-----------------")
    if hist.n_refaults:
        lines.append(
            f"  median {hist.median_ns / 1e6:.3f} ms | "
            f"p90 {hist.p90_ns / 1e6:.3f} ms"
        )
        peak = max(count for _, count in hist.buckets)
        for lower, count in hist.buckets:
            bar = "#" * max(1, int(40 * count / peak))
            lines.append(f"  >= {lower / 1e6:>10.3f} ms  {count:>8}  {bar}")
        for label, sub in (("major", hist.major), ("minor", hist.minor)):
            if sub is None or sub.n_refaults == 0:
                continue
            kind = (
                "written-back evictions"
                if label == "major"
                else "clean drops"
            )
            lines.append(
                f"  {label} ({kind}): {sub.n_refaults} | "
                f"median {sub.median_ns / 1e6:.3f} ms | "
                f"p90 {sub.p90_ns / 1e6:.3f} ms"
            )
    else:
        lines.append("  none recorded")

    rows = timeline_summary(capture)
    if rows:
        lines.append("")
        lines.append("timeline (rates per simulated ms)")
        lines.append("---------------------------------")
        lines.append(
            f"  {'t_end_ms':>10} {'major/ms':>10} {'evict/ms':>10} "
            f"{'refault/ms':>11} {'free_frames':>12}"
        )
        for row in rows:
            lines.append(
                f"  {row['t_end_ms']:>10.1f} "
                f"{row['major_faults_per_ms']:>10.2f} "
                f"{row['evictions_per_ms']:>10.2f} "
                f"{row['refaults_per_ms']:>11.2f} "
                f"{row['free_frames_mean']:>12.1f}"
            )
    return "\n".join(lines)
