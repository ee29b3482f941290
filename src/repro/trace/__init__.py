"""``repro.trace`` — kernel-style tracing and vmstat observability.

The subsystem mirrors the three observability layers Linux MM work
leans on, scaled to the simulator:

- **Tracepoints** (:mod:`repro.trace.tracepoints`) — named records of
  MM/policy/swap events (``mm_vmscan_scan``, ``mm_fault_major``,
  ``swap_io_done``, ``mglru_age``, ...), fed by subscribing to the
  observer bus (:mod:`repro.observe`).  With tracing off no handler is
  attached, so each emission site is a single ``is not None`` test and
  traced trials are bit-identical to untraced ones.
- **Ring-buffer event capture** (:mod:`repro.trace.ringbuf`,
  :mod:`repro.trace.session`) — ftrace-style bounded buffer with
  overflow accounting.
- **vmstat sampling** (:mod:`repro.trace.vmstat`) — periodic snapshots
  of the live counter table, the ``/proc/vmstat`` analogue.

Captures export to Chrome trace-event JSON (Perfetto-loadable), CSV
and raw ``.npz`` (:mod:`repro.trace.export`); :mod:`repro.trace.analyze`
derives refault-distance histograms, reclaim cost breakdowns and
timeline summaries.  ``python -m repro.trace`` drives both ends.
"""

from repro.trace import tracepoints
from repro.trace.analyze import (
    cost_breakdown,
    refault_distance_histogram,
    summarize,
    timeline_summary,
)
from repro.trace.config import TraceConfig
from repro.trace.export import (
    chrome_trace,
    load_capture,
    load_capture_registry,
    save_capture,
    validate_chrome_trace,
    write_capture,
    write_chrome_trace,
    write_events_csv,
    write_vmstat_csv,
)
from repro.trace.ringbuf import EVENT_DTYPE, TraceRingBuffer
from repro.trace.session import TraceCapture, TraceSession
from repro.trace.tracepoints import TRACEPOINTS
from repro.trace.vmstat import VmStatSampler, VmStatSeries

__all__ = [
    "TRACEPOINTS",
    "EVENT_DTYPE",
    "TraceCapture",
    "TraceConfig",
    "TraceRingBuffer",
    "TraceSession",
    "VmStatSampler",
    "VmStatSeries",
    "chrome_trace",
    "cost_breakdown",
    "load_capture",
    "load_capture_registry",
    "refault_distance_histogram",
    "save_capture",
    "summarize",
    "timeline_summary",
    "tracepoints",
    "validate_chrome_trace",
    "write_capture",
    "write_chrome_trace",
    "write_events_csv",
    "write_vmstat_csv",
]
