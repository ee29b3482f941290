"""``repro.metrics`` — live metrics plane for the simulator.

A Prometheus-style registry (counters, gauges, log2 histograms) fed by
recorders subscribed to the observer bus (:mod:`repro.observe`),
aggregated across ``REPRO_JOBS`` workers by :class:`GridTelemetry`,
and consumed by the ``python -m repro.metrics`` CLI (``run`` /
``report`` / ``compare``).

Metering is opt-in per trial via :class:`MetricsConfig` on
``ExperimentConfig`` / ``run_trial``; with metering off (the default)
no recorder is attached, every emission site pays one ``is not None``
test, and trials are bit-identical to unmetered ones.

Only the dependency-free leaves (:mod:`config`, :mod:`registry`) load
eagerly; the session/telemetry/report layers — which reach back into
``repro.trace`` and ``repro.core`` — resolve lazily on first attribute
access.
"""

from repro._lazy import lazy_exports
from repro.metrics.config import MetricsConfig
from repro.metrics.registry import (
    BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prom_text,
)

_lazy, __getattr__ = lazy_exports(__name__, {
    "repro.metrics.session": ("MetricsSession",),
    "repro.metrics.telemetry": ("GridTelemetry",),
})

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsConfig",
    "MetricsRegistry",
    "parse_prom_text",
    *_lazy,
]
