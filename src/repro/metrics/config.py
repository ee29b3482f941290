"""Metrics configuration threaded through ``ExperimentConfig``.

Mirrors :class:`~repro.trace.config.TraceConfig`: a frozen (hashable)
dataclass so it can ride inside experiment configs, dedup keys, and
the ``REPRO_JOBS`` pickle channel unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class MetricsConfig:
    """What the metrics plane records for one trial.

    Attributes:
        enabled: Master switch.  ``False`` makes :func:`run_trial`
            behave exactly as if no config was passed (no session, no
            recorders attached, no registry on the result).
        import_counters: Import the trial-end ``MMStats`` counter
            table (plus swap/rmap totals and occupancy gauges) into
            the registry at finalize, so one dump carries both the
            live-observed histograms and the authoritative aggregate
            counters.
    """

    enabled: bool = True
    import_counters: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.enabled, bool):
            raise ConfigError("MetricsConfig.enabled must be a bool")
        if not isinstance(self.import_counters, bool):
            raise ConfigError("MetricsConfig.import_counters must be a bool")
