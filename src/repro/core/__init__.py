"""The characterization framework: the paper's methodology as a library.

- :mod:`~repro.core.config` — system/experiment configuration;
- :mod:`~repro.core.calibration` — the scale-down cost calibration;
- :mod:`~repro.core.experiment` — seeded trials, repetition, grids;
- :mod:`~repro.core.results` — trial/experiment result containers;
- :mod:`~repro.core.metrics` — tail percentiles and normalizations;
- :mod:`~repro.core.stats` — r², Welch, Mann-Whitney, bootstrap CIs;
- :mod:`~repro.core.distributions` — joint and quartile summaries;
- :mod:`~repro.core.report` — plain-text tables for figures;
- :mod:`~repro.core.figures` — one generator per paper figure.
"""

from repro._lazy import lazy_exports

# Resolved on first access, so ``from repro.core import tracecache``
# loads that module alone.
__all__, __getattr__ = lazy_exports(__name__, {
    "repro.core.config": ("ExperimentConfig", "SystemConfig"),
    "repro.core.experiment": ("ExperimentRunner", "run_trial"),
    "repro.core.results": ("ExperimentResult", "TrialResult"),
})
