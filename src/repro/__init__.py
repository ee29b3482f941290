"""repro — a reproduction of "Characterizing Emerging Page Replacement
Policies for Memory-Intensive Applications" (IISWC 2024).

The package is a discrete-event simulator of an operating system's
memory-management layer — page tables with hardware accessed bits, a
reverse map, a watermark-driven frame allocator, SSD and ZRAM swap — with
faithful implementations of Clock-LRU and Multi-Generational LRU
(generations, Bloom-filtered page-table walks, eviction-time spatial
scans, refault tiers with a PID controller), plus the paper's three
workload domains and a characterization harness that regenerates every
figure of the paper's evaluation.

Quick start::

    from repro import SystemConfig, run_trial

    config = SystemConfig(policy="mglru", swap="ssd", capacity_ratio=0.5)
    trial = run_trial("tpch", config, seed=1)
    print(trial.runtime_s, trial.major_faults)

See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
per-figure reproduction harness.
"""

from repro._lazy import lazy_exports

# Resolved on first access, so importing one simulator module
# (``repro.mm.system``, say) does not load the harness and every
# observability plane with it.
__all__, __getattr__ = lazy_exports(__name__, {
    "repro.core.config": ("ExperimentConfig", "SystemConfig"),
    "repro.core.experiment": ("ExperimentRunner", "run_trial"),
    "repro.core.figures": ("FIGURES", "FigureResult"),
    "repro.core.results": ("ExperimentResult", "TrialResult"),
    "repro.metrics": ("MetricsConfig",),
    "repro.mm.system": ("MemorySystem",),
    "repro.policies": (
        "MGLRU_VARIANTS", "PAPER_POLICIES", "MGLRUParams", "make_policy",
    ),
    "repro.trace": ("TraceCapture", "TraceConfig"),
    "repro.workloads": ("PAPER_WORKLOADS", "make_workload"),
})
__all__.append("__version__")

__version__ = "1.0.0"
