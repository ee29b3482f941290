"""Cell set-up hook called by the repo benchmark.

Every cell runs its seeds one ``run_trial`` at a time
(:func:`repro.core.experiment.run_cell_trials`), so there is nothing to
plan.  ``perfbench`` calls :func:`plan_cell` as part of a cell's set-up
and wraps it as a ``core`` frame, so it stays; it only warms the cell's
dataset.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.rng import RngTree
from repro.workloads import make_workload


def plan_cell(workload_name: str, seeds: Sequence[int]) -> None:
    """Build (or fetch) *workload_name*'s dataset; returns ``None``."""
    from repro.core.experiment import DATASET_SEED

    make_workload(workload_name).prepare(
        RngTree(DATASET_SEED).subtree("dataset", workload_name)
    )
