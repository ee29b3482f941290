"""Golden digests of multi-seed cells.

``tests/data/multiseed_golden.json`` pins every trial of the multi-seed
cells the cell-runner suite compares:

- a tiny PageRank × {clock, mglru, fifo, random, opt} × seeds
  ``[41, 42, 43]`` at ratio 0.5 on ZRAM, run as one cell;
- the same three seeds of a tiny TPC-H under MG-LRU;
- one ``ExperimentRunner(jobs=2).run_many`` over the tiny PageRank
  under Clock and MG-LRU, four seeds each.

Each trial is pinned by :func:`tests.core.golden.summary` — a SHA-256
of its canonical-JSON :class:`~repro.core.results.TrialResult` plus
headline numbers.  The digests were captured while the seed-stacked
PageRank lane and the per-seed lane both still shipped and agreed on
every trial, so the single remaining cell runner is held to the values
both produced.

Regeneration checks that a cell run agrees with a plain per-seed
``run_trial`` loop, and that the parallel runner agrees with the serial
one, before it writes.  Regenerate only for a deliberate change to
simulated behaviour::

    PYTHONPATH=src python -m tests.core.multiseed_golden
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List

from repro.core.config import ExperimentConfig, SystemConfig
from repro.core.experiment import (
    ExperimentRunner,
    run_cell_trials,
    run_trial,
)
from repro.workloads.pagerank import PageRankParams, PageRankWorkload
from tests.core import golden

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parents[1]
    / "data"
    / "multiseed_golden.json"
)

SEEDS = [41, 42, 43]
POLICIES = ["clock", "mglru", "fifo", "random", "opt"]
FALLBACK_POLICY = "mglru"
RUN_MANY_POLICIES = ["clock", "mglru"]


def tiny_pagerank() -> PageRankWorkload:
    """PageRank shrunk so a three-seed cell takes about a second."""
    return PageRankWorkload(
        PageRankParams(
            n_vertices=4096, avg_degree=6, n_iterations=3, n_threads=4
        )
    )


def system(policy: str) -> SystemConfig:
    return SystemConfig(policy=policy, swap="zram", capacity_ratio=0.5)


def run_many_config(policy: str) -> ExperimentConfig:
    return ExperimentConfig(
        workload="pagerank", system=system(policy), n_trials=4,
        base_seed=900,
    )


def cell_key(workload: str, policy: str) -> str:
    return f"{workload}-{policy}"


def summaries(trials: List[Any]) -> List[Dict[str, Any]]:
    return [golden.summary(trial) for trial in trials]


def _per_seed(workload: str, policy: str) -> List[Any]:
    return [run_trial(workload, system(policy), seed) for seed in SEEDS]


def _run_many(jobs: int) -> List[Any]:
    configs = [run_many_config(p) for p in RUN_MANY_POLICIES]
    with ExperimentRunner(jobs=jobs) as runner:
        return [result.trials for result in runner.run_many(configs)]


def capture() -> Dict[str, Any]:
    """Run every pinned cell; the tiny factories must be installed.

    Raises ``AssertionError`` naming the first cell whose lanes
    disagree.
    """
    cells = {}
    for workload, policy in [("pagerank", p) for p in POLICIES] + [
        ("tpch", FALLBACK_POLICY)
    ]:
        trials = run_cell_trials(workload, system(policy), SEEDS)
        assert trials == _per_seed(workload, policy), (workload, policy)
        cells[cell_key(workload, policy)] = summaries(trials)

    parallel = _run_many(jobs=2)
    assert parallel == _run_many(jobs=1), "run_many jobs=2 != serial"
    run_many = {
        cell_key("pagerank", policy): summaries(trials)
        for policy, trials in zip(RUN_MANY_POLICIES, parallel)
    }
    return {"cells": cells, "run_many": run_many}


def load() -> Dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


def main() -> None:
    import repro.workloads as workloads_pkg

    workloads_pkg.WORKLOAD_FACTORIES["pagerank"] = tiny_pagerank
    workloads_pkg.WORKLOAD_FACTORIES["tpch"] = golden.tiny_tpch
    GOLDEN_PATH.write_text(
        json.dumps(capture(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
