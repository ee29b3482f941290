"""The benchmark's four workloads.

Each workload is a batch job run serially in one process.  A *round* is
one call into the simulator's public entry point — a fresh
``ExperimentRunner(jobs=1).run`` of one cell for the paper workloads, a
``run_fleet_trial`` for the fleet workloads — with trial seeds derived
from the benchmark's ``--seed``.  Every round of a run repeats the same
seeds, so every round must produce the same simulated outputs.

``op`` is a simulated page access (hits + major + minor faults) on the
paper workloads and a served request on the fleet workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List


def trial_base_seed(seed: int) -> int:
    """First trial seed of a round for benchmark seed *seed*."""
    return 10_000 + 100 * seed


@dataclass(frozen=True)
class PaperCell:
    """One (workload, policy, SSD, capacity ratio) cell of the paper grid."""

    name: str
    workload: str
    policy: str
    capacity_ratio: float
    #: Trials per round; at least 2 lets the seed-major planner stack
    #: the cell (it declines single-seed cells).
    trials: int
    why: str
    op: str = "access"

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": "paper", "workload": self.workload,
            "policy": self.policy, "swap": "ssd",
            "capacity_ratio": self.capacity_ratio, "trials": self.trials,
        }

    def _config(self, seed: int) -> Any:
        from repro.core.config import ExperimentConfig, SystemConfig

        return ExperimentConfig(
            workload=self.workload,
            system=SystemConfig(
                policy=self.policy, swap="ssd",
                capacity_ratio=self.capacity_ratio,
            ),
            n_trials=self.trials,
            base_seed=trial_base_seed(seed),
        )

    def setup(self, seed: int) -> None:
        """Build the dataset and, for multi-trial rounds, plan the cell
        seed-major — everything up to the first trial."""
        from repro.core import seedmajor
        from repro.core.experiment import DATASET_SEED
        from repro.sim.rng import RngTree
        from repro.workloads import make_workload

        make_workload(self.workload).prepare(
            RngTree(DATASET_SEED).subtree("dataset", self.workload)
        )
        seedmajor.plan_cell(self.workload, list(self._config(seed).seeds()))

    def execute(self, seed: int) -> List[Any]:
        from repro.core.experiment import ExperimentRunner

        with ExperimentRunner(jobs=1) as runner:
            return runner.run(self._config(seed)).trials

    @staticmethod
    def ops(trials: List[Any]) -> int:
        return sum(
            int(t.counters["hits"]) + t.major_faults + t.minor_faults
            for t in trials
        )

    @staticmethod
    def digests(trials: List[Any]) -> List[str]:
        from perfbench.digest import trial_digest

        return [trial_digest(t) for t in trials]


@dataclass(frozen=True)
class FleetCell:
    """One multi-tenant memcg fleet trial on the default serving lane."""

    name: str
    #: Builds the :class:`~repro.fleet.config.FleetConfig`.
    make_config: Callable[[], Any]
    policy: str
    why: str
    op: str = "request"
    trials: int = 1

    def describe(self) -> Dict[str, Any]:
        from dataclasses import asdict

        return {
            "kind": "fleet", "policy": self.policy,
            "config": asdict(self.make_config()),
        }

    def setup(self, seed: int) -> None:
        """Build every tenant shape's dataset (the fleet's only set-up
        outside the trial's own simulator construction)."""
        from repro.fleet import trial

        for idx, shape in enumerate(self.make_config().shapes):
            trial._shape_dataset(shape, idx)

    def execute(self, seed: int) -> List[Dict[str, Any]]:
        from repro.fleet import trial

        return [
            trial.run_fleet_trial(
                self.make_config(), self.policy, trial_base_seed(seed)
            )
        ]

    @staticmethod
    def ops(rows: List[Dict[str, Any]]) -> int:
        return sum(t["requests"] for row in rows for t in row["tenants"])

    @staticmethod
    def digests(rows: List[Dict[str, Any]]) -> List[str]:
        from perfbench.digest import row_digest

        return [row_digest(row) for row in rows]


def big_fleet_config(n_tenants: int = 200, n_requests: int = 30_000) -> Any:
    """Global pressure at 25% capacity, two tenant shapes (one with 50%
    writes), no hard limits: the memcg proportional global reclaimer
    does the work.  Same cell as ``benchmarks/bench_fleet.py``."""
    from repro.fleet.config import FleetConfig, TenantShape

    return FleetConfig(
        n_tenants=n_tenants,
        shapes=(
            TenantShape(n_items=300),
            TenantShape(n_items=600, read_fraction=0.5),
        ),
        capacity_ratio=0.25,
        n_requests_total=n_requests,
        arrival_rate_rps=400_000.0,
        slo_ns=2_000_000,
        n_cpus=8,
    )


def fastlane_config(
    n_tenants: int = 200, n_requests: int = 1_000_000
) -> Any:
    """Read-only traffic, zero per-request compute, 0.98 capacity:
    resident hits dominate and the fleet fast lane serves nearly every
    request.  Same cell as ``benchmarks/bench_fleet.py``."""
    from repro.fleet.config import FleetConfig, TenantShape

    return FleetConfig(
        n_tenants=n_tenants,
        shapes=(
            TenantShape(
                n_items=80, zipf_theta=0.99, read_fraction=1.0,
                request_compute_ns=0,
            ),
        ),
        swap="zram",
        capacity_ratio=0.98,
        n_requests_total=n_requests,
        arrival_rate_rps=1e11,
        n_cpus=8,
    )


CELLS: Dict[str, Any] = {
    cell.name: cell
    for cell in (
        PaperCell(
            name="pagerank-hit", workload="pagerank", policy="mglru",
            capacity_ratio=0.9, trials=2,
            why="PageRank, MG-LRU, SSD at 90% capacity: >99.7% resident "
            "hits, so the vectorized access lane, policy hit bookkeeping "
            "and the engine do the work",
        ),
        PaperCell(
            name="ycsb-a-write", workload="ycsb-a", policy="clock",
            capacity_ratio=0.5, trials=1,
            why="YCSB-A (50% updates), Clock, SSD at 50%: per-request "
            "scalar accesses, faults, dirty evictions and swap writes",
        ),
        FleetCell(
            name="fleet-pressure", make_config=big_fleet_config,
            policy="mglru",
            why="200 memcg tenants under global pressure at 25% "
            "capacity: memcg charge and proportional reclaim do work, "
            "serving falls back to the scalar residue path",
        ),
        FleetCell(
            name="fleet-serve", make_config=fastlane_config,
            policy="mglru",
            why="200 tenants, read-only at 98% capacity: the fleet fast "
            "lane serves nearly every request and memcg reclaim is idle",
        ),
    )
}
