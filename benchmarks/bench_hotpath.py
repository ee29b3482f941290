"""Hot-path microbenchmark: accesses/second on the PageRank@50% cell.

Runs the single most access-heavy cell of the paper grid — PageRank on
MG-LRU over SSD at 50% capacity — and reports simulated page accesses
(hits + faults) per wall-clock second in two configurations:

- ``fast_on``   — tracing off (the production path; the key name is
  kept so committed baselines stay comparable);
- ``trace_on``  — full trace capture attached, measuring the
  observability subsystem's overhead side by side.

The ``fast_on`` number is also checked against the committed baseline
JSON: a regression of more than ``--tolerance`` (default 5%) fails the
run loudly, which is how the tracepoint instrumentation's
off-path cost is kept at noise level.  Pass ``--no-check`` to skip the
comparison (e.g. in CI, where hardware differs from the baseline's).

Writes ``benchmarks/output/BENCH_hotpath.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--rounds N]
        [--no-check] [--tolerance F] [--output PATH] [--baseline PATH]

Not a pytest-benchmark module on purpose: the figure benchmarks measure
*what* the simulator reproduces, this measures *how fast*, and CI wants
a plain script with a JSON artifact.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from baseline_gate import check_baseline
from repro.core.config import SystemConfig
from repro.core.experiment import run_trial
from repro.trace.config import TraceConfig

#: Seed-revision throughput of this cell (accesses/sec, measured on the
#: pre-fast-path scalar loop) — the reference for the speedup ratio
#: reported in the JSON.
SEED_BASELINE_ACC_PER_SEC = 753_745

CELL = dict(workload="pagerank", policy="mglru", swap="ssd", ratio=0.5)
SEED = 10_000


def _one_trial(trace: bool = False) -> tuple[float, int]:
    """(wall seconds, simulated accesses) for one trial of the cell."""
    config = SystemConfig(
        policy=CELL["policy"], swap=CELL["swap"], capacity_ratio=CELL["ratio"]
    )
    trace_config = TraceConfig() if trace else None
    t0 = time.perf_counter()
    trial = run_trial(CELL["workload"], config, SEED, trace=trace_config)
    wall = time.perf_counter() - t0
    accesses = (
        trial.counters["hits"] + trial.major_faults + trial.minor_faults
    )
    return wall, accesses


def _measure(rounds: int, trace: bool = False) -> dict:
    walls = []
    accesses = 0
    for _ in range(rounds):
        wall, accesses = _one_trial(trace=trace)
        walls.append(wall)
    best = min(walls)
    return {
        "rounds": rounds,
        "wall_seconds": walls,
        "best_wall_seconds": best,
        "accesses": accesses,
        "accesses_per_sec": accesses / best,
    }


def _check_baseline(
    report: dict, baseline_path: pathlib.Path, tolerance: float
) -> int:
    """Compare the tracing-off number to the committed baseline."""
    measured = report["fast_on"]["accesses_per_sec"]

    def compare(baseline):
        reference = float(baseline["fast_on"]["accesses_per_sec"])
        yield (
            f"off-path check: {measured:,.0f} acc/s vs baseline "
            f"{reference:,.0f} acc/s",
            measured / reference,
        )

    return check_baseline(
        baseline_path, tolerance, compare,
        lambda _n: (
            "FAIL: tracing-off throughput regressed more than "
            f"{tolerance:.0%} vs {baseline_path} — the disabled-tracepoint "
            "path is supposed to be free.  If the drop is expected and "
            "understood, regenerate the baseline; otherwise fix the hot "
            "path.  (--no-check skips this gate.)"
        ),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rounds", type=int, default=3,
        help="trials per configuration; best wall time wins (default 3)",
    )
    parser.add_argument(
        "--no-check", action="store_true",
        help="skip the regression check against the committed baseline",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.05,
        help="allowed fractional drop vs the baseline (default 0.05)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path(__file__).parent / "output" / "BENCH_hotpath.json",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=None,
        help="baseline JSON for the regression check (default: --output)",
    )
    args = parser.parse_args(argv)
    rounds = max(1, args.rounds)
    baseline_path = args.baseline if args.baseline is not None else args.output

    # Warm-up trial: populates the module-level dataset/trace caches so
    # round 1 is not charged graph construction.
    print(f"cell: {CELL}, seed {SEED}; warming up...", flush=True)
    _one_trial()

    fast = _measure(rounds)
    print(
        f"tracing OFF  : {fast['best_wall_seconds']:.3f}s best of {rounds}, "
        f"{fast['accesses_per_sec']:,.0f} acc/s",
        flush=True,
    )
    traced = _measure(rounds, trace=True)
    print(
        f"tracing ON   : {traced['best_wall_seconds']:.3f}s best of "
        f"{rounds}, {traced['accesses_per_sec']:,.0f} acc/s "
        f"({fast['accesses_per_sec'] / traced['accesses_per_sec']:.2f}x "
        f"slower than off)",
        flush=True,
    )

    # The regression gate compares against the *committed* baseline, so
    # it must run before the report overwrites that file.
    check_rc = 0
    report = {
        "cell": CELL,
        "seed": SEED,
        "seed_baseline_acc_per_sec": SEED_BASELINE_ACC_PER_SEC,
        "fast_on": fast,
        "trace_on": traced,
        "trace_overhead_x": (
            fast["accesses_per_sec"] / traced["accesses_per_sec"]
        ),
        "speedup_vs_seed_baseline": (
            fast["accesses_per_sec"] / SEED_BASELINE_ACC_PER_SEC
        ),
    }
    if not args.no_check:
        check_rc = _check_baseline(report, baseline_path, args.tolerance)

    print(
        f"speedup vs seed baseline ({SEED_BASELINE_ACC_PER_SEC:,} acc/s): "
        f"{report['speedup_vs_seed_baseline']:.2f}x"
    )

    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return check_rc


if __name__ == "__main__":
    sys.exit(main())
