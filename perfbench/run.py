"""Repo benchmark: simulator host throughput on four batch workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pagerank-hit --seed 0 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with every wrapper off;
``--trace 1`` alternates plain and traced rounds and reports the
per-layer table (see ``perfbench/README.md``).  Every metric is printed
by name with its unit, followed by the correctness verdict; the last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, where ``failed`` /
``attempted`` is the error rate: trials that raised or whose digest of
simulated outputs differs from the reference.  A full record with the
provenance block goes to ``.perfbench_out/``, and traced runs also
write a wall-clock ``.folded`` flamegraph there.

Exit status: 0 when every trial matched, 1 when any failed, 2 when the
simulator source is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

#: Cold set-up processes per untraced run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Timed rounds (plain/traced pairs in traced runs) even past --seconds.
MIN_ROUNDS = 3
#: Host calibration loop length, and its time on the nominal host that
#: ``ops_per_s`` is scaled to.
CAL_ITERATIONS = 450_000
CAL_REF_S = 0.15
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}


def per_layer_units() -> Dict[str, str]:
    """Name → unit of every metric a traced run reports."""
    from perfbench.tracer import LAYERS

    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_ns_per_op"] = "ns/op"
        units[f"{layer}.calls"] = "count"
    for name in (
        "mm.hits", "mm.major_faults", "mm.minor_faults", "mm.evictions",
        "mm.dirty_evictions", "policies.rmap_walks", "policies.ptes_scanned",
        "swapdev.reads", "swapdev.writes", "sim.events",
    ):
        units[name] = "count"
    for name in (
        "policies.evictions_per_rmap_walk", "fleet.residue_share",
        "core.trace_cache_hit_ratio", "core.dataset_memo_hit_ratio",
        "tracer.unattributed_share",
    ):
        units[name] = "ratio"
    units["tracer.overhead_x"] = "x"
    return units


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def calibrate() -> float:
    """Seconds this host takes for a fixed pure-Python loop right now.

    The loop touches no simulator code, so a change to the program
    cannot move it; its time tracks the shared host's speed, which
    swings by up to 1.7x within a minute as neighbours load it.
    """
    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(CAL_ITERATIONS):
        table[i & 1023] = i
        acc += table.get(i >> 3 & 1023, 0)
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int, work: pathlib.Path) -> List[float]:
    """Wall seconds from spawn to the ``ready`` line of fresh set-up
    processes, each with its own empty trace cache.

    Not scaled by the host calibration: set-up is mostly imports and
    file I/O, which the calibration loop tracks poorly (scaling widened
    the spread of ``setup_s`` from about 0.1 to 0.3-0.4 of its median).
    """
    samples = []
    for i in range(SETUP_PROBES):
        env = dict(os.environ, REPRO_TRACE_CACHE=str(work / f"probe-{i}"))
        cmd = [
            sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
            "--workload", workload, "--seed", str(seed),
        ]
        t0 = time.perf_counter()
        with subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True
        ) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                rc = proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe {i} failed (exit {rc})")
        samples.append(elapsed)
    return samples


def checked_round(
    cell: Any, seed: int, check: Any, label: str
) -> Tuple[Any, float]:
    """One timed round, the previous rounds' garbage collected first;
    its digests go through *check*.  ``(None, wall)`` when it raised
    (its trials count as failed)."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        raw = cell.execute(seed)
    except Exception as exc:  # a failed round is a measured outcome
        check.observe_error(cell.trials, f"{label}: {exc!r}")
        return None, time.perf_counter() - t0
    wall = time.perf_counter() - t0
    check.observe(cell.digests(raw), label)
    return raw, wall


def run_plain(cell: Any, seed: int, seconds: float, check: Any) -> Dict:
    """Timed rounds, each bracketed by host calibrations.  A round's
    scaled rate is its raw rate times ``host / CAL_REF_S``: ops per
    second of the nominal host."""
    raw_rates: List[float] = []
    scaled: List[float] = []
    hosts: List[float] = []
    peak_rss_mb = 0.0
    start = time.perf_counter()
    cal_prev = calibrate()
    n = 0
    while n < MIN_ROUNDS or time.perf_counter() - start < seconds:
        n += 1
        raw, wall = checked_round(cell, seed, check, f"round {n}")
        cal_next = calibrate()
        host = (cal_prev + cal_next) / 2
        cal_prev = cal_next
        if raw is not None:
            rate = cell.ops(raw) / wall
            raw_rates.append(rate)
            scaled.append(rate * host / CAL_REF_S)
            hosts.append(host)
        if n == MIN_ROUNDS:
            # Read at a fixed round count: the resident set grows with
            # every round (see README), so a later reading would depend
            # on how many rounds the host's speed allowed.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0
    if not scaled:
        raise RuntimeError("every timed round failed")
    q1, median, q3 = _quartiles(scaled)
    return {
        "rounds": n, "scaled_rates": scaled, "raw_rates": raw_rates,
        "host_calibration_s": hosts, "q1": q1, "median": median, "q3": q3,
        "raw_median": statistics.median(raw_rates),
        "peak_rss_mb": peak_rss_mb,
    }


def _system_counts(systems: List[Any]) -> Dict[str, int]:
    out = dict.fromkeys(
        ("mm.hits", "mm.major_faults", "mm.minor_faults", "mm.evictions",
         "mm.dirty_evictions", "policies.rmap_walks",
         "policies.ptes_scanned", "swapdev.reads", "swapdev.writes"), 0,
    )
    for system in systems:
        st = system.stats
        out["mm.hits"] += st.hits
        out["mm.major_faults"] += st.major_faults
        out["mm.minor_faults"] += st.minor_faults
        out["mm.evictions"] += st.evictions
        out["mm.dirty_evictions"] += st.dirty_evictions
        out["policies.rmap_walks"] += system.rmap.walk_count
        out["policies.ptes_scanned"] += st.ptes_scanned + st.ptes_scanned_nearby
        out["swapdev.reads"] += system.swap_device.stats.reads
        out["swapdev.writes"] += system.swap_device.stats.writes
    return out


def run_traced(
    cell: Any, seed: int, seconds: float, check: Any, folded: pathlib.Path
) -> Dict:
    """Alternate plain and traced rounds; per-layer metrics per trial
    (counts) and per op (self time)."""
    from repro.core import tracecache
    from repro.fleet.trial import LANE_STATS
    from repro.workloads.datasets import MEMO_STATS

    from perfbench.tracer import LAYERS, LayerTracer

    tracer = LayerTracer()
    memo0, lane0 = MEMO_STATS.snapshot(), LANE_STATS.snapshot()
    plain_walls: List[float] = []
    traced_walls: List[float] = []
    traced_ops = traced_trials = 0
    counts: Dict[str, int] = {}
    identical = True
    start = time.perf_counter()
    n = 0
    while n < MIN_ROUNDS or time.perf_counter() - start < seconds:
        n += 1
        raw, wall = checked_round(cell, seed, check, f"plain {n}")
        with tracer.installed():
            raw_t, wall_t = checked_round(cell, seed, check, f"traced {n}")
        if raw is None or raw_t is None:
            identical = False
            tracer.systems.clear()
            continue
        identical &= cell.digests(raw) == cell.digests(raw_t)
        plain_walls.append(wall)
        traced_walls.append(wall_t)
        traced_ops += cell.ops(raw_t)
        traced_trials += len(raw_t)
        for name, value in _system_counts(tracer.systems).items():
            counts[name] = counts.get(name, 0) + value
        tracer.systems.clear()
    if not traced_walls:
        raise RuntimeError("every traced round failed")
    tracer.write_folded(folded)

    memo = {k: v - memo0[k] for k, v in MEMO_STATS.snapshot().items()}
    lane = {k: v - lane0[k] for k, v in LANE_STATS.snapshot().items()}
    cache = tracecache.STATS.snapshot()
    self_ns = tracer.layer_self_ns()
    calls = tracer.layer_calls()
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ns_per_op"] = self_ns[layer] / traced_ops
        metrics[f"{layer}.calls"] = calls[layer] / traced_trials
    for name, value in counts.items():
        metrics[name] = value / traced_trials
    metrics["sim.events"] = tracer.events() / traced_trials
    metrics["policies.evictions_per_rmap_walk"] = _ratio(
        counts["mm.evictions"], counts["policies.rmap_walks"]
    )
    metrics["fleet.residue_share"] = _ratio(
        lane["residue_requests"], lane["requests"]
    )
    metrics["core.trace_cache_hit_ratio"] = _ratio(
        cache["hits"], cache["hits"] + cache["misses"]
    )
    metrics["core.dataset_memo_hit_ratio"] = _ratio(
        memo["hits"], memo["hits"] + memo["misses"]
    )
    metrics["tracer.overhead_x"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls)
    )
    metrics["tracer.unattributed_share"] = (
        1.0 - tracer.covered_ns / 1e9 / sum(traced_walls)
    )
    return {
        "rounds": n,
        "metrics": metrics,
        "traced_equals_plain": identical,
        "plain_walls": plain_walls,
        "traced_walls": traced_walls,
        "trace_cache": cache,
        "folded": str(folded),
    }


def measure(
    cell: Any, seed: int, seconds: float, trace: bool,
    work: pathlib.Path, references: Any = None, setup_probes: bool = True,
    out_dir: pathlib.Path = OUT_DIR,
) -> Dict[str, Any]:
    """One benchmark run in this (pinned) process; returns the record."""
    from perfbench.digest import ReferenceCheck

    check = ReferenceCheck(cell.name, seed, references)
    # The first pass runs before the interpreter has specialised the
    # loop's bytecode and reads slow; discard it.
    calibrate()
    setup = []
    if setup_probes and not trace:
        setup = measure_setup(cell.name, seed, work)
    # This process starts cold too: its first round is the reference
    # when no committed digest exists for (workload, seed).
    cell.setup(seed)
    checked_round(cell, seed, check, "cold round")
    record: Dict[str, Any] = {"workload": cell.name, "seed": seed,
                              "trace": int(trace)}
    if trace:
        traced = run_traced(
            cell, seed, seconds, check, out_dir / f"{cell.name}.folded"
        )
        record["traced"] = traced
        metrics = traced.pop("metrics")
        units = per_layer_units()
    else:
        plain = run_plain(cell, seed, seconds, check)
        record["plain"] = plain
        record["setup_samples"] = setup
        metrics = {
            "ops_per_s": plain["median"],
            "setup_s": statistics.median(setup) if setup else 0.0,
            "peak_rss_mb": plain["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    record["metrics"] = {
        name: {"value": metrics[name], "unit": units[name]} for name in units
    }
    record["check"] = {
        "attempted": check.attempted,
        "failed": check.failed,
        "error_rate": check.error_rate,
        "reference": "committed" if check.committed else "cold round",
        "mismatches": check.mismatches[:20],
    }
    return record


def print_report(record: Dict[str, Any], cell: Any) -> None:
    print(f"perfbench {record['workload']} seed {record['seed']} "
          f"trace {record['trace']} (op = {cell.op})")
    if "plain" in record:
        plain = record["plain"]
        print(f"  ops_per_s over {len(plain['scaled_rates'])} rounds: "
              f"q1 {plain['q1']:.1f}  median {plain['median']:.1f}  "
              f"q3 {plain['q3']:.1f}  (unscaled median "
              f"{plain['raw_median']:.1f}, host calibration median "
              f"{statistics.median(plain['host_calibration_s']):.4f} s "
              f"vs nominal {CAL_REF_S} s)")
    for name, entry in record["metrics"].items():
        print(f"  {name:34s} {entry['value']:>18.6g} {entry['unit']}")
    chk = record["check"]
    print(f"  {'error_rate':34s} {chk['error_rate']:>18.6g} ratio "
          f"({chk['failed']} failed / {chk['attempted']} trials)")
    verdict = "PASS" if chk["failed"] == 0 else "FAIL"
    print(f"check: {verdict} against the {chk['reference']} reference")
    for line in chk["mismatches"]:
        print(f"  mismatch: {line}")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"simulator source not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # Sibling modules are importable only as ``perfbench.*``.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import env
    from perfbench.cells import CELLS

    if args.workload not in CELLS:
        parser.error(f"unknown workload; known: {', '.join(CELLS)}")
    cell = CELLS[args.workload]
    loadavg = [round(x, 2) for x in os.getloadavg()]
    work = WORK_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cleared = env.pin_environment(work / "trace-cache")
        record = measure(cell, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()  # left in place while other runs use it
        except OSError:
            pass
    record["provenance"] = env.provenance(
        ROOT,
        {"cell": cell.describe(), "seconds": args.seconds,
         "trace": args.trace, "setup_probes": SETUP_PROBES,
         "min_rounds": MIN_ROUNDS, "cal_iterations": CAL_ITERATIONS,
         "cal_ref_s": CAL_REF_S},
        cleared, loadavg,
    )
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{cell.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print_report(record, cell)
    print(f"record: {out.relative_to(ROOT)}")
    check = record["check"]
    print(json.dumps({
        "correct": check["failed"] == 0,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if check["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
