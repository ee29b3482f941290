"""Trial execution: one "rebooted" run per seed, repeated per cell.

``run_trial`` builds a completely fresh simulator — engine, memory
system, policy, swap device, workload — for every execution, the
simulator analogue of the paper's per-execution reboot (§IV).  The
:class:`ExperimentRunner` repeats trials across seeds and caches cells
so figure generators can share measurements.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import asdict
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro._env import int_knob
from repro.core.config import ExperimentConfig, SystemConfig
from repro.core.results import ExperimentResult, TrialResult
from repro.core.seedmajor import (
    chunk_seeds,
    fast_seeds_enabled,
    run_cell_trials,
)
from repro.metrics.config import MetricsConfig
from repro.metrics.session import MetricsSession
from repro.mm.system import MemorySystem
from repro.policies import make_policy
from repro.sim.engine import Engine
from repro.sim.rng import RngTree
from repro.spans.config import SpansConfig
from repro.spans.recorder import SpanRecorder
from repro.swapdev import SSDSwapDevice, ZRAMSwapDevice
from repro.trace.config import TraceConfig
from repro.trace.session import TraceSession
from repro.workloads import make_workload


def build_system(
    engine: Engine,
    rng: RngTree,
    config: SystemConfig,
    capacity_frames: int,
) -> MemorySystem:
    """Construct the memory system for one trial."""
    policy = make_policy(config.policy)
    if config.swap == "ssd":
        device = SSDSwapDevice(engine, rng.stream("ssd"), config.ssd_costs)
    else:
        device = ZRAMSwapDevice(rng.stream("zram"), config.zram_costs)
    return MemorySystem(
        engine,
        rng,
        policy,
        device,
        capacity_frames=capacity_frames,
        n_cpus=config.n_cpus,
        costs=config.costs,
    )


#: Seed of the *dataset* RNG tree.  The paper reruns the same binary on
#: the same input 25 times; only the system varies across reboots.  So
#: workload data structures (tables, the graph, item placement) are
#: built from this fixed seed, while everything dynamic (request
#: streams, probe picks, jitter, device latencies, ASLR) draws from the
#: per-trial seed.
DATASET_SEED = 0x5EED_DA7A


def run_trial(
    workload_name: str,
    system_config: SystemConfig,
    seed: int,
    trace: Optional[TraceConfig] = None,
    metrics: Optional[MetricsConfig] = None,
    spans: Optional[SpansConfig] = None,
    *,
    _seed_cell: Optional[Any] = None,
    _seed_row: int = 0,
) -> TrialResult:
    """One full workload execution on a fresh simulator.

    With ``trace`` set (and enabled), a :class:`TraceSession` records
    tracepoints into a ring buffer and samples vmstat for the trial's
    duration; the capture comes back on ``TrialResult.trace``.  With
    ``metrics`` set (and enabled), a :class:`MetricsSession` meters the
    trial and the aggregate registry comes back on
    ``TrialResult.metrics_registry``.  With ``spans`` set, a
    :class:`~repro.spans.SpanRecorder` records fault spans and the
    finished :class:`~repro.spans.SpanTable` comes back on
    ``TrialResult.spans``.  All three subscribe to the observer bus
    (:mod:`repro.observe`) and are passive, so traced/metered/spanned
    trials are bit-identical to bare ones; every subscriber detaches
    when the trial ends, also when it fails.

    ``_seed_cell``/``_seed_row`` are the seed-major fast lane's private
    context (see :mod:`repro.core.seedmajor`): this trial is row
    *_seed_row* of the cell, its workload reads the pre-stacked trace
    rows and its PTE bits live in the cell's stacked arrays.  Results
    are bit-identical with or without a cell bound.
    """
    engine = Engine()
    rng = RngTree(seed)
    # Cache counters must baseline before prepare() touches the dataset
    # layer, or the trial's own memo/disk traffic vanishes from the
    # metrics delta.
    cache_baseline = None
    if metrics is not None and metrics.enabled:
        cache_baseline = MetricsSession.snapshot_cache_stats()
    workload = make_workload(workload_name)
    if _seed_cell is not None:
        workload.bind_seed_major(_seed_cell, _seed_row)
    dataset_rng = RngTree(DATASET_SEED).subtree("dataset", workload_name)
    footprint = workload.prepare(dataset_rng)
    capacity = max(64, int(footprint * system_config.capacity_ratio))
    system = build_system(engine, rng, system_config, capacity)
    if _seed_cell is not None:
        system.address_space.page_table.use_stacked_row(
            _seed_cell.bits(), _seed_row
        )
    session: Optional[TraceSession] = None
    mx_session: Optional[MetricsSession] = None
    recorder: Optional[SpanRecorder] = None
    try:
        if trace is not None and trace.enabled:
            session = TraceSession(trace, system)
            session.start()
        if metrics is not None and metrics.enabled:
            mx_session = MetricsSession(
                metrics, system, cache_baseline=cache_baseline
            )
            mx_session.start()
        if spans is not None:
            recorder = SpanRecorder(engine, spans)
            recorder.attach(system)
            if spans.profile_interval_ns > 0:
                engine.spawn(
                    recorder.run_profiler(),
                    name="spans-profiler",
                    daemon=True,
                )
        workload.setup(system)
        if _seed_cell is not None:
            _seed_cell.verify_layout(system.address_space, _seed_row)
        system.start()
        workload.spawn(system)
        runtime_ns = engine.run()
    finally:
        # Subscribers are process-global; detach even on error paths
        # so a failed trial cannot leak them into the next one.
        if session is not None:
            session.detach()
        if mx_session is not None:
            mx_session.detach()
        if recorder is not None:
            recorder.detach()
        system.address_space.page_table.release_flat()

    stats = system.stats
    stats.rmap_walks = system.rmap.walk_count
    trial_meta = {
        "workload": workload_name,
        "policy": system_config.policy,
        "swap": system_config.swap,
        "capacity_ratio": system_config.capacity_ratio,
        "seed": seed,
    }
    capture = None
    if session is not None:
        # Finalized after the post-run counter fixups above, so the last
        # vmstat row equals the trial's aggregate counters.
        capture = session.finalize(
            runtime_ns,
            meta={**trial_meta, "costs": asdict(system_config.costs)},
        )
    registry = None
    if mx_session is not None:
        # Same ordering contract: finalize imports the fixed-up counters.
        registry = mx_session.finalize(runtime_ns, meta=trial_meta)
        if capture is not None:
            # Surface ring-buffer overflow where dashboards look: a
            # nonzero value means the event CSV/Chrome trace is missing
            # the oldest events and needs --capacity or --events.
            registry.counter(
                "repro_trace_dropped_events_total",
                help="Trace events lost to ring-buffer overflow (oldest "
                "dropped first); nonzero means the capture is "
                "incomplete — raise ringbuf_capacity or select "
                "fewer tracepoints.",
                unit="events",
            ).inc(capture.dropped_events)
    span_table = None
    if recorder is not None:
        span_table = recorder.finalize(runtime_ns)
    wl_result = workload.result()
    counters = stats.snapshot()
    counters["swap_reads"] = system.swap_device.stats.reads
    counters["swap_writes"] = system.swap_device.stats.writes
    counters["cpu_utilization"] = system.cpu.utilization()
    return TrialResult(
        workload=workload_name,
        policy=system_config.policy,
        swap=system_config.swap,
        capacity_ratio=system_config.capacity_ratio,
        seed=seed,
        runtime_ns=runtime_ns,
        major_faults=stats.major_faults,
        minor_faults=stats.minor_faults,
        counters=counters,
        metrics=wl_result.metrics,
        latencies_ns=wl_result.latencies_ns,
        footprint_pages=footprint,
        capacity_frames=capacity,
        trace=capture,
        metrics_registry=registry,
        spans=span_table,
    )


def _jobs_from_env() -> int:
    """Parse the ``REPRO_JOBS`` knob (default 1 = serial).

    Values below 1 and non-integers fall back to serial with a warning
    rather than erroring mid-sweep; the warning fires once per process
    per distinct value, not on every runner construction.
    """
    return int_knob(
        "REPRO_JOBS", os.environ.get("REPRO_JOBS", "1"), 1, 1,
        "running serial",
    )


class ExperimentRunner:
    """Runs experiment cells with caching and optional progress callbacks.

    ``jobs`` (default: the ``REPRO_JOBS`` env var, itself defaulting to
    1) fans trials out over a process pool.  Each trial is an
    independent ``run_trial(workload, system, seed)`` call with seeds
    derived exactly as in the serial loop, and results are assembled in
    seed order — serial and parallel runs produce identical
    :class:`ExperimentResult`\\ s.
    """

    def __init__(
        self,
        progress: Optional[Callable[[str], None]] = None,
        jobs: Optional[int] = None,
        telemetry: Optional[Any] = None,
    ) -> None:
        """``telemetry``: a :class:`repro.metrics.GridTelemetry` (or any
        object with ``observe_trial(label, trial)``) fed every finished
        trial — the grid-level aggregation end of the worker telemetry
        channel.  Cache hits are not re-observed."""
        self._cache: Dict[tuple, ExperimentResult] = {}
        self._progress = progress
        self.jobs = _jobs_from_env() if jobs is None else max(1, int(jobs))
        self._pool: Optional[ProcessPoolExecutor] = None
        self.telemetry = telemetry
        #: Shared-memory dataset server (parent side); created lazily on
        #: the first parallel fast-lane dispatch, torn down by close().
        self._shm_server: Optional[Any] = None
        self._shm_prepared: set = set()

    def _note(self, message: str) -> None:
        if self._progress is not None:
            self._progress(message)

    def _observe(self, config: ExperimentConfig, trial: TrialResult) -> None:
        if self.telemetry is not None:
            self.telemetry.observe_trial(config.label, trial)

    @staticmethod
    def _key(config: ExperimentConfig) -> tuple:
        return (
            config.workload,
            config.system.policy,
            config.system.swap,
            config.system.capacity_ratio,
            config.n_trials,
            config.base_seed,
            config.trace,
            config.metrics,
        )

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def close(self) -> None:
        """Release workers and shared-memory segments (idempotent).

        The pool shutdown waits for running trials and *cancels* queued
        ones, so an interrupted grid doesn't leak worker processes; the
        shm server close unlinks every exported dataset segment.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self._shm_server is not None:
            self._shm_server.shutdown()
            self._shm_server = None
            self._shm_prepared.clear()

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    def _dataset_manifest(
        self, configs: Iterable[ExperimentConfig]
    ) -> Optional[Dict[str, Any]]:
        """Build + export the datasets of *configs* over shared memory.

        Returns the manifest (content key → segment handle) shipped with
        every worker task, or ``None`` in legacy memo mode.  The
        parent builds each distinct workload's dataset once (hitting its
        own memo/disk cache), exports every memoized dataset, and reuses
        segments across calls.
        """
        from repro.workloads import datasets, make_workload, shm

        if datasets.memo_mode() == "legacy":
            return None
        for name in {config.workload for config in configs}:
            if name in self._shm_prepared:
                continue
            workload = make_workload(name)
            workload.prepare(
                RngTree(DATASET_SEED).subtree("dataset", name)
            )
            self._shm_prepared.add(name)
        if self._shm_server is None:
            self._shm_server = shm.ShmServer()
        for spec, arrays in datasets.memo_items():
            self._shm_server.export(spec.key, arrays)
        manifest = self._shm_server.handles
        return manifest or None

    def _assemble(
        self,
        config: ExperimentConfig,
        trials: Iterable[TrialResult],
    ) -> ExperimentResult:
        result = ExperimentResult(
            workload=config.workload,
            policy=config.system.policy,
            swap=config.system.swap,
            capacity_ratio=config.system.capacity_ratio,
        )
        for trial in trials:
            result.add(trial)
        return result

    def _submit_cell(
        self, config: ExperimentConfig, seeds: List[int],
        manifest: Optional[Dict[str, Any]],
    ) -> List[Future]:
        """Fan one cell's seeds over the pool as seed-chunk tasks."""
        pool = self._ensure_pool()
        return [
            pool.submit(
                run_cell_trials, config.workload, config.system, chunk,
                config.trace, config.metrics, manifest,
            )
            for chunk in chunk_seeds(seeds, self.jobs)
        ]

    def _collect_cell(
        self, config: ExperimentConfig, futures: List[Future]
    ) -> List[TrialResult]:
        """Gather chunk futures in submission order (= seed order)."""
        trials: List[TrialResult] = []
        for future in futures:
            for trial in future.result():
                trials.append(trial)
                self._observe(config, trial)
                self._note(
                    f"{config.label} trial {len(trials)}/{config.n_trials}"
                )
        return trials

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        """Run (or fetch from cache) all trials of one cell."""
        key = self._key(config)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        seeds = list(config.seeds())
        trials: List[TrialResult] = []
        if self.jobs > 1 and len(seeds) > 1 and fast_seeds_enabled():
            # Fast lane: seed-chunk tasks sharing datasets over shm.
            manifest = self._dataset_manifest([config])
            trials = self._collect_cell(
                config, self._submit_cell(config, seeds, manifest)
            )
        elif self.jobs > 1 and len(seeds) > 1:
            # Historical scheduling (REPRO_FAST_SEEDS=0): one task per
            # seed, no dataset sharing beyond each worker's own state.
            futures = [
                self._ensure_pool().submit(
                    run_trial, config.workload, config.system, seed,
                    config.trace, config.metrics,
                )
                for seed in seeds
            ]
            for i, future in enumerate(futures):
                trial = future.result()
                trials.append(trial)
                self._observe(config, trial)
                self._note(f"{config.label} trial {i + 1}/{config.n_trials}")
        else:
            def progress(row: int, _seed: int) -> None:
                self._note(
                    f"{config.label} trial {row + 1}/{config.n_trials}"
                )

            trials = run_cell_trials(
                config.workload, config.system, seeds, config.trace,
                config.metrics, None, progress=progress,
            )
            for trial in trials:
                self._observe(config, trial)
        result = self._assemble(config, trials)
        self._cache[key] = result
        return result

    def run_many(
        self, configs: Iterable[ExperimentConfig]
    ) -> List[ExperimentResult]:
        """Run several cells, fanning *all* their trials over the pool.

        With ``jobs > 1`` every (cell, seed) pair is submitted up front
        so the pool never drains between cells; results are assembled in
        submission order, identical to running each cell serially.
        """
        configs = list(configs)
        if self.jobs <= 1:
            return [self.run(config) for config in configs]
        if fast_seeds_enabled():
            fresh = []
            seen: set = set()
            for config in configs:
                key = self._key(config)
                if key in self._cache or key in seen:
                    continue
                seen.add(key)
                fresh.append(config)
            manifest = self._dataset_manifest(fresh) if fresh else None
            pending_cells: Dict[tuple, tuple] = {}
            for config in fresh:
                seeds = list(config.seeds())
                if len(seeds) > 1:
                    futures = self._submit_cell(config, seeds, manifest)
                    pending_cells[self._key(config)] = (config, futures)
            for key, (config, futures) in pending_cells.items():
                self._cache[key] = self._assemble(
                    config, self._collect_cell(config, futures)
                )
            # Single-seed cells (nothing to fan out) run inline.
            return [self.run(config) for config in configs]
        pending: Dict[tuple, tuple] = {}
        for config in configs:
            key = self._key(config)
            if key in self._cache or key in pending:
                continue
            futures: List[Future] = [
                self._ensure_pool().submit(
                    run_trial, config.workload, config.system, seed,
                    config.trace, config.metrics,
                )
                for seed in config.seeds()
            ]
            pending[key] = (config, futures)
        for key, (config, futures) in pending.items():
            trials = []
            for i, future in enumerate(futures):
                trial = future.result()
                trials.append(trial)
                self._observe(config, trial)
                self._note(f"{config.label} trial {i + 1}/{config.n_trials}")
            self._cache[key] = self._assemble(config, trials)
        return [self._cache[self._key(config)] for config in configs]

    def run_grid(
        self,
        workloads: Iterable[str],
        policies: Iterable[str],
        swap: str = "ssd",
        capacity_ratio: float = 0.5,
        n_trials: int = 25,
        base_seed: int = 10_000,
    ) -> List[ExperimentResult]:
        """Run the cross product of workloads × policies at one
        (swap, ratio) point — the shape of most paper figures."""
        configs = [
            ExperimentConfig(
                workload=workload,
                system=SystemConfig(
                    policy=policy, swap=swap, capacity_ratio=capacity_ratio
                ),
                n_trials=n_trials,
                base_seed=base_seed,
            )
            for workload in workloads
            for policy in policies
        ]
        return self.run_many(configs)
