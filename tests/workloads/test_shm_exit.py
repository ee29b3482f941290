"""A parallel grid that shares datasets over shared memory exits clean.

Pool workers forked from the runner share its ``resource_tracker``.  A
worker that unregisters its attachments there drops the parent's own
registration, and the tracker prints a ``KeyError: '/psm_…'``
traceback for every such segment when the parent unlinks it.  The run
below forks its workers before the PageRank dataset exists, so they
must attach that dataset's segment, and checks that nothing reaches
stderr.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import textwrap

REPO = pathlib.Path(__file__).resolve().parents[2]

SCRIPT = textwrap.dedent(
    """
    import repro.workloads as workloads_pkg
    from repro.core.config import ExperimentConfig, SystemConfig
    from repro.core.experiment import ExperimentRunner
    from repro.workloads.pagerank import PageRankParams, PageRankWorkload
    from tests.core import golden

    workloads_pkg.WORKLOAD_FACTORIES["pagerank"] = lambda: PageRankWorkload(
        PageRankParams(n_vertices=2048, avg_degree=6, n_iterations=2,
                       n_threads=2)
    )
    workloads_pkg.WORKLOAD_FACTORIES["tpch"] = golden.tiny_tpch

    def configs(workloads):
        return [
            ExperimentConfig(
                workload=workload,
                system=SystemConfig(
                    policy=policy, swap="zram", capacity_ratio=0.5
                ),
                n_trials=2,
                base_seed=5,
            )
            for workload in workloads
            for policy in ("clock", "mglru")
        ]

    runner = ExperimentRunner(jobs=2)
    runner.run_many(configs(["tpch"]))
    for _ in range(2):
        runner.run_many(configs(["tpch", "pagerank"]))
    runner.close()
    print("done")
    """
)


def test_parallel_grid_stderr_is_empty(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO), env.get("PYTHONPATH", "")]
    )
    env["REPRO_TRACE_CACHE"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "done"
    assert proc.stderr == ""


def test_unrelated_process_attach_leaves_segment(tmp_path):
    """A process that shares no tracker with the exporter runs its own;
    attaching there must not hand the segment to that tracker, which
    would unlink it when the process exits."""
    import numpy as np
    from multiprocessing import shared_memory

    from repro.workloads import shm

    server = shm.ShmServer()
    try:
        handle = server.export("k", {"a": np.arange(10, dtype=np.int64)})
        child = textwrap.dedent(
            f"""
            from repro.workloads.shm import ShmDatasetHandle, attach_dataset

            views = attach_dataset({handle!r})
            print(int(views["a"].sum()))
            """
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        # capture_output waits for the child's tracker too: it holds the
        # same stderr pipe until it has exited.
        proc = subprocess.run(
            [sys.executable, "-c", child],
            env=env, cwd=tmp_path, capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "45"
        assert proc.stderr == ""
        segment = shared_memory.SharedMemory(name=handle.segment)
        segment.close()
    finally:
        server.shutdown()
