"""A parallel grid equals a serial one and exits clean.

The runner builds each fanned workload's dataset in the parent before it
submits the cell, so pool workers forked afterwards inherit it.  The run
below forks its workers before the PageRank dataset exists, so they must
load it from the disk cache, or rebuild it with the cache off.  Either
way every parallel ``run_many`` must equal a serial runner's, and
nothing may reach stderr.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import textwrap

REPO = pathlib.Path(__file__).resolve().parents[2]

SCRIPT = textwrap.dedent(
    """
    import json

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

    def summaries(results):
        return [golden.summary(t) for result in results for t in result.trials]

    runner = ExperimentRunner(jobs=2)
    serial = ExperimentRunner(jobs=1)
    for workloads in (["tpch"], ["tpch", "pagerank"], ["tpch", "pagerank"]):
        parallel = summaries(runner.run_many(configs(workloads)))
        expected = summaries(serial.run_many(configs(workloads)))
        print(json.dumps({"parallel": parallel, "serial": expected}))
    runner.close()
    print("done")
    """
)


def test_parallel_grid_stderr_is_empty(tmp_path):
    """With the disk cache on and off, every parallel ``run_many``
    equals a serial runner's, and nothing reaches stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO), env.get("PYTHONPATH", "")]
    )
    for cache in (str(tmp_path / "cache"), "off"):
        env["REPRO_TRACE_CACHE"] = cache
        proc = subprocess.run(
            [sys.executable, "-c", SCRIPT],
            env=env, cwd=tmp_path, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        *runs, last = proc.stdout.strip().splitlines()
        assert last == "done"
        assert len(runs) == 3
        for line in runs:
            run = json.loads(line)
            assert run["parallel"] == run["serial"], cache
        assert proc.stderr == "", cache

