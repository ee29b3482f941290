"""Import boundaries, each checked in a fresh interpreter.

``scipy.stats`` takes over a second to import and serves only the
figure statistics in :mod:`repro.core.stats`, which import it on first
use.  Every fresh process — a CLI command, a figure bench, a grid
worker — pays for whatever its entry point imports, so each module
below must leave scipy unloaded.

The simulator core reaches the observability planes only through the
observer bus (:mod:`repro.observe`): importing it must load none of
the plane packages.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

ENTRY_POINTS = [
    "repro",
    "repro.core.experiment",
    "repro.fleet.trial",
    "repro.mm.system",
    "repro.trace.__main__",
    "repro.metrics.__main__",
    "repro.spans.__main__",
    "repro.fleet.__main__",
]


def run_fresh(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_entry_point_leaves_scipy_unloaded(module):
    out = run_fresh(
        f"import sys, importlib; importlib.import_module({module!r}); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert out == "[]", f"importing {module} loaded {out}"


def test_figures_still_resolve_without_scipy():
    out = run_fresh(
        "import sys, repro; "
        "print(len(repro.FIGURES), 'scipy' in sys.modules)"
    )
    assert out == f"{len(repro.FIGURES)} False"


SIMULATOR_MODULES = [
    "repro.mm.system",
    "repro.sim.engine",
    "repro.swapdev.ssd",
    "repro.policies.mglru.policy",
    "repro.memcg",
]
OBSERVER_PLANES = ("repro.trace", "repro.metrics", "repro.psi", "repro.spans")


def test_simulator_core_loads_no_observer_plane():
    out = run_fresh(
        "import sys, importlib\n"
        f"for module in {SIMULATOR_MODULES!r}:\n"
        "    importlib.import_module(module)\n"
        "print(sorted(m for m in sys.modules\n"
        f"             if m.startswith({OBSERVER_PLANES!r})))"
    )
    assert out == "[]", f"the simulator core loaded {out}"
