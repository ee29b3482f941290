"""One cold set-up in a fresh process, for the ``setup_s`` metric.

Run by :mod:`perfbench.run` with the pinned environment and an empty
private trace cache.  Imports the simulator, builds the workload's
datasets and plans its first round, then prints ``ready`` and exits;
the parent times from spawn to that line.

    python3 perfbench/setup_probe.py --workload NAME --seed N
"""

from __future__ import annotations

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    # Replace the script directory so sibling modules are only
    # importable as ``perfbench.*``.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.cells import CELLS

    CELLS[args.workload].setup(args.seed)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
