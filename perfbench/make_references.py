"""Record the committed reference digests in ``perfbench/references.json``.

Runs one round per (workload, seed) in this process with the pinned
environment and stores its per-trial digests.  Re-record only when a
change is *meant* to alter simulated outputs, and say so in the change.

    python3 perfbench/make_references.py --seeds 0-19 [--workload NAME]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import env
    from perfbench.cells import CELLS
    from perfbench.digest import REFERENCES_PATH, load_references

    work = ROOT / ".perfbench_work" / f"refs-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        env.pin_environment(work / "trace-cache")
        references = load_references()
        for name in args.workload or list(CELLS):
            cell = CELLS[name]
            entry = references.setdefault(name, {})
            for seed in seeds:
                cell.setup(seed)
                entry[str(seed)] = cell.digests(cell.execute(seed))
                print(f"{name} seed {seed}: {entry[str(seed)]}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCES_PATH.write_text(format_references(references))
    return 0


def format_references(references: dict) -> str:
    """JSON with one line per (workload, seed), seeds in numeric order."""
    blocks = []
    for name in sorted(references):
        rows = [
            f'    "{seed}": {json.dumps(references[name][seed])}'
            for seed in sorted(references[name], key=int)
        ]
        blocks.append(f'  "{name}": {{\n' + ",\n".join(rows) + "\n  }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
