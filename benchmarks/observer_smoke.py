"""Observer smoke verifier for the CI ``psi-smoke`` and ``spans-smoke`` jobs.

Checks three contracts over a pair of fleet sinks produced by
``python -m repro.fleet run`` for one or more observer planes (one run
with every plane off, one with the selected planes on, same cell):

1. **Baseline byte-identity** — the plane-off sink must equal the
   committed ``tests/data/psi_smoke_baseline.jsonl`` byte for byte
   (the sim is machine-independent and the sink header carries no
   timestamps; with every observer off both jobs produce the identical
   sink, so any diff is a real behavior change).
2. **Observer purity** — every plane-on row, minus the selected
   planes' sections, must equal the corresponding plane-off row.
3. **Plane invariants**, for each selected plane:

   - ``psi``: per row, the sampled ``some/full`` totals are
     non-decreasing, ``full <= some`` at every tick and in the
     trial-end snapshot, ``avg10`` values are percentages in [0, 100],
     and each tenant's violation-stall overlap is bounded by both of
     its operands;
   - ``spans``: per row, each tenant's span total equals its fault
     histogram's exact nanosecond sum (and the fault counts match),
     the per-segment nanoseconds sum to the total, the row-level table
     partitions into the tenant sections, and every retained record's
     segments sum to its total.

Usage::

    python benchmarks/observer_smoke.py --plane PLANES \\
        --off OFF.jsonl --on ON.jsonl [--baseline PATH]

``PLANES`` is ``psi``, ``spans``, or ``psi,spans`` for a run with both
planes on together.

Exits non-zero with a list of violations on any failure.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.fleet.sink import load_rows  # noqa: E402


def _strip(row: dict, sections: List[str]) -> dict:
    out = {k: v for k, v in row.items() if k not in sections}
    out["tenants"] = [
        {k: v for k, v in t.items() if k not in sections}
        for t in row["tenants"]
    ]
    return out


def check_baseline(off_path: str, baseline_path: str, name: str) -> List[str]:
    off_bytes = pathlib.Path(off_path).read_bytes()
    base_bytes = pathlib.Path(baseline_path).read_bytes()
    if off_bytes != base_bytes:
        return [
            f"{name}-off sink {off_path} differs from committed baseline "
            f"{baseline_path} ({len(off_bytes)} vs {len(base_bytes)} "
            f"bytes) — {name}-off behavior changed"
        ]
    return []


def check_purity(
    off_rows: list, on_rows: list, name: str, sections: List[str]
) -> List[str]:
    failures: List[str] = []
    key = lambda r: (r["policy"], r["seed"])  # noqa: E731
    off_by_key = {key(r): r for r in off_rows}
    for row in on_rows:
        missing = [s for s in sections if s not in row]
        if missing:
            failures.append(
                f"{key(row)}: {name}-on row carries no "
                f"{'/'.join(missing)} section"
            )
            continue
        off = off_by_key.get(key(row))
        if off is None:
            failures.append(f"{key(row)}: no matching {name}-off row")
            continue
        if json.dumps(_strip(row, sections), sort_keys=True) != json.dumps(
            off, sort_keys=True
        ):
            failures.append(
                f"{key(row)}: {name}-on row minus {'/'.join(sections)} "
                f"sections differs from the {name}-off row"
            )
    return failures


def check_psi(on_rows: list) -> List[str]:
    failures: List[str] = []
    for row in on_rows:
        tag = (row["policy"], row["seed"])
        psi = row.get("psi")
        if not psi:
            continue
        prev_t = prev_some = prev_full = -1
        for t, some_ns, full_ns, avg10, favg10 in psi["samples"]:
            if t <= prev_t:
                failures.append(f"{tag}: sample times not increasing")
                break
            if some_ns < prev_some or full_ns < prev_full:
                failures.append(f"{tag}: stall totals decreased")
                break
            if full_ns > some_ns:
                failures.append(f"{tag}: full stall exceeds some")
                break
            if not (0.0 <= avg10 <= 100.0 and 0.0 <= favg10 <= 100.0):
                failures.append(f"{tag}: avg10 outside [0, 100]")
                break
            prev_t, prev_some, prev_full = t, some_ns, full_ns
        system = psi["system"]
        if system["full_total_us"] > system["some_total_us"]:
            failures.append(f"{tag}: final full total exceeds some")
        for t in row["tenants"]:
            tp = t.get("psi")
            if tp is None:
                failures.append(f"{tag}: tenant {t['tenant']} lacks psi")
                continue
            if not (0 <= tp["viol_stall_ns"] <= tp["viol_ns"]):
                failures.append(
                    f"{tag}: tenant {t['tenant']} viol_stall_ns outside "
                    "[0, viol_ns]"
                )
            if tp["viol_stall_ns"] > tp["stall_ns"]:
                failures.append(
                    f"{tag}: tenant {t['tenant']} viol_stall_ns exceeds "
                    "stall_ns"
                )
    return failures


def check_spans(on_rows: list) -> List[str]:
    failures: List[str] = []
    for row in on_rows:
        tag = (row["policy"], row["seed"])
        table = row.get("spans")
        if not table:
            continue
        group_total = {}
        group_faults = {}
        for t in row["tenants"]:
            ts = t.get("spans")
            if ts is None:
                failures.append(f"{tag}: tenant {t['tenant']} lacks spans")
                continue
            hist = t["fault_hist"]
            if ts["total_ns"] != hist["sum"]:
                failures.append(
                    f"{tag}: tenant {t['tenant']} span total "
                    f"{ts['total_ns']}ns != fault-histogram sum "
                    f"{hist['sum']}ns"
                )
            if ts["faults"] != hist["count"]:
                failures.append(
                    f"{tag}: tenant {t['tenant']} span fault count "
                    f"{ts['faults']} != histogram count {hist['count']}"
                )
            if sum(ts["seg_ns"].values()) != ts["total_ns"]:
                failures.append(
                    f"{tag}: tenant {t['tenant']} segment nanoseconds "
                    "do not sum to the span total"
                )
            group_total[f"t{t['tenant']}"] = ts["total_ns"]
            group_faults[f"t{t['tenant']}"] = ts["faults"]
        for name, total in group_total.items():
            if table["group_total_ns"].get(name, 0) != total:
                failures.append(
                    f"{tag}: row table group {name} total differs from "
                    "the tenant section"
                )
            if table["group_faults"].get(name, 0) != group_faults[name]:
                failures.append(
                    f"{tag}: row table group {name} fault count differs "
                    "from the tenant section"
                )
        for record in table.get("records", []):
            if sum(record["segs"].values()) != record["total_ns"]:
                failures.append(
                    f"{tag}: retained record (vpn {record['vpn']}) "
                    "segments do not sum to its total"
                )
                break
    return failures


#: Plane name (also its row/tenant section key) → (display name,
#: invariant check).
PLANES = {"psi": ("PSI", check_psi), "spans": ("spans", check_spans)}


def summary(plane: str, on_rows: list) -> str:
    if plane == "psi":
        n_samples = sum(
            len(r.get("psi", {}).get("samples", [])) for r in on_rows
        )
        return (
            f"psi smoke OK: {len(on_rows)} PSI-on rows, {n_samples} "
            "sampler ticks, baseline byte-identical, purity + invariants "
            "hold"
        )
    n_faults = sum(r.get("spans", {}).get("n_faults", 0) for r in on_rows)
    return (
        f"spans smoke OK: {len(on_rows)} spans-on rows, {n_faults} fault "
        "spans, baseline byte-identical, purity + exactness hold"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--plane",
        required=True,
        help=f"comma-separated planes that were on: {', '.join(PLANES)}",
    )
    parser.add_argument("--off", required=True, help="plane-off sink path")
    parser.add_argument("--on", required=True, help="plane-on sink path")
    parser.add_argument(
        "--baseline",
        default=str(
            pathlib.Path(__file__).resolve().parent.parent
            / "tests"
            / "data"
            / "psi_smoke_baseline.jsonl"
        ),
    )
    args = parser.parse_args(argv)
    planes = args.plane.split(",")
    for plane in planes:
        if plane not in PLANES:
            parser.error(
                f"unknown plane {plane!r}; choose from {', '.join(PLANES)}"
            )
    name = "+".join(PLANES[plane][0] for plane in planes)

    failures = check_baseline(args.off, args.baseline, name)
    _, off_rows = load_rows(args.off)
    _, on_rows = load_rows(args.on)
    failures += check_purity(off_rows, on_rows, name, planes)
    for plane in planes:
        failures += PLANES[plane][1](on_rows)

    if failures:
        print(f"{name.upper()} SMOKE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    for plane in planes:
        print(summary(plane, on_rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
