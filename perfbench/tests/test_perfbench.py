"""Tests of the benchmark itself (digest check, tracer purity, metric
names, shrunk runs).  Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
import sys
import time

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import run  # noqa: E402
from perfbench.cells import (  # noqa: E402
    CELLS,
    big_fleet_config,
    fastlane_config,
)
from perfbench.digest import ReferenceCheck, trial_digest  # noqa: E402
from perfbench.tracer import LayerTracer  # noqa: E402


@pytest.fixture(autouse=True)
def pinned(monkeypatch, tmp_path):
    """Default knobs, a private trace cache, small workloads."""
    from repro import workloads
    from repro.workloads.pagerank import PageRankParams, PageRankWorkload
    from repro.workloads.ycsb import YCSBParams, YCSBWorkload

    for name in list(__import__("os").environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
    monkeypatch.setitem(
        workloads.WORKLOAD_FACTORIES, "pagerank",
        lambda: PageRankWorkload(PageRankParams(
            n_vertices=4096, n_iterations=2, n_threads=4,
        )),
    )
    monkeypatch.setitem(
        workloads.WORKLOAD_FACTORIES, "ycsb-a",
        lambda: YCSBWorkload("a", YCSBParams(
            n_items=1200, n_requests=3000, n_threads=2,
        )),
    )


def shrunk(name: str):
    """The named cell at test size (paper cells shrink through the
    workload factories patched above)."""
    cell = CELLS[name]
    if name == "fleet-pressure":
        return dataclasses.replace(
            cell, make_config=lambda: big_fleet_config(8, 2000)
        )
    if name == "fleet-serve":
        return dataclasses.replace(
            cell, make_config=lambda: fastlane_config(8, 5000)
        )
    return cell


def _measure(cell, tmp_path, trace=False, references=None):
    """A shrunk run; with no *references* the cold round is the
    reference (the committed digests are for full-size cells)."""
    return run.measure(
        cell, 3, 0.0, trace, tmp_path, references=references or {},
        setup_probes=False, out_dir=tmp_path / "out",
    )


def test_perturbed_reference_makes_error_rate_nonzero(tmp_path):
    cell = shrunk("ycsb-a-write")
    good = _measure(cell, tmp_path)
    assert good["check"]["failed"] == 0
    assert good["check"]["error_rate"] == 0.0

    digests = cell.digests(cell.execute(3))
    perturbed = [d[:-1] + ("0" if d[-1] != "0" else "1") for d in digests]
    bad = _measure(cell, tmp_path, references={cell.name: {"3": perturbed}})
    assert bad["check"]["reference"] == "committed"
    assert bad["check"]["failed"] == bad["check"]["attempted"] > 0
    assert bad["check"]["error_rate"] == 1.0

    exact = _measure(cell, tmp_path, references={cell.name: {"3": digests}})
    assert exact["check"]["failed"] == 0


def test_raising_round_counts_as_failed():
    check = ReferenceCheck("x", 0, references={})
    check.observe(["a", "b"])
    check.observe_error(2, "boom")
    check.observe(["a", "c"])
    assert (check.attempted, check.failed) == (6, 3)


def test_traced_trial_is_bit_identical():
    from repro.core.config import SystemConfig
    from repro.core.experiment import run_trial

    config = SystemConfig(policy="clock", swap="ssd", capacity_ratio=0.5)
    plain = run_trial("ycsb-a", config, 7)
    tracer = LayerTracer()
    with tracer.installed():
        traced = run_trial("ycsb-a", config, 7)
    assert trial_digest(traced) == trial_digest(plain)
    assert traced.counters == plain.counters
    assert traced.metrics == plain.metrics
    assert traced.latencies_ns.keys() == plain.latencies_ns.keys()
    for op, arr in plain.latencies_ns.items():
        assert np.array_equal(traced.latencies_ns[op], arr)
    calls = tracer.layer_calls()
    for layer in ("workloads", "sim", "mm.access", "mm.fault", "core"):
        assert calls[layer] > 0, layer
    assert len(tracer.systems) == 1
    # Uninstalled: the class attributes are the originals again.
    from repro.mm.system import MemorySystem

    assert not hasattr(MemorySystem.access_run, "__wrapped__")


def test_generator_wrapper_forwards_send_throw_close():
    log = []

    def inner():
        try:
            got = yield 1
            log.append(("sent", got))
            try:
                yield 2
            except KeyError:
                log.append("caught")
            yield 3
            yield 4
        finally:
            log.append("closed")
        return "done"

    tracer = LayerTracer()
    tracer.frame_layer["inner"] = "workloads"
    gen = tracer.wrap("inner", inner)()
    assert next(gen) == 1
    assert gen.send("x") == 2
    assert gen.throw(KeyError("k")) == 3
    gen.close()
    assert log == [("sent", "x"), "caught", "closed"]
    assert tracer.calls["inner"] == 5  # call + 3 resumptions + close

    def returns():
        yield 1
        return "value"

    def outer():
        result = yield from tracer.wrap("inner", returns)()
        return result

    driven = outer()
    assert next(driven) == 1
    with pytest.raises(StopIteration) as stop:
        next(driven)
    assert stop.value.value == "value"
    assert not tracer._stack


def test_self_time_excludes_children():
    tracer = LayerTracer()
    tracer.frame_layer.update(outer="core", inner="sim")

    def inner():
        time.sleep(0.02)

    wrapped_inner = tracer.wrap("inner", inner)

    def outer():
        wrapped_inner()

    tracer.wrap("outer", outer)()
    assert tracer.self_ns["inner"] >= 20_000_000
    assert tracer.self_ns["outer"] < tracer.self_ns["inner"]
    assert tracer.covered_ns == tracer.self_ns["outer"] + tracer.self_ns["inner"]
    lines = tracer.folded_lines()
    assert any(line.startswith("core:outer;sim:inner ") for line in lines)


def test_metric_names_are_declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    pattern = re.compile(r"^[A-Za-z0-9_.-]+$")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layer == run.per_layer_units()
    for name in [*e2e, *layer]:
        assert pattern.match(name), name
    assert {w["name"] for w in bench["workloads"]} == set(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_shrunk_run_finishes_in_seconds(name, tmp_path):
    cell = shrunk(name)
    t0 = time.perf_counter()
    plain = _measure(cell, tmp_path)
    traced = _measure(cell, tmp_path, trace=True)
    assert time.perf_counter() - t0 < 60
    assert plain["check"]["failed"] == traced["check"]["failed"] == 0
    assert traced["traced"]["traced_equals_plain"]
    assert set(plain["metrics"]) == set(run.END_TO_END_UNITS)
    assert set(traced["metrics"]) == set(run.per_layer_units())
    assert plain["metrics"]["ops_per_s"]["value"] > 0
    assert (tmp_path / "out" / f"{name}.folded").read_text()


def test_setup_probe_runs_in_a_fresh_process(tmp_path):
    samples = run.measure_setup("fleet-serve", 0, tmp_path)
    assert len(samples) == run.SETUP_PROBES
    assert all(s > 0 for s in samples)
