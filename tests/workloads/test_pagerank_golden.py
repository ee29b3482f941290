"""Golden digests of the PageRank dataset builder.

``tests/data/pagerank_dataset_golden.json`` pins, array for array, what
:func:`~repro.workloads.pagerank.build_pagerank_dataset` returns for the
default :class:`PageRankParams` under the experiment's fixed dataset
seed, for a few small parameter sets (including threads that own no
edge page), and what :func:`power_law_graph` plus
:meth:`CSRGraph.edge_page_rank_pages` return for a few small
``(n, m, seed, alpha)`` graphs.  The digests were captured from the
loop-based builder that the vectorized one replaced, so the on-disk
trace-cache entries (keyed on ``PAGERANK_DATASET_GENERATION``) stay
valid.

Regenerate only for a deliberate change to the dataset (and bump
``PAGERANK_DATASET_GENERATION`` with it)::

    PYTHONPATH=src python -m tests.workloads.test_pagerank_golden
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, Iterable

import numpy as np
import pytest

from repro.core.experiment import DATASET_SEED
from repro.sim.rng import RngTree
from repro.workloads.graph import power_law_graph
from repro.workloads.pagerank import (
    PAGERANK_DATASET_GENERATION,
    PageRankParams,
    build_pagerank_dataset,
)

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parents[1]
    / "data"
    / "pagerank_dataset_golden.json"
)

#: Dataset parameter sets: the default (what every paper cell uses),
#: and small graphs where some threads own no edge page.
DATASET_CASES = {
    "default": PageRankParams(),
    "small": PageRankParams(n_vertices=4096, avg_degree=6, n_threads=4),
    "sparse": PageRankParams(
        n_vertices=4096, avg_degree=1, power_law_alpha=2.5, n_threads=12
    ),
    "steep": PageRankParams(
        n_vertices=1500, avg_degree=9, power_law_alpha=1.3, n_threads=5
    ),
}

#: ``(n_vertices, n_edges, seed, alpha)``: a partial last edge page,
#: a single rank page, a single edge, and skews flat to steep.
GRAPH_CASES = [
    (2000, 16_000, 0, 0.65),
    (300, 2500, 3, 0.95),
    (5000, 1001, 7, 0.05),
    (1024, 40_000, 11, 1.2),
    (2, 1, 0, 0.65),
]


def array_digest(arr: np.ndarray) -> str:
    """SHA-256 over dtype, shape and the raw bytes."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def list_digest(arrays: Iterable[np.ndarray]) -> str:
    """SHA-256 over a sequence of arrays, element boundaries included."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(array_digest(arr).encode())
    return h.hexdigest()


def graph_key(n: int, m: int, seed: int, alpha: float) -> str:
    return f"{n}-{m}-{seed}-{alpha}"


def dataset_digests(params: PageRankParams) -> Dict[str, str]:
    rng = RngTree(DATASET_SEED).subtree("dataset", "pagerank")
    data = build_pagerank_dataset(params, rng)
    return {name: array_digest(arr) for name, arr in sorted(data.items())}


def graph_digests(n: int, m: int, seed: int, alpha: float) -> Dict[str, str]:
    g = power_law_graph(n, m, np.random.default_rng(seed), alpha=alpha)
    return {
        "offsets": array_digest(g.offsets),
        "targets": array_digest(g.targets),
        "edge_page_rank_pages": list_digest(g.edge_page_rank_pages()),
    }


def compute_golden() -> dict:
    return {
        "generation": PAGERANK_DATASET_GENERATION,
        "datasets": {
            name: dataset_digests(p) for name, p in DATASET_CASES.items()
        },
        "graphs": {
            graph_key(*case): graph_digests(*case) for case in GRAPH_CASES
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_generation_unchanged(golden):
    assert PAGERANK_DATASET_GENERATION == golden["generation"]


@pytest.mark.parametrize("name", sorted(DATASET_CASES))
def test_dataset_arrays_bit_identical(golden, name):
    assert dataset_digests(DATASET_CASES[name]) == golden["datasets"][name]


@pytest.mark.parametrize("case", GRAPH_CASES, ids=lambda c: graph_key(*c))
def test_graph_and_page_lists_bit_identical(golden, case):
    assert graph_digests(*case) == golden["graphs"][graph_key(*case)]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(compute_golden(), indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
