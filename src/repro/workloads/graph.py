"""Power-law graph generation and CSR layout for PageRank.

The GAP benchmark's PageRank inputs are scale-free graphs whose degree
skew is exactly what the paper's PageRank analysis leans on: "the work
per thread varies with the degree of each graph vertex" (§V-B).  We
generate Chung-Lu-style graphs — endpoint probabilities proportional to
per-vertex weights ``(i + i0)^-alpha`` — fully vectorized, then pack
them into CSR arrays and compute the page-level layout the simulator
accesses (8-byte entries, 512 per 4 KiB page).

Low vertex indices are the hubs, so their rank-vector pages are touched
by every thread (hot), while tail pages are touched rarely — the graded
hotness spectrum generation-based policies are supposed to resolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import ConfigError

#: 8-byte entries per 4 KiB page.
ENTRIES_PER_PAGE = 512


@dataclass
class CSRGraph:
    """A directed graph in compressed-sparse-row form."""

    n_vertices: int
    #: offsets[v]..offsets[v+1] index into ``targets``.
    offsets: np.ndarray
    #: Concatenated out-neighbour lists.
    targets: np.ndarray

    @property
    def n_edges(self) -> int:
        """Total directed edges."""
        return int(self.targets.shape[0])

    def out_degree(self, v: int) -> int:
        """Out-degree of vertex *v*."""
        return int(self.offsets[v + 1] - self.offsets[v])

    def degrees(self) -> np.ndarray:
        """Out-degrees of all vertices."""
        return np.diff(self.offsets)

    # ------------------------------------------------------------------
    # Page-level layout helpers
    # ------------------------------------------------------------------

    def n_offset_pages(self) -> int:
        """Pages holding the offsets array."""
        return -(-(self.n_vertices + 1) // ENTRIES_PER_PAGE)

    def n_edge_pages(self) -> int:
        """Pages holding the targets array."""
        return max(1, -(-self.n_edges // ENTRIES_PER_PAGE))

    def n_rank_pages(self) -> int:
        """Pages holding one rank vector."""
        return -(-self.n_vertices // ENTRIES_PER_PAGE)

    def rank_page_incidence(self) -> np.ndarray:
        """Boolean ``(n_edge_pages, n_rank_pages)`` matrix: entry
        ``[p, r]`` is set when an edge on edge page *p* targets a vertex
        on rank page *r*."""
        touched = np.zeros(
            (self.n_edge_pages(), self.n_rank_pages()), dtype=bool
        )
        touched[
            np.arange(self.n_edges) // ENTRIES_PER_PAGE,
            self.targets // ENTRIES_PER_PAGE,
        ] = True
        return touched

    def edge_page_rank_pages(self) -> List[np.ndarray]:
        """For each edge page, the *distinct* rank pages its edges read.

        This is the page-granularity access pattern of one PageRank
        iteration: processing the 512 edges of edge page *p* touches the
        rank page of each target vertex, and at accessed-bit granularity
        only the distinct pages matter.  Each list is sorted ascending.
        """
        touched = self.rank_page_incidence()
        rows, pages = np.nonzero(touched)
        per_page = np.bincount(rows, minlength=touched.shape[0])
        return np.split(pages, np.cumsum(per_page)[:-1])


def _inverse_cdf_sample(
    cdf: np.ndarray, rng: np.random.Generator, n: int
) -> np.ndarray:
    """``np.searchsorted(cdf, rng.random(n), side="left")``, exactly.

    *cdf* is nondecreasing and ends at 1.  Keys and *cdf* are scaled by
    ``G``, a power of two, which is exact, so a key's bucket
    ``floor(key * G)`` is exact too and brackets its answer between the
    answers at the bucket's two edges (a guide table).  A vectorized
    bisection settles the brackets still open with the comparisons a
    binary search makes.  Unlike a searchsorted of random keys over a
    large *cdf*, every pass is cache-friendly.
    """
    n_buckets = 1 << (len(cdf).bit_length() + 1)
    scaled = cdf * n_buckets
    # bracket[j] = #{i : cdf[i] < j / G} = #{i : floor(scaled[i]) < j}.
    bracket = np.zeros(n_buckets + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(scaled.astype(np.int64), minlength=n_buckets + 1)[
            :n_buckets
        ],
        out=bracket[1:],
    )
    is_open = np.diff(bracket) > 0
    keys = rng.random(n)
    keys *= n_buckets
    bucket = keys.astype(np.int64)
    open_ = np.flatnonzero(is_open[bucket])
    # Keep only the open keys and free bucket early: peak memory stays
    # at two n-length arrays (this runs on millions of edges).
    keys = keys[open_]
    hi = bracket[bucket[open_] + 1]
    found = bracket[bucket]
    del bucket
    while open_.size:
        lo = found[open_]
        mid = (lo + hi) >> 1
        right = scaled[mid] < keys
        lo = np.where(right, mid + 1, lo)
        hi = np.where(right, hi, mid)
        found[open_] = lo
        still = lo < hi
        open_ = open_[still]
        hi = hi[still]
        keys = keys[still]
    return found


def power_law_graph(
    n_vertices: int,
    n_edges: int,
    rng: np.random.Generator,
    alpha: float = 0.65,
    i0: int = 4,
) -> CSRGraph:
    """Generate a Chung-Lu power-law graph in CSR form.

    ``alpha`` controls the skew of the expected-degree sequence
    ``w_i ∝ (i + i0)^-alpha``; both edge endpoints are drawn from it, so
    hubs attract both in- and out-edges.  Self-loops and multi-edges are
    kept (PageRank tolerates them and GAP inputs contain them).
    """
    if n_vertices < 2:
        raise ConfigError("graph needs at least 2 vertices")
    if n_edges < 1:
        raise ConfigError("graph needs at least 1 edge")
    weights = np.power(np.arange(n_vertices, dtype=np.float64) + i0, -alpha)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    sources = _inverse_cdf_sample(cdf, rng, n_edges)
    targets = _inverse_cdf_sample(cdf, rng, n_edges)
    counts = np.bincount(sources, minlength=n_vertices)
    # CSR: order edges by source, ties in draw order (a stable sort),
    # by sorting the unique keys source * n_edges + edge index, built
    # in the sources buffer.
    order = sources
    order *= n_edges
    order += np.arange(n_edges)
    order.sort()
    order %= n_edges
    offsets = np.zeros(n_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return CSRGraph(
        n_vertices=n_vertices,
        offsets=offsets,
        targets=targets[order],
    )
