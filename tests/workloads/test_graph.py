"""Power-law graph generation, CSR layout, numeric PageRank."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.workloads.graph import (
    ENTRIES_PER_PAGE,
    _inverse_cdf_sample,
    power_law_graph,
)
from repro.workloads.pagerank import pagerank_scores


def graph(n=2000, m=16_000, seed=0, alpha=0.65):
    return power_law_graph(n, m, np.random.default_rng(seed), alpha=alpha)


class TestGeneration:
    def test_edge_count(self):
        g = graph()
        assert g.n_edges == 16_000

    def test_csr_consistency(self):
        g = graph()
        assert g.offsets[0] == 0
        assert g.offsets[-1] == g.n_edges
        assert (np.diff(g.offsets) >= 0).all()
        assert (g.degrees() == np.diff(g.offsets)).all()
        assert g.targets.min() >= 0 and g.targets.max() < g.n_vertices

    def test_degree_skew(self):
        g = graph()
        degrees = np.sort(g.degrees())[::-1]
        # Power law: top vertex far above the mean degree.
        assert degrees[0] > 5 * degrees.mean()

    def test_hubs_are_low_indices(self):
        g = graph()
        degrees = g.degrees()
        assert degrees[:20].mean() > degrees[-1000:].mean() * 3

    def test_alpha_controls_skew(self):
        flat = graph(alpha=0.05)
        steep = graph(alpha=0.95)
        def top_share(g):
            d = np.sort(g.degrees())[::-1]
            return d[:20].sum() / d.sum()
        assert top_share(steep) > top_share(flat)

    def test_deterministic_per_seed(self):
        a, b = graph(seed=5), graph(seed=5)
        assert (a.targets == b.targets).all()

    def test_bad_args_rejected(self):
        with pytest.raises(ConfigError):
            power_law_graph(1, 10, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            power_law_graph(10, 0, np.random.default_rng(0))


class FixedKeys:
    """Stands in for a Generator whose ``random(n)`` returns *keys*."""

    def __init__(self, keys):
        self.keys = np.asarray(keys, dtype=np.float64)

    def random(self, n):
        assert n == len(self.keys)
        return self.keys.copy()


class TestInverseCdfSample:
    """The guide-table sampler against ``np.searchsorted`` itself."""

    @pytest.mark.parametrize("alpha", [0.0, 0.65, 2.5])
    @pytest.mark.parametrize("n", [1, 2, 7, 1000])
    def test_matches_searchsorted(self, n, alpha):
        cdf = np.cumsum(np.power(np.arange(n, dtype=np.float64) + 4, -alpha))
        cdf /= cdf[-1]
        keys = np.random.default_rng(n).random(20_000)
        # Keys exactly on every bucket edge and on every cdf value.
        buckets = 1 << (n.bit_length() + 1)
        keys[:buckets] = np.arange(buckets) / buckets
        keys[-n:] = cdf % 1.0
        got = _inverse_cdf_sample(cdf, FixedKeys(keys), len(keys))
        assert (got == np.searchsorted(cdf, keys, side="left")).all()

    def test_plateaus_match_searchsorted(self):
        # Zero weights make runs of equal cdf values.
        weights = np.tile([1.0, 0.0, 0.0, 3.0, 0.0], 40)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        keys = np.concatenate(
            [cdf[cdf < 1.0], np.random.default_rng(0).random(5000)]
        )
        got = _inverse_cdf_sample(cdf, FixedKeys(keys), len(keys))
        assert (got == np.searchsorted(cdf, keys, side="left")).all()


class TestPageLayout:
    def test_page_counts(self):
        g = graph(n=2000, m=16_000)
        assert g.n_rank_pages() == -(-2000 // ENTRIES_PER_PAGE)
        assert g.n_offset_pages() == -(-2001 // ENTRIES_PER_PAGE)
        assert g.n_edge_pages() == -(-16_000 // ENTRIES_PER_PAGE)

    def test_edge_page_rank_pages_distinct_and_sorted(self):
        g = graph()
        lists = g.edge_page_rank_pages()
        assert len(lists) == g.n_edge_pages()
        for arr in lists:
            assert (np.diff(arr) > 0).all()  # unique & sorted
            assert arr.max() < g.n_rank_pages()


class TestNumericPageRank:
    def test_scores_are_a_distribution(self):
        g = graph()
        scores = pagerank_scores(g, n_iterations=30)
        assert scores.sum() == pytest.approx(1.0, abs=1e-6)
        assert (scores > 0).all()

    def test_hubs_score_high(self):
        g = graph()
        scores = pagerank_scores(g, n_iterations=30)
        top = np.argsort(scores)[::-1][:50]
        # Hubs (low indices, high in-degree under Chung-Lu) dominate.
        assert np.median(top) < g.n_vertices / 10

    def test_converges(self):
        g = graph(n=500, m=4000)
        a = pagerank_scores(g, n_iterations=40)
        b = pagerank_scores(g, n_iterations=80)
        assert np.abs(a - b).max() < 1e-4

    def test_agrees_with_networkx(self):
        networkx = pytest.importorskip("networkx")
        g = graph(n=300, m=2500)
        scores = pagerank_scores(g, n_iterations=100)
        nx_graph = networkx.DiGraph()
        nx_graph.add_nodes_from(range(g.n_vertices))
        for v in range(g.n_vertices):
            for t in g.targets[g.offsets[v] : g.offsets[v + 1]]:
                # MultiDiGraph semantics differ; collapse parallel edges
                # for the comparison by weighting.
                if nx_graph.has_edge(v, int(t)):
                    nx_graph[v][int(t)]["weight"] += 1.0
                else:
                    nx_graph.add_edge(v, int(t), weight=1.0)
        nx_scores = networkx.pagerank(
            nx_graph, alpha=0.85, max_iter=200, weight="weight"
        )
        ours = scores / scores.sum()
        top_ours = set(np.argsort(ours)[::-1][:10].tolist())
        top_nx = set(
            sorted(nx_scores, key=nx_scores.get, reverse=True)[:10]
        )
        assert len(top_ours & top_nx) >= 7  # same hubs, minor order drift
