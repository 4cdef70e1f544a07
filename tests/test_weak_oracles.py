"""Tests for the concrete Aweak implementations (Definition 6.1)."""

import pytest

from repro.graph.generators import erdos_renyi, planted_matching
from repro.instrumentation.counters import Counters
from repro.matching.blossom import maximum_matching_size
from repro.matching.matching import Matching
from repro.dynamic.weak_oracles import (
    ExactInducedWeakOracle,
    GreedyInducedWeakOracle,
    OMvWeakOracle,
    SamplingWeakOracle,
)


def _check_is_matching_in_subset(graph, subset, edges):
    s = set(subset)
    used = set()
    for u, v in edges:
        assert graph.has_edge(u, v)
        assert u in s and v in s
        assert u not in used and v not in used
        used.update((u, v))


class TestGreedyInduced:
    def test_definition61_guarantee(self):
        g, _ = planted_matching(30, 0.02, seed=1)
        oracle = GreedyInducedWeakOracle(g, seed=1)
        subset = list(range(g.n))
        result = oracle.query(subset, delta=0.4)
        assert result is not None
        _check_is_matching_in_subset(g, subset, result)
        # lambda = 1/2: at least half of mu(G[S]) when not returning bottom
        assert 2 * len(result) >= maximum_matching_size(g)

    def test_returns_none_on_empty_subgraph(self):
        g = erdos_renyi(10, 0.0, seed=0)
        oracle = GreedyInducedWeakOracle(g)
        assert oracle.query(list(range(10)), 0.1) is None


class TestExactInduced:
    def test_exact_on_induced_subgraph(self):
        g = erdos_renyi(20, 0.3, seed=2)
        oracle = ExactInducedWeakOracle(g)
        subset = list(range(12))
        result = oracle.query(subset, 0.1)
        sub, _ = g.induced_subgraph(subset)
        if result is None:
            assert maximum_matching_size(sub) == 0
        else:
            _check_is_matching_in_subset(g, subset, result)
            assert len(result) == maximum_matching_size(sub)


class TestSampling:
    def test_returns_matching_with_probes_counted(self):
        g, _ = planted_matching(40, 0.05, seed=3)
        counters = Counters()
        oracle = SamplingWeakOracle(g, rounds=16, seed=3, counters=counters)
        result = oracle.query(list(range(g.n)), delta=0.2)
        assert result is not None
        _check_is_matching_in_subset(g, list(range(g.n)), result)
        assert counters.get("weak_probe_count") > 0

    def test_small_subset_returns_none(self):
        g = erdos_renyi(10, 0.5, seed=4)
        oracle = SamplingWeakOracle(g, seed=4)
        assert oracle.query([3], 0.1) is None


class TestOMvOracle:
    def test_bipartite_query(self):
        g = erdos_renyi(16, 0.3, seed=5)
        oracle = OMvWeakOracle(g)
        left = list(range(8))
        right = list(range(8, 16))
        result = oracle.query_bipartite(left, right, 0.1)
        if result is not None:
            for u, v in result:
                assert g.has_edge(u, v)
                assert u in set(left) and v in set(right)

    @pytest.mark.parametrize("n", (24, 1200))  # scalar and packed OMv paths
    def test_bipartite_query_with_overlapping_sides(self, n):
        g = erdos_renyi(n, min(1.0, 12 / n), seed=5)
        oracle = OMvWeakOracle(g)
        left = list(range(0, n, 2)) + list(range(1, n // 2, 2))
        right = list(range(1, n, 2))
        result = oracle.query_bipartite(left, right, 0.1)
        assert result
        left_set = set(left)
        right_only = set(right) - left_set
        used_right = set()
        for u, v in result:
            assert g.has_edge(u, v)
            assert u in left_set
            assert v in right_only, f"left vertex {v} used as a right endpoint"
            assert v not in used_right
            used_right.add(v)

    def test_plain_query_projects_to_matching(self):
        g = erdos_renyi(16, 0.3, seed=6)
        oracle = OMvWeakOracle(g)
        result = oracle.query(list(range(16)), 0.1)
        assert result is not None
        m = Matching(g.n, result)
        m.validate(g)

    def test_notify_update_keeps_matrix_in_sync(self):
        g = erdos_renyi(10, 0.2, seed=7)
        oracle = OMvWeakOracle(g)
        g.add_edge(0, 1) if not g.has_edge(0, 1) else None
        oracle.notify_update(0, 1, True)
        assert oracle.omv.get(0, 1) and oracle.omv.get(1, 0)
        g.remove_edge(0, 1)
        oracle.notify_update(0, 1, False)
        assert not oracle.omv.get(0, 1)

    def test_rebuild(self):
        g = erdos_renyi(10, 0.2, seed=8)
        oracle = OMvWeakOracle(g)
        g.add_edge(0, 2) if not g.has_edge(0, 2) else None
        oracle.rebuild()
        assert oracle.omv.get(0, 2)

    def test_counters_shared(self):
        g = erdos_renyi(12, 0.3, seed=9)
        counters = Counters()
        oracle = OMvWeakOracle(g, counters=counters)
        oracle.query(list(range(12)), 0.1)
        assert counters.get("omv_queries") > 0
