"""Contract tests for the workload stream sources (``repro.workloads``).

Each source is a lazy :class:`~repro.workloads.streams.UpdateStream`; the
tests materialize it with ``list(stream)`` and pin the contracts of every
family: update counts and kinds, seeded determinism, termination on
degenerate inputs, and eager parameter validation.
"""

import pytest

from repro.graph.dynamic_graph import DynamicGraph, Update
from repro.workloads import (
    adversarial_matched_edge_deletions,
    insertion_only,
    ors_reveal,
    planted_matching_churn,
    sliding_window,
)


class TestInsertionOnly:
    def test_counts_and_kinds(self):
        updates = list(insertion_only(20, 30, seed=1))
        assert len(updates) == 30
        assert all(u.kind == Update.INSERT for u in updates)

    def test_no_duplicate_insertions(self):
        updates = list(insertion_only(10, 40, seed=2))
        edges = [(u.u, u.v) for u in updates]
        assert len(edges) == len(set(edges))

    def test_applies_cleanly(self):
        updates = list(insertion_only(15, 25, seed=3))
        dg = DynamicGraph(15)
        changed = dg.apply_all(updates)
        assert changed == 25

    def test_m_capped_at_possible_edges(self):
        updates = list(insertion_only(4, 100, seed=10))
        assert len(updates) == 6  # 4*3/2 distinct edges exist

    def test_degenerate_n_terminates(self):
        assert list(insertion_only(0, 5, seed=10)) == []
        assert list(insertion_only(1, 5, seed=10)) == []

    def test_seeded_determinism(self):
        assert list(insertion_only(12, 20, seed=11)) == \
            list(insertion_only(12, 20, seed=11))
        assert list(insertion_only(12, 20, seed=11)) != \
            list(insertion_only(12, 20, seed=12))


class TestSlidingWindow:
    def test_length_and_window_bound(self):
        updates = list(sliding_window(20, 100, window=10, seed=4))
        assert len(updates) == 100
        dg = DynamicGraph(20)
        for upd in updates:
            dg.apply(upd)
            assert dg.m <= 10

    def test_deletions_follow_insertions(self):
        updates = list(sliding_window(10, 60, window=5, seed=5))
        dg = DynamicGraph(10)
        for upd in updates:
            if upd.kind == Update.DELETE:
                assert dg.graph.has_edge(upd.u, upd.v)
            dg.apply(upd)

    def test_window_exceeding_possible_edges_terminates(self):
        # used to loop forever: all 3 possible edges live, no delete due
        updates = list(sliding_window(3, 10, window=10, seed=6))
        assert len(updates) == 10
        dg = DynamicGraph(3)
        for upd in updates:
            dg.apply(upd)
            assert dg.m <= 3  # the effective window is the edge count

    def test_degenerate_n_terminates(self):
        assert list(sliding_window(0, 10, window=4, seed=6)) == []
        assert list(sliding_window(1, 10, window=4, seed=6)) == []
        assert list(sliding_window(5, 0, window=4, seed=6)) == []

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            sliding_window(5, 10, window=0)
        with pytest.raises(ValueError, match="window"):
            sliding_window(5, 10, window=-3)

    def test_seeded_determinism(self):
        a = list(sliding_window(10, 50, window=7, seed=13))
        b = list(sliding_window(10, 50, window=7, seed=13))
        assert a == b


class TestPlantedChurn:
    def test_matching_stays_large(self):
        from repro.matching.blossom import maximum_matching_size

        stream = planted_matching_churn(12, rounds=4, seed=6)
        n, updates = stream.n, list(stream)
        dg = DynamicGraph(n)
        dg.apply_all(updates)
        # after all churn rounds the planted matching is restored
        assert maximum_matching_size(dg.graph) == 12

    def test_invalid_churn_fraction_rejected(self):
        for bad in (1.5, 0.0, -0.25):
            with pytest.raises(ValueError, match="churn_fraction"):
                planted_matching_churn(8, rounds=1, churn_fraction=bad)

    def test_degenerate_n_pairs_rejected(self):
        for bad in (0, -3):
            with pytest.raises(ValueError, match="n_pairs"):
                planted_matching_churn(bad, rounds=1)

    def test_full_churn_fraction_allowed(self):
        stream = planted_matching_churn(6, rounds=2, churn_fraction=1.0,
                                        seed=7)
        n, updates = stream.n, list(stream)
        dg = DynamicGraph(n)
        dg.apply_all(updates)

    def test_exact_update_counts(self):
        n_pairs, rounds, frac = 10, 3, 0.3
        updates = list(planted_matching_churn(n_pairs, rounds=rounds,
                                              churn_fraction=frac, seed=8))
        k = max(1, int(frac * n_pairs))
        deletes = sum(1 for u in updates if u.kind == Update.DELETE)
        assert deletes == k * rounds
        # prefix: one insert per initial graph edge (planted + noise); then
        # each churn round deletes k planted edges and re-inserts them
        initial = len(updates) - 2 * k * rounds
        assert initial >= n_pairs
        assert all(u.kind == Update.INSERT for u in updates[:initial])

    def test_seeded_determinism(self):
        assert list(planted_matching_churn(9, rounds=2, seed=21)) == \
            list(planted_matching_churn(9, rounds=2, seed=21))
        assert list(planted_matching_churn(9, rounds=2, seed=21)) != \
            list(planted_matching_churn(9, rounds=2, seed=22))


class TestOrsReveal:
    def test_reveal_then_remove(self):
        stream = ors_reveal(40, 4, 3, seed=7)
        n, updates = stream.n, list(stream)
        dg = DynamicGraph(n)
        dg.apply_all(updates)
        assert dg.m == 0  # everything inserted is deleted again
        assert dg.max_edges_seen > 0

    def test_seeded_determinism(self):
        assert list(ors_reveal(30, 3, 3, seed=9)) == \
            list(ors_reveal(30, 3, 3, seed=9))


class TestAdversarial:
    def test_targets_current_matching(self):
        from repro.matching.matching import Matching

        matching = Matching(10, [(0, 1), (2, 3)])
        stream = adversarial_matched_edge_deletions(
            5, rounds=5, current_matching=matching.edge_list, seed=8)
        assert stream.n == 10
        upd = next(iter(stream), None)
        assert upd is not None
        if upd.kind == Update.DELETE:
            assert matching.contains_edge(upd.u, upd.v)

    def test_terminates(self):
        from repro.matching.matching import Matching

        matching = Matching(10, [(0, 1)])
        stream = iter(adversarial_matched_edge_deletions(
            5, rounds=3, current_matching=matching.edge_list, seed=9))
        pulls = [next(stream, None) for _ in range(10)]
        assert any(p is None for p in pulls)
