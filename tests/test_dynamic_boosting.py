"""Tests for the weak-oracle boosting framework (Section 6 / Theorem 6.2)."""

import dataclasses
import hashlib
import random

import pytest

from repro.core.config import ParameterProfile
from repro.dynamic.fully_dynamic import FullyDynamicMatching
from repro.graph.generators import blossom_gadget, disjoint_paths, erdos_renyi
from repro.matching.blossom import maximum_matching_size
from repro.matching.verify import certify_approximation
from repro.instrumentation.counters import Counters
from repro.core.dynamic_boosting import WeakOracleBoostingFramework, boost_matching_weak
from repro.dynamic.weak_oracles import (
    ExactInducedWeakOracle,
    GreedyInducedWeakOracle,
    SamplingWeakOracle,
)
from repro.workloads import planted_matching_churn


class TestInitialMatching:
    def test_lemma67_constant_approximation(self):
        for seed in range(3):
            g = erdos_renyi(40, 0.1, seed=seed)
            counters = Counters()
            framework = WeakOracleBoostingFramework(
                0.25, GreedyInducedWeakOracle(g, seed=seed), counters=counters, seed=0)
            m = framework.initial_matching(g)
            m.validate(g)
            assert 3 * m.size >= maximum_matching_size(g)
            assert counters.get("weak_oracle_calls") >= 1


class TestEndToEnd:
    def test_quality_with_greedy_induced_oracle(self, medium_graphs):
        eps = 0.25
        for name, g in medium_graphs:
            m = boost_matching_weak(g, eps, GreedyInducedWeakOracle(g, seed=1), seed=1)
            m.validate(g)
            ok, ratio = certify_approximation(g, m, eps)
            assert ok, f"{name}: ratio {ratio}"

    def test_quality_with_exact_induced_oracle(self):
        g = disjoint_paths(4, 7)
        m = boost_matching_weak(g, 1 / 8, ExactInducedWeakOracle(g), seed=2)
        ok, ratio = certify_approximation(g, m, 1 / 8)
        assert ok, ratio

    def test_quality_with_sampling_oracle(self):
        g = erdos_renyi(50, 0.12, seed=3)
        oracle = SamplingWeakOracle(g, rounds=12, seed=3)
        m = boost_matching_weak(g, 0.25, oracle, seed=3, sampling_rounds=6)
        m.validate(g)
        ok, ratio = certify_approximation(g, m, 0.25)
        assert ok, ratio

    def test_blossom_instances(self):
        g = blossom_gadget(5, 4)
        m = boost_matching_weak(g, 1 / 8, GreedyInducedWeakOracle(g, seed=4), seed=4)
        ok, ratio = certify_approximation(g, m, 1 / 8)
        assert ok, ratio

    def test_counts_weak_oracle_calls(self):
        g = erdos_renyi(40, 0.1, seed=5)
        counters = Counters()
        boost_matching_weak(g, 0.25, GreedyInducedWeakOracle(g, seed=5),
                            counters=counters, seed=5)
        assert counters.get("weak_oracle_calls") > 0

    def test_counters_record_schedule(self):
        g = erdos_renyi(40, 0.1, seed=5)
        counters = Counters()
        boost_matching_weak(g, 0.25, GreedyInducedWeakOracle(g, seed=5),
                            counters=counters, seed=5)
        profile = ParameterProfile.practical(0.25)
        # every pass-bundle walks all stages 0..ell_max once, skipped or not
        assert counters.get("stages") == ((profile.ell_max + 1)
                                          * counters.get("pass_bundles"))

    def test_oracle_must_be_bound_to_input_graph(self):
        g1 = erdos_renyi(20, 0.2, seed=6)
        g2 = erdos_renyi(20, 0.2, seed=7)
        framework = WeakOracleBoostingFramework(0.25, GreedyInducedWeakOracle(g1))
        with pytest.raises(ValueError):
            framework.run(g2)

    def test_invariants_hold(self):
        g = erdos_renyi(30, 0.15, seed=8)
        m = boost_matching_weak(g, 0.25, GreedyInducedWeakOracle(g, seed=8),
                                seed=8, check_invariants=True)
        m.validate(g)


# ---------------------------------------------------------------------------
# Golden stream pins
# ---------------------------------------------------------------------------
#
# The parity suites compare engines and repair modes with each other, so a
# change to the sampling driver that moves every engine's random stream the
# same way would pass them all.  These digests were recorded before the
# driver's hot loops were fused and pin the absolute outcome: the final
# matching, every counter, and the framework rng's state afterwards.

def _digest(matching, counters, rng):
    payload = repr((sorted(matching.edges()),
                    sorted(counters.as_dict().items()),
                    rng.getstate()))
    return hashlib.sha256(payload.encode()).hexdigest()


GOLDEN_STATIC = "b655fc1a6a197819f18413854ea39fc39e7a2adf5b32393a034b467dcfe679d1"
GOLDEN_CHURN = "fef27c38bbd5fb8acd6cc7cfdb40547f1e8da303ffd632290eeb9bbea5f07387"


class TestGoldenStream:
    @pytest.mark.parametrize("engine", ("array", "reference"))
    def test_static_boost_stream(self, engine):
        g = erdos_renyi(150, 0.02, seed=11)
        counters = Counters()
        profile = dataclasses.replace(ParameterProfile.practical(0.25),
                                      engine=engine)
        framework = WeakOracleBoostingFramework(
            0.25, GreedyInducedWeakOracle(g, seed=11), profile=profile,
            counters=counters, seed=11)
        m = framework.run(g)
        m.validate(g)
        assert _digest(m, counters, framework.rng) == GOLDEN_STATIC

    @pytest.mark.parametrize("repair", ("rebuild", "incremental"))
    @pytest.mark.parametrize("engine", ("array", "reference"))
    def test_churn_stream_every_update_rebuilds(self, engine, repair):
        # 20 pairs keep int(eps/8 * |M|) at 0, so every update rebuilds
        stream = planted_matching_churn(20, rounds=3, seed=12)
        counters = Counters()
        profile = dataclasses.replace(ParameterProfile.practical(0.25),
                                      engine=engine, repair=repair)
        alg = FullyDynamicMatching(stream.n, 0.25, profile=profile,
                                   counters=counters, seed=12)
        updates = 0
        for upd in stream:
            alg.update(upd)
            updates += 1
        assert counters.get("dyn_rebuilds") >= updates
        m = alg.current_matching()
        m.validate(alg.dynamic_graph.graph)
        assert _digest(m, counters, alg._framework.rng) == GOLDEN_CHURN


class TestInlinedBoundedDraw:
    """The driver's inlined draw is CPython's ``_randbelow_with_getrandbits``.

    The sampling driver draws ``k = n.bit_length()`` bits and rejects values
    ``>= n``; that must match ``random.Random._randbelow`` draw for draw and
    leave the generator in the same state, or every seeded run would drift.
    """

    @staticmethod
    def _inlined(rng, n):
        getrandbits = rng.getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    @pytest.mark.parametrize("seed", (0, 1, 2026))
    def test_matches_randbelow(self, seed):
        # 1..130 covers n=1 (one bit, drawn until 0) and the powers of two
        ref = random.Random(seed)
        ours = random.Random(seed)
        for _round in range(4):
            for n in range(1, 131):
                assert self._inlined(ours, n) == ref._randbelow(n)
                assert ours.getstate() == ref.getstate()
