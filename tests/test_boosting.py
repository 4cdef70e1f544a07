"""Tests for the static boosting framework (Section 5 / Theorem 1.1)."""

import dataclasses
import hashlib

import pytest

from repro.graph.generators import blossom_gadget, disjoint_paths, erdos_renyi
from repro.graph.graph import Graph
from repro.matching.blossom import maximum_matching_size
from repro.matching.matching import Matching
from repro.matching.verify import certify_approximation
from repro.instrumentation.counters import Counters
import repro.core.boosting as boosting_module
from repro.core.boosting import (
    BoostingFramework,
    boost_matching,
    build_stage_graph,
    build_structure_graph,
)
from repro.core.config import ParameterProfile
from repro.core.oracles import ExactMatchingOracle, GreedyMatchingOracle, RandomGreedyMatchingOracle
from repro.core.operations import overtake_op
from repro.core.structures import PhaseState
from repro.congest.boost_congest import congest_boosted_matching
from repro.mpc.boost_mpc import mpc_boosted_matching


class TestInitialMatching:
    def test_lemma53_constant_approximation(self):
        counters = Counters()
        framework = BoostingFramework(0.25, counters=counters, seed=0)
        for seed in range(3):
            g = erdos_renyi(40, 0.1, seed=seed)
            m = framework.initial_matching(g)
            m.validate(g)
            assert 4 * m.size >= maximum_matching_size(g)

    def test_lemma53_call_budget(self):
        counters = Counters()
        framework = BoostingFramework(0.25, counters=counters, seed=0)
        g = erdos_renyi(40, 0.1, seed=9)
        framework.initial_matching(g)
        # at most 2c + 1 calls with the greedy (c = 2) oracle
        assert counters.get("oracle_calls") <= 2 * 2 + 1

    def test_empty_graph(self):
        framework = BoostingFramework(0.25, seed=0)
        assert framework.initial_matching(Graph(4)).size == 0


class TestDerivedGraphs:
    def _grown_state(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5)])
        m = Matching(6, [(1, 2), (3, 4)])
        state = PhaseState(g, m, ell_max=8)
        state.init_structures()
        overtake_op(state, 0, 1, 1)
        overtake_op(state, 5, 4, 1)
        return state

    def test_structure_graph_h_prime(self):
        state = self._grown_state()
        hprime, witness = build_structure_graph(state)
        assert hprime.n == 2           # two structures
        assert hprime.m == 1           # connected by the type-2 arc (2, 3)
        ((key, (u, v)),) = witness.items()
        assert state.arc_type(u, v) == 2

    def test_stage_graph_h_s(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        m = Matching(4, [(1, 2)])
        state = PhaseState(g, m, ell_max=8)
        state.init_structures()
        hs, witness, num_left = build_stage_graph(state, stage=0)
        # left: the two singleton structures 0 and 3; right: vertices 1 and 2
        assert num_left == 2
        assert hs.m == 2  # (0,1) and (3,2) are both 0-feasible
        for key, (x, y) in witness.items():
            assert state.arc_type(x, y) == 3

    def test_stage_graph_excludes_wrong_stage(self):
        state = self._grown_state()
        hs, witness, num_left = build_stage_graph(state, stage=5)
        assert hs.m == 0


class TestEndToEnd:
    def test_quality_with_greedy_oracle(self, medium_graphs):
        eps = 0.25
        for name, g in medium_graphs:
            counters = Counters()
            m = boost_matching(g, eps, seed=1, counters=counters)
            m.validate(g)
            ok, ratio = certify_approximation(g, m, eps)
            assert ok, f"{name}: ratio {ratio}"
            assert counters.get("oracle_calls") > 0

    def test_quality_with_exact_oracle(self):
        g = disjoint_paths(5, 9)
        m = boost_matching(g, 1 / 8, oracle=ExactMatchingOracle(), seed=2)
        ok, ratio = certify_approximation(g, m, 1 / 8)
        assert ok, ratio

    def test_quality_with_random_greedy_oracle(self):
        g = blossom_gadget(6, 4)
        m = boost_matching(g, 1 / 8, oracle=RandomGreedyMatchingOracle(seed=5), seed=2)
        ok, ratio = certify_approximation(g, m, 1 / 8)
        assert ok, ratio

    def test_oracle_calls_grow_with_precision(self):
        g = disjoint_paths(6, 9)
        calls = []
        for eps in (0.5, 0.25, 0.125):
            counters = Counters()
            boost_matching(g, eps, seed=3, counters=counters)
            calls.append(counters.get("oracle_calls"))
        assert calls[0] <= calls[-1]

    def test_warm_start_from_given_matching(self):
        g = erdos_renyi(40, 0.1, seed=4)
        framework = BoostingFramework(0.25, seed=0)
        initial = framework.initial_matching(g)
        m = framework.run(g, initial=initial)
        assert m.size >= initial.size
        m.validate(g)

    def test_invariants_hold_throughout(self):
        g = erdos_renyi(30, 0.15, seed=5)
        m = boost_matching(g, 0.25, seed=6, check_invariants=True)
        m.validate(g)

    def test_counters_record_schedule(self):
        g = erdos_renyi(30, 0.1, seed=6)
        counters = Counters()
        boost_matching(g, 0.25, seed=7, counters=counters)
        profile = ParameterProfile.practical(0.25)
        assert counters.get("phases") >= 1
        # every pass-bundle walks all stages 0..ell_max once, skipped or not
        assert counters.get("stages") == ((profile.ell_max + 1)
                                          * counters.get("pass_bundles"))
        assert counters.get("oracle_vertices_seen") >= 0

    def test_stage_graph_built_only_at_eligible_stages(self, monkeypatch):
        # The first H'_s of a stage is built before anything in the bundle
        # can change, so the eligibility computed then is the one the driver
        # saw when the stage began.
        g = erdos_renyi(40, 0.1, seed=8)
        counters = Counters()
        seen = set()
        real = boosting_module.build_stage_graph

        def guarded(state, stage):
            key = (state.counters.get("pass_bundles"), stage)
            if key not in seen:
                seen.add(key)
                assert stage in state.eligible_stages()
            return real(state, stage)

        monkeypatch.setattr(boosting_module, "build_stage_graph", guarded)
        m = boost_matching(g, 1 / 8, seed=8, counters=counters)
        m.validate(g)
        assert seen
        assert len(seen) < counters.get("stages")


# ---------------------------------------------------------------------------
# Golden pins for the oracle-driven static path
# ---------------------------------------------------------------------------
#
# Both engines must agree (the parity suites check that), but a driver change
# that moves both the same way would pass them.  These digests pin the
# absolute outcome of every solver built on it: the final matching and every
# counter.  They were recorded before the static driver skipped ineligible
# stages, and re-recorded when the scale loop moved to the effective
# schedule (``ParameterProfile.schedule``), which draws a different stream.

def _static_digest(matching, counters):
    payload = repr((sorted(matching.edges()),
                    sorted(counters.as_dict().items())))
    return hashlib.sha256(payload.encode()).hexdigest()


GOLDEN_ORACLE_DRIVEN = {
    "greedy": "5008fa676db3c5b63b07bdcec7afea8ceb7ae50f95d80f253781422532ae04e8",
    "mpc": "10beac12a8d80bf6f66c23a7996a5be655bac0babc7d706830514e025dc4354a",
    "congest": "b4556d8cf5dd2a90c551249f28eb867eecebe288b6434a7b635342ae9a8366b8",
}



def _er_with_planted_paths(n, avg_degree, paths, path_len, seed):
    er = erdos_renyi(n, avg_degree / n, seed=seed)
    planted = disjoint_paths(paths, path_len)
    g = Graph(er.n + planted.n)
    g.add_edges(er.edges())
    g.add_edges((er.n + u, er.n + v) for u, v in planted.edges())
    return g


class TestQualityOnHarderFamilies:
    """(1+eps) against blossom where the schedule merges many scales.

    ER(120, avg degree 4) plus three planted 21-vertex paths: long
    augmenting paths, and n small enough that every scale from h = 1/32 on
    runs the same phase, so the merged schedule decides the outcome.
    """

    @pytest.mark.parametrize("eps", (1 / 4, 1 / 8, 1 / 16))
    @pytest.mark.parametrize("solver", ("greedy", "mpc", "congest"))
    def test_ratio_within_eps(self, solver, eps):
        for seed in (1, 2, 3):
            g = _er_with_planted_paths(120, 4.0, 3, 21, seed)
            if solver == "greedy":
                m = boost_matching(g, eps, seed=seed)
            elif solver == "mpc":
                m, _ = mpc_boosted_matching(g, eps, seed=seed)
            else:
                m, _ = congest_boosted_matching(g, eps, seed=seed)
            m.validate(g)
            optimum = maximum_matching_size(g)
            assert optimum <= (1 + eps) * m.size, (seed, optimum, m.size)

class TestGoldenOracleDriven:
    @pytest.mark.parametrize("engine", ("array", "reference"))
    @pytest.mark.parametrize("solver", sorted(GOLDEN_ORACLE_DRIVEN))
    def test_solver_stream(self, solver, engine):
        g = erdos_renyi(60, 0.06, seed=14)
        counters = Counters()
        profile = dataclasses.replace(ParameterProfile.practical(1 / 8),
                                      engine=engine)
        if solver == "greedy":
            m = boost_matching(g, 1 / 8, profile=profile, counters=counters,
                               seed=14)
        elif solver == "mpc":
            m, _ = mpc_boosted_matching(g, 1 / 8, profile=profile,
                                        counters=counters, seed=14)
        else:
            m, _ = congest_boosted_matching(g, 1 / 8, profile=profile,
                                            counters=counters, seed=14)
        m.validate(g)
        assert _static_digest(m, counters) == GOLDEN_ORACLE_DRIVEN[solver]
