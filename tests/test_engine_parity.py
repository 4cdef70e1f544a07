"""Parity suite: the two phase engines against each other.

The phase-engine hot core has two implementations behind the
``ParameterProfile.engine`` seam: ``"reference"`` (scalar loops, the test
oracle) and ``"array"`` (vectorized candidate generation over the
PhaseState array mirrors, the default).  Both walk candidates in the same
deterministic key-sorted order, so seeded runs must be *byte-identical*:
same matchings, same counters, same epoch boundaries.  These
property-style tests pin that equivalence on seeded random graphs and
update streams; any divergence means the array mirrors went stale or a
mask dropped/added a candidate.  Any other engine name is rejected when
the profile is built.
"""

import dataclasses
import random

import pytest

from repro.core.boosting import BoostingFramework
from repro.core.config import ParameterProfile
from repro.core.dynamic_boosting import WeakOracleBoostingFramework
from repro.core.operations import apply_augmentations
from repro.core.phase import DirectDriver, run_phase
from repro.dynamic.fully_dynamic import FullyDynamicMatching
from repro.dynamic.offline import OfflineDynamicMatching
from repro.dynamic.weak_oracles import GreedyInducedWeakOracle
from repro.graph.generators import erdos_renyi
from repro.workloads import planted_matching_churn, sliding_window
from repro.instrumentation.counters import Counters
from repro.matching.greedy import greedy_maximal_matching

EPS = 0.25

ARRAY = ParameterProfile.practical(EPS)
REFERENCE = dataclasses.replace(ARRAY, engine="reference")
PROFILES = (ARRAY, REFERENCE)


def mates(matching):
    return [matching.mate(v) for v in range(matching.n)]


class TestPhaseParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_direct_driver_single_phase(self, seed):
        graph = erdos_renyi(40, 0.12, seed=seed)
        base = greedy_maximal_matching(graph)
        results = []
        for profile in PROFILES:
            matching = base.copy()
            counters = Counters()
            records = run_phase(graph, matching, profile, h=0.5,
                                driver=DirectDriver(random.Random(seed)),
                                counters=counters, check_invariants=True)
            apply_augmentations(matching, records)
            results.append((mates(matching), counters.as_dict(),
                            [(r.vertices, sorted(r.new_edges)) for r in records]))
        for other in results[1:]:
            assert other == results[0]

    @pytest.mark.parametrize("seed", range(3))
    def test_oracle_boosting_framework(self, seed):
        graph = erdos_renyi(36, 0.12, seed=seed)
        results = []
        for profile in PROFILES:
            counters = Counters()
            framework = BoostingFramework(EPS, profile=profile,
                                          counters=counters, seed=seed)
            matching = framework.run(graph)
            results.append((mates(matching), counters.as_dict()))
        for other in results[1:]:
            assert other == results[0]

    @pytest.mark.parametrize("seed", range(3))
    def test_weak_oracle_framework(self, seed):
        graph = erdos_renyi(30, 0.15, seed=seed)
        results = []
        for profile in PROFILES:
            counters = Counters()
            framework = WeakOracleBoostingFramework(
                EPS, GreedyInducedWeakOracle(graph, seed=seed),
                profile=profile, counters=counters, seed=seed)
            matching = framework.run(graph)
            results.append((mates(matching), counters.as_dict()))
        for other in results[1:]:
            assert other == results[0]


class TestDynamicParity:
    @pytest.mark.parametrize("seed", range(3))
    def test_fully_dynamic_stream(self, seed):
        stream = planted_matching_churn(8, rounds=2, seed=seed)
        n, updates = stream.n, stream
        results = []
        for profile in PROFILES:
            counters = Counters()
            alg = FullyDynamicMatching(n, EPS, profile=profile,
                                       counters=counters, seed=seed)
            for upd in updates:
                alg.update(upd)
            results.append((mates(alg.current_matching()), counters.as_dict()))
        for other in results[1:]:
            assert other == results[0]

    @pytest.mark.parametrize("seed", range(3))
    def test_offline_stream_sizes_and_epochs(self, seed):
        updates = sliding_window(18, 60, window=16, seed=seed)
        results = []
        for profile in PROFILES:
            counters = Counters()
            alg = OfflineDynamicMatching(18, EPS, profile=profile,
                                         counters=counters, seed=seed)
            sizes = alg.run(updates)
            results.append((sizes, alg.plan_epochs(updates),
                            counters.as_dict()))
        for other in results[1:]:
            assert other == results[0]


class TestEngineSelector:
    @pytest.mark.parametrize("engine", ["kernel", "bogus", ""])
    def test_unknown_engine_rejected_at_construction(self, engine):
        with pytest.raises(ValueError, match="engine must be one of") as exc:
            dataclasses.replace(ARRAY, engine=engine)
        assert "'array'" in str(exc.value)
        assert "'reference'" in str(exc.value)


class TestWarmStart:
    def test_warm_rebuild_work_at_most_cold(self):
        """A warm-started rebuild never reports more work than a cold one."""
        graph = erdos_renyi(40, 0.12, seed=3)

        cold_counters = Counters()
        cold = WeakOracleBoostingFramework(
            EPS, GreedyInducedWeakOracle(graph, seed=3),
            counters=cold_counters, seed=3)
        matching = cold.run(graph)

        warm_counters = Counters()
        warm = WeakOracleBoostingFramework(
            EPS, GreedyInducedWeakOracle(graph, seed=3),
            counters=warm_counters, seed=3)
        warm_matching = warm.run(graph, initial=matching, warm_start=True)

        assert warm_matching.size >= matching.size
        assert warm_counters.get("warm_rebuilds") == 1
        for key in ("phases", "pass_bundles", "weak_oracle_calls"):
            assert warm_counters.get(key) <= cold_counters.get(key), key

    def test_warm_start_scales_are_skipped(self):
        """Warm runs execute only the finest scales' phase schedules."""
        graph = erdos_renyi(30, 0.2, seed=4)
        base = WeakOracleBoostingFramework(
            EPS, GreedyInducedWeakOracle(graph, seed=4), seed=4)
        matching = base.run(graph)

        counters = Counters()
        warm = WeakOracleBoostingFramework(
            EPS, GreedyInducedWeakOracle(graph, seed=4),
            counters=counters, seed=4)
        warm.run(graph, initial=matching, warm_start=True)
        # at most 2 scales x (phases until 2 stagnant ones) -- far below the
        # full schedule; the bound is loose on purpose (sampling noise)
        max_phases = 2 * (2 + matching.size)
        assert counters.get("phases") <= max_phases
