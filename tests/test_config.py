"""Tests for the parameter schedules (repro.core.config)."""

import math

import pytest

from repro.core.boosting import boost_matching
from repro.core.config import MIN_EPS, ParameterProfile
from repro.graph.graph import Graph


class TestConstruction:
    def test_eps_rounded_to_power_of_two_inverse(self):
        p = ParameterProfile.practical(0.3)
        assert p.eps == 0.25
        p = ParameterProfile.practical(0.25)
        assert p.eps == 0.25
        p = ParameterProfile.practical(0.2)
        assert p.eps == 0.125

    def test_invalid_eps_rejected(self):
        with pytest.raises(ValueError):
            ParameterProfile.practical(0.0)
        with pytest.raises(ValueError):
            ParameterProfile.practical(0.7)

    @pytest.mark.parametrize("ctor", (ParameterProfile.paper,
                                      ParameterProfile.practical))
    def test_eps_too_small_for_int64_labels_rejected(self, ctor):
        # l_max + 1 = 3/eps + 1 must fit the int64 label arrays
        assert ctor(MIN_EPS).ell_max + 1 <= 2 ** 63 - 1
        for eps in (MIN_EPS / 2, 1e-300, 5e-324):
            with pytest.raises(ValueError, match=r"at least 2\*\*-61"):
                ctor(eps)

    def test_tiny_eps_fails_before_solving(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match=r"at least 2\*\*-61"):
            boost_matching(g, 1e-300)

    def test_paper_profile_formulas(self):
        p = ParameterProfile.paper(0.25, c=2.0)
        assert p.ell_max == 12  # 3/eps
        assert p.phase_factor == 144.0 and p.bundle_factor == 72.0
        assert p.delta == pytest.approx(0.25 ** 107)
        assert not p.early_exit
        # 22 * c * ln(1/eps)
        assert p.sim_iterations == math.ceil(22 * 2 * math.log(4))

    def test_practical_profile_is_small(self):
        p = ParameterProfile.practical(0.25)
        assert p.early_exit
        assert p.phases(0.5) <= p.max_phase_cap
        assert p.sim_iterations < 20


class TestSchedule:
    def test_scales_decrease_to_floor(self):
        p = ParameterProfile.practical(0.25)
        assert p.scales[0] == 0.5
        for a, b in zip(p.scales, p.scales[1:]):
            assert b == a / 2
        assert p.scales[-1] >= (p.eps ** 2) / 64 - 1e-12

    @pytest.mark.parametrize("k", (2, 17, 20))
    def test_scales_end_exactly_at_floor(self, k):
        eps = 2.0 ** -k
        for p in (ParameterProfile.paper(eps), ParameterProfile.practical(eps)):
            assert p.scales[-1] == eps ** 2 / 64
            assert len(p.scales) == 2 * k + 6

    def test_phase_and_bundle_counts_grow_as_scale_shrinks(self):
        p = ParameterProfile.paper(0.25)
        assert p.phases(0.25) > p.phases(0.5)
        assert p.pass_bundles(0.25) > p.pass_bundles(0.5)

    def test_structure_limit(self):
        p = ParameterProfile.practical(0.25)
        assert p.structure_limit(0.5) >= 3
        assert p.structure_limit(0.125) > p.structure_limit(0.5)

    def test_structure_size_bound_lemma45(self):
        p = ParameterProfile.paper(0.25)
        assert p.structure_size_bound(0.5) == math.ceil(36 * 0.5 / 0.25)

    def test_stages_cover_all_labels(self):
        p = ParameterProfile.practical(0.25)
        stages = list(p.stages())
        assert stages[0] == 0 and stages[-1] == p.ell_max

    def test_label_default(self):
        p = ParameterProfile.practical(0.25)
        assert p.label_default == p.ell_max + 1


def _literal(profile, scales=None):
    scales = profile.scales if scales is None else scales
    return [(h, profile.phases(h)) for h in scales]


class TestEffectiveSchedule:
    @pytest.mark.parametrize("n", (2, 37, 1000, 100_000))
    def test_paper_schedule_is_literal(self, n):
        for eps in (0.25, 0.125):
            p = ParameterProfile.paper(eps)
            assert p.schedule(n) == _literal(p)
            assert p.schedule(n, p.scales[-2:]) == _literal(p, p.scales[-2:])

    def test_repeated_scales_merge_into_one_entry(self):
        # n = 37: from h = 1/8 on the limit exceeds n and both caps bind
        p = ParameterProfile.practical(1 / 8)
        sched = p.schedule(37)
        assert len(sched) == 3
        assert sum(b for _, b in sched) == sum(b for _, b in _literal(p))

    def test_merged_entry_starts_at_first_scale_of_its_run(self):
        p = ParameterProfile.practical(1 / 8)
        sched = p.schedule(37)
        assert [h for h, _ in sched] == p.scales[:3]
        assert sched[-1] == (1 / 8, p.phases(1 / 8) * (len(p.scales) - 2))
        # a larger graph keeps the limit binding longer: the run starts later
        assert p.schedule(120)[-1][0] == 1 / 32

    def test_large_graph_keeps_the_literal_schedule(self):
        # update_latency's regime: every limit binds, nothing merges, cold
        # or with the warm start's last two scales
        p = ParameterProfile.practical(1 / 4)
        assert p.schedule(100_000) == _literal(p)
        warm = p.scales[-2:]
        assert p.schedule(100_000, warm) == _literal(p, warm)


class TestHeadlineBounds:
    def test_theorem11_improves_on_fmu22(self):
        for eps in (0.25, 0.125, 0.0625):
            p = ParameterProfile.paper(eps)
            ours = p.paper_invocation_bound()
            assert ours < p.fmu22_mmss25_invocation_bound() < p.fmu22_invocation_bound()

    def test_bounds_grow_as_eps_shrinks(self):
        b1 = ParameterProfile.paper(0.25).paper_invocation_bound()
        b2 = ParameterProfile.paper(0.125).paper_invocation_bound()
        assert b2 > b1
