"""Tests for structural duplication and graceful degradation."""

import numpy as np
import pytest

from repro.core.fit import FitAccount
from repro.lifetime.distributions import ExponentialLifetime, LognormalLifetime
from repro.core.redundancy import (
    RedundancyPlan,
    evaluate_degradation,
    evaluate_duplication,
    structure_lifetimes,
)
from repro.errors import ReliabilityError


def two_structure_account(fit_a=2000.0, fit_b=2000.0):
    return FitAccount({
        ("EM", "fpu"): fit_a * 0.5,
        ("SM", "fpu"): fit_a * 0.5,
        ("EM", "ialu"): fit_b * 0.5,
        ("SM", "ialu"): fit_b * 0.5,
    })


class TestStructureLifetimes:
    def test_one_array_per_failing_structure(self):
        rng = np.random.default_rng(0)
        lt = structure_lifetimes(two_structure_account(), LognormalLifetime(0.5), rng, 500)
        assert set(lt) == {"fpu", "ialu"}
        assert all(len(v) == 500 for v in lt.values())

    def test_zero_fit_structures_excluded(self):
        account = FitAccount({("EM", "fpu"): 0.0, ("EM", "ialu"): 100.0})
        rng = np.random.default_rng(0)
        lt = structure_lifetimes(account, LognormalLifetime(0.5), rng, 100)
        assert set(lt) == {"ialu"}

    def test_all_zero_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ReliabilityError):
            structure_lifetimes(FitAccount({("EM", "x"): 0.0}), LognormalLifetime(0.5), rng, 10)

    def test_structure_lifetime_is_min_over_mechanisms(self):
        """A structure with two mechanisms dies sooner than either alone."""
        one_mech = FitAccount({("EM", "fpu"): 1000.0})
        two_mech = FitAccount({("EM", "fpu"): 1000.0, ("SM", "fpu"): 1000.0})
        a = structure_lifetimes(one_mech, ExponentialLifetime(), np.random.default_rng(1), 20_000)
        b = structure_lifetimes(two_mech, ExponentialLifetime(), np.random.default_rng(1), 20_000)
        assert b["fpu"].mean() < a["fpu"].mean()


class TestRedundancyPlan:
    def test_overhead_sums_structure_areas(self):
        plan = RedundancyPlan.for_structures(("fpu", "ialu"))
        assert plan.area_overhead_mm2 == pytest.approx(3.2 + 2.4)

    def test_unknown_structure_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            RedundancyPlan.for_structures(("l3",))


class TestDuplication:
    def test_spare_extends_lifetime(self):
        result = evaluate_duplication(
            two_structure_account(),
            RedundancyPlan.for_structures(("fpu",)),
            n_samples=20_000,
        )
        assert result.improvement > 1.1

    def test_sparing_everything_roughly_doubles_life(self):
        """With spares on all structures and wear-out shapes, the system
        lives about twice as long (every lifetime is a two-draw sum)."""
        result = evaluate_duplication(
            two_structure_account(),
            RedundancyPlan.for_structures(("fpu", "ialu")),
            n_samples=20_000,
        )
        assert 1.6 < result.improvement < 2.4

    def test_sparing_the_weak_structure_beats_the_strong(self):
        account = two_structure_account(fit_a=8000.0, fit_b=500.0)  # fpu weak
        weak = evaluate_duplication(
            account, RedundancyPlan.for_structures(("fpu",)), n_samples=20_000
        )
        strong = evaluate_duplication(
            account, RedundancyPlan.for_structures(("ialu",)), n_samples=20_000
        )
        assert weak.improvement > strong.improvement

    def test_empty_plan_is_baseline(self):
        result = evaluate_duplication(
            two_structure_account(), RedundancyPlan(frozenset(), 0.0), n_samples=5000
        )
        assert result.improvement == pytest.approx(1.0)

    def test_unknown_spare_rejected(self):
        with pytest.raises(ReliabilityError, match="unknown"):
            evaluate_duplication(
                two_structure_account(),
                RedundancyPlan(frozenset({"bpred"}), 0.8),
                n_samples=100,
            )

    def test_deterministic_for_seed(self):
        plan = RedundancyPlan.for_structures(("fpu",))
        a = evaluate_duplication(two_structure_account(), plan, seed=5, n_samples=2000)
        b = evaluate_duplication(two_structure_account(), plan, seed=5, n_samples=2000)
        assert a.mttf_hours == b.mttf_hours

    def test_real_ramp_account(self, oracle, mpgdec_eval):
        rel = oracle.ramp_for(400.0).application_reliability(mpgdec_eval)
        hottest = max(rel.account.by_structure(), key=rel.account.by_structure().get)
        result = evaluate_duplication(
            rel.account, RedundancyPlan.for_structures((hottest,)), n_samples=8000
        )
        assert result.improvement > 1.02
        assert result.area_overhead_mm2 > 0


class TestDegradation:
    def test_gpd_extends_lifetime_at_performance_cost(self):
        result = evaluate_degradation(
            two_structure_account(), {"fpu": 0.9}, n_samples=20_000
        )
        assert result.improvement > 1.1
        assert 0.9 <= result.mean_relative_performance < 1.0

    def test_full_performance_when_nothing_degrades_early(self):
        # A degradable structure that essentially never fails first.
        account = two_structure_account(fit_a=1.0, fit_b=5000.0)
        result = evaluate_degradation(account, {"fpu": 0.8}, n_samples=10_000)
        assert result.mean_relative_performance > 0.99

    def test_degrading_everything_unbounded_by_first_failure(self):
        result = evaluate_degradation(
            two_structure_account(), {"fpu": 0.9, "ialu": 0.9}, n_samples=20_000
        )
        assert result.improvement > 1.4

    def test_invalid_performance_rejected(self):
        with pytest.raises(ReliabilityError):
            evaluate_degradation(two_structure_account(), {"fpu": 0.0})
        with pytest.raises(ReliabilityError):
            evaluate_degradation(two_structure_account(), {"fpu": 1.5})

    def test_unknown_structure_rejected(self):
        with pytest.raises(ReliabilityError, match="unknown"):
            evaluate_degradation(two_structure_account(), {"window": 0.9}, n_samples=100)
