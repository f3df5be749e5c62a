"""Unit tests for repro.dispatch (policies and registry)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import InfeasibleError, ParameterError
from repro.core.server import BladeServerGroup
from repro.dispatch import (
    CapacityProportionalPolicy,
    EqualSplitPolicy,
    FastestFirstPolicy,
    LoadDistributionPolicy,
    OptimalPolicy,
    SpareCapacityProportionalPolicy,
    available_policies,
    get_policy,
    register_policy,
)


class TestEqualSplit:
    def test_rates(self, paper_group):
        lam = 10.0
        res = EqualSplitPolicy().distribute(paper_group, lam)
        assert np.allclose(res.generic_rates, lam / 7)
        assert res.method == "equal-split"
        assert np.isnan(res.phi)

    def test_infeasible_when_small_server_saturates(self, paper_group):
        # Server 1 has spare capacity 2.24; equal split of 7*2.3 kills it.
        with pytest.raises(InfeasibleError):
            EqualSplitPolicy().distribute(paper_group, 7 * 2.3)


class TestCapacityProportional:
    def test_weights(self, paper_group):
        lam = 14.0
        res = CapacityProportionalPolicy().distribute(paper_group, lam)
        w = paper_group.sizes * paper_group.speeds
        assert np.allclose(res.generic_rates, w / w.sum() * lam)

    def test_uniform_preload_feasible_up_to_capacity(self, paper_group):
        # With uniform 30% preload, proportional-to-raw-capacity equals
        # proportional-to-spare-capacity, so it stays feasible.
        lam = 0.99 * paper_group.max_generic_rate
        res = CapacityProportionalPolicy().distribute(paper_group, lam)
        assert np.all(res.utilizations < 1.0)

    def test_skewed_preload_infeasible(self):
        # One server almost fully preloaded: raw-capacity weights push it
        # over the edge at moderate total load.
        g = BladeServerGroup.from_arrays(
            [4, 4], [1.0, 1.0], [3.8, 0.0]
        )
        with pytest.raises(InfeasibleError):
            CapacityProportionalPolicy().distribute(g, 3.0)


class TestSpareProportional:
    def test_equalizes_utilization(self, paper_group):
        res = SpareCapacityProportionalPolicy().distribute(paper_group, 20.0)
        assert np.allclose(res.utilizations, res.utilizations[0], atol=1e-9)

    def test_feasible_at_any_feasible_load(self, paper_group):
        lam = 0.999 * paper_group.max_generic_rate
        res = SpareCapacityProportionalPolicy().distribute(paper_group, lam)
        assert np.all(res.utilizations < 1.0)


class TestFastestFirst:
    def test_fills_fastest_first(self, paper_group):
        res = FastestFirstPolicy().distribute(paper_group, 1.0)
        # Server 1 is the fastest (1.6); all of a tiny load goes there.
        assert res.generic_rates[0] == pytest.approx(1.0)
        assert np.all(res.generic_rates[1:] == 0.0)

    def test_spills_to_second(self, paper_group):
        # Load beyond server 1's capped headroom spills to server 2.
        cap0 = 0.95 * 2 * 1.6 - paper_group.special_rates[0]
        res = FastestFirstPolicy().distribute(paper_group, cap0 + 1.0)
        assert res.generic_rates[0] == pytest.approx(cap0, rel=1e-9)
        assert res.generic_rates[1] == pytest.approx(1.0, rel=1e-9)

    def test_cap_infeasibility(self, paper_group):
        # Its own 95% cap makes loads near group saturation unservable.
        with pytest.raises(InfeasibleError):
            FastestFirstPolicy().distribute(
                paper_group, 0.99 * paper_group.max_generic_rate
            )

    def test_bad_cap(self):
        with pytest.raises(ParameterError):
            FastestFirstPolicy(utilization_cap=1.0)


class TestOptimalPolicy:
    def test_matches_solver(self, paper_group):
        from repro import solve

        res = OptimalPolicy().distribute(paper_group, 23.52, "fcfs")
        ref = solve(paper_group, 23.52, discipline="fcfs")
        assert res.mean_response_time == pytest.approx(
            ref.mean_response_time, rel=1e-12
        )
        assert not np.isnan(res.phi)  # solver metadata preserved

    def test_accepts_explicit_method(self, paper_group):
        policy = OptimalPolicy(method="newton")
        ref = OptimalPolicy(method="bisection")
        split = policy.rates(paper_group, 23.52, "fcfs")
        expected = ref.rates(paper_group, 23.52, "fcfs")
        np.testing.assert_allclose(split, expected, atol=1e-7)

    def test_beats_all_baselines(self, paper_group):
        lam = 0.7 * paper_group.max_generic_rate
        opt = OptimalPolicy().distribute(paper_group, lam).mean_response_time
        for policy in (
            SpareCapacityProportionalPolicy(),
            CapacityProportionalPolicy(),
        ):
            t = policy.distribute(paper_group, lam).mean_response_time
            assert t >= opt - 1e-12


class TestRegistry:
    def test_available(self):
        names = available_policies()
        assert {"optimal", "equal-split", "spare-proportional"} <= set(names)

    def test_get_policy_kwargs(self):
        p = get_policy("fastest-first", utilization_cap=0.8)
        assert p.utilization_cap == 0.8

    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            get_policy("does-not-exist")

    def test_register_custom_and_reject_duplicates(self):
        class Custom(SpareCapacityProportionalPolicy):
            name = "custom-test-policy"

        register_policy("custom-test-policy", Custom)
        assert isinstance(get_policy("custom-test-policy"), Custom)
        with pytest.raises(ParameterError):
            register_policy("custom-test-policy", Custom)

    def test_case_insensitive(self):
        assert isinstance(get_policy("OPTIMAL"), OptimalPolicy)


class TestBaseValidation:
    def test_rates_must_sum(self, paper_group):
        class Broken(LoadDistributionPolicy):
            name = "broken"

            def rates(self, group, total_rate, discipline="fcfs"):
                return np.full(group.n, 1.0)  # wrong total

        with pytest.raises(ParameterError):
            Broken().distribute(paper_group, 10.0)

    def test_rates_must_be_nonnegative(self, paper_group):
        class Negative(LoadDistributionPolicy):
            name = "negative"

            def rates(self, group, total_rate, discipline="fcfs"):
                r = np.zeros(group.n)
                r[0] = -1.0
                r[1] = total_rate + 1.0
                return r

        with pytest.raises(ParameterError):
            Negative().distribute(paper_group, 10.0)
