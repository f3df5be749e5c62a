"""Tests for the envelope-theorem sensitivities of the optimal T'."""

from __future__ import annotations

import numpy as np
import pytest

from repro import solve
from repro.analysis.sensitivity import optimal_value_sensitivities
from repro.core.server import BladeServerGroup


def reoptimized_fd_special(group, total_rate, disc, j, h=1e-5):
    """Finite difference of the *re-optimized* T' w.r.t. lambda''_j."""

    def t_opt(delta):
        specials = group.special_rates.copy()
        specials[j] += delta
        g = BladeServerGroup.from_arrays(
            group.sizes, group.speeds, specials, rbar=group.rbar
        )
        return solve(g, total_rate, discipline=disc).mean_response_time

    return (t_opt(h) - t_opt(-h)) / (2.0 * h)


def reoptimized_fd_speed(group, total_rate, disc, j, h=1e-5):
    def t_opt(delta):
        speeds = group.speeds.copy()
        speeds[j] += delta
        g = BladeServerGroup.from_arrays(
            group.sizes, speeds, group.special_rates, rbar=group.rbar
        )
        return solve(g, total_rate, discipline=disc).mean_response_time

    return (t_opt(h) - t_opt(-h)) / (2.0 * h)


def reoptimized_fd_rbar(group, total_rate, disc, h=1e-6):
    def t_opt(delta):
        g = BladeServerGroup.from_arrays(
            group.sizes,
            group.speeds,
            group.special_rates,
            rbar=group.rbar + delta,
        )
        return solve(g, total_rate, discipline=disc).mean_response_time

    return (t_opt(h) - t_opt(-h)) / (2.0 * h)


@pytest.fixture(scope="module")
def group():
    return BladeServerGroup.with_special_fraction(
        sizes=[2, 4, 6], speeds=[1.4, 1.2, 1.0], fraction=0.3
    )


class TestEnvelopeTheorem:
    """The cheap fixed-rate sensitivities must match re-optimized FDs."""

    @pytest.mark.parametrize("disc", ["fcfs", "priority"])
    def test_special_rate_sensitivities(self, group, disc):
        lam = 0.6 * group.max_generic_rate
        rep = optimal_value_sensitivities(group, lam, disc)
        for j in range(group.n):
            fd = reoptimized_fd_special(group, lam, disc, j)
            assert rep.d_special[j] == pytest.approx(fd, rel=2e-3, abs=1e-8)

    @pytest.mark.parametrize("disc", ["fcfs", "priority"])
    def test_speed_sensitivities(self, group, disc):
        lam = 0.6 * group.max_generic_rate
        rep = optimal_value_sensitivities(group, lam, disc)
        for j in range(group.n):
            fd = reoptimized_fd_speed(group, lam, disc, j)
            assert rep.d_speed[j] == pytest.approx(fd, rel=2e-3, abs=1e-8)

    @pytest.mark.parametrize("disc", ["fcfs", "priority"])
    def test_rbar_sensitivity(self, group, disc):
        lam = 0.6 * group.max_generic_rate
        rep = optimal_value_sensitivities(group, lam, disc)
        fd = reoptimized_fd_rbar(group, lam, disc)
        assert rep.d_rbar == pytest.approx(fd, rel=2e-3)


class TestRuleOfThumbSigns:
    """The paper's qualitative levers, now with signs from calculus."""

    def test_signs(self, group):
        lam = 0.6 * group.max_generic_rate
        rep = optimal_value_sensitivities(group, lam)
        assert np.all(rep.d_special >= 0.0)  # preload hurts
        assert np.all(rep.d_speed <= 0.0)  # speed helps
        assert rep.d_rbar > 0.0  # bigger tasks hurt

    def test_sensitivities_grow_with_load(self, group):
        lo = optimal_value_sensitivities(group, 0.3 * group.max_generic_rate)
        hi = optimal_value_sensitivities(group, 0.85 * group.max_generic_rate)
        # The paper: all effects are amplified "especially when lambda'
        # is large".
        assert hi.d_rbar > lo.d_rbar
        assert np.all(np.abs(hi.d_speed) >= np.abs(lo.d_speed) - 1e-12)

    def test_priority_at_least_as_sensitive_to_preload(self, group):
        lam = 0.6 * group.max_generic_rate
        f = optimal_value_sensitivities(group, lam, "fcfs")
        p = optimal_value_sensitivities(group, lam, "priority")
        assert p.d_special.sum() > f.d_special.sum()

    def test_render(self, group):
        text = optimal_value_sensitivities(
            group, 0.5 * group.max_generic_rate
        ).render()
        assert "dT'/drbar" in text and "server 1" in text


class TestParkedServers:
    def test_zero_rate_server_has_zero_sensitivity(self):
        # A server the optimizer parks at zero contributes no weight.
        g = BladeServerGroup.from_arrays(
            [4, 1], [2.0, 0.1], [0.0, 0.05], rbar=1.0
        )
        rep = optimal_value_sensitivities(g, 0.5, "fcfs")
        assert rep.d_special[1] == 0.0
        assert rep.d_speed[1] == 0.0
