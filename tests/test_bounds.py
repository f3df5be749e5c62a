"""Tests for the analytic bounds on the optimal T' (repro.core.bounds)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import solve
from repro.core.bounds import bound_gap, lower_bound, upper_bound
from repro.core.exceptions import InfeasibleError
from repro.core.server import BladeServerGroup


@st.composite
def instance(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    sizes = draw(
        st.lists(st.integers(min_value=1, max_value=10), min_size=n, max_size=n)
    )
    speeds = draw(
        st.lists(
            st.floats(min_value=0.3, max_value=3.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    fracs = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    specials = [f * m * s for f, m, s in zip(fracs, sizes, speeds)]
    group = BladeServerGroup.from_arrays(sizes, speeds, specials)
    load = draw(st.floats(min_value=0.05, max_value=0.9, allow_nan=False))
    disc = draw(st.sampled_from(["fcfs", "priority"]))
    return group, load * group.max_generic_rate, disc


class TestSandwich:
    @given(inst=instance())
    @settings(max_examples=50, deadline=None)
    def test_bounds_sandwich_optimum(self, inst):
        group, lam, disc = inst
        t_opt = solve(group, lam, discipline=disc).mean_response_time
        lo = lower_bound(group, lam, disc)
        hi = upper_bound(group, lam, disc)
        assert lo <= t_opt * (1 + 1e-9), (lo, t_opt)
        assert t_opt <= hi * (1 + 1e-9), (t_opt, hi)

    def test_paper_instance(self, paper_group):
        lam = 23.52
        t_opt = 0.8964703
        assert lower_bound(paper_group, lam) <= t_opt
        assert upper_bound(paper_group, lam) >= t_opt
        # Constructive bound is tight (spare-proportional is a good
        # heuristic on this instance).
        assert upper_bound(paper_group, lam) < 1.1 * t_opt

    def test_gap_positive_and_finite(self, paper_group):
        gap = bound_gap(paper_group, 23.52)
        assert 0.0 < gap < 2.0

    def test_lower_bound_tends_to_service_floor_at_low_load(self, paper_group):
        lo = lower_bound(paper_group, 1e-6)
        assert lo == pytest.approx(
            paper_group.rbar / paper_group.speeds.max(), rel=1e-3
        )

    def test_upper_bound_blows_up_near_saturation(self, paper_group):
        hi_mid = upper_bound(paper_group, 0.5 * paper_group.max_generic_rate)
        hi_sat = upper_bound(paper_group, 0.99 * paper_group.max_generic_rate)
        assert hi_sat > 5 * hi_mid

    def test_infeasible_rejected(self, paper_group):
        with pytest.raises(InfeasibleError):
            upper_bound(paper_group, paper_group.max_generic_rate)
        with pytest.raises(InfeasibleError):
            lower_bound(paper_group, paper_group.max_generic_rate)

    def test_homogeneous_single_server_bounds_coincide(self):
        # One server: the 'split' is trivial and the pooled relaxation
        # only drops the specials; with no specials both bounds equal
        # the true value.
        g = BladeServerGroup.from_arrays([4], [1.0])
        lam = 2.0
        t = solve(g, lam).mean_response_time
        assert lower_bound(g, lam) == pytest.approx(t, rel=1e-12)
        assert upper_bound(g, lam) == pytest.approx(t, rel=1e-12)
