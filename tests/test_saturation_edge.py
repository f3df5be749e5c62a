"""Regression tests for the saturation-edge residual settlement.

The seed's ``calculate_t_prime`` finished with a blanket proportional
rescale ``rates * (total_rate / sum)``.  Near saturation some servers
sit exactly at their stability cap ``(1 - eps)(m_i/xbar_i - lambda''_i)``;
scaling them *up* pushed their utilization past 1 and
``mean_response_time`` raised ``SaturationError`` on perfectly feasible
instances.  The settlement now distributes the residual only across
servers with headroom and clips at the caps; these tests pin the fix on
the paper's bisection at >= 99.9% of group saturation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bisection import calculate_t_prime, settle_residual
from repro.core.response import Discipline
from repro.core.server import BladeServerGroup

BACKENDS = [
    pytest.param(calculate_t_prime, id="paper-bisection"),
]

#: (load fraction of saturation, solver tol) pairs that made the seed
#: raise SaturationError.  The coarse-tol points leave the largest
#: residual for the final settlement, which is exactly where the old
#: blanket rescale overshot the caps.
EDGE_POINTS = [
    (0.999, 1e-12),
    (1.0 - 1e-6, 1e-9),
    (1.0 - 1e-8, 1e-6),
]


def edge_groups():
    return {
        "paper": BladeServerGroup.from_arrays(
            sizes=[2, 4, 6, 8, 10, 12, 14],
            speeds=[1.6, 1.5, 1.4, 1.3, 1.2, 1.1, 1.0],
            special_rates=[0.6, 1.5, 2.6, 3.9, 5.3, 6.8, 8.4],
        ),
        "mixed": BladeServerGroup.from_arrays(
            sizes=[1, 2, 8],
            speeds=[1.5, 1.2, 0.9],
            special_rates=[0.2, 0.5, 2.0],
        ),
        "tiny": BladeServerGroup.from_arrays(
            sizes=[1, 1],
            speeds=[1.0, 0.5],
            special_rates=[0.3, 0.1],
        ),
    }


class TestSaturationEdge:
    @pytest.mark.parametrize("solver", BACKENDS)
    @pytest.mark.parametrize("fraction,tol", EDGE_POINTS)
    @pytest.mark.parametrize("name", ["paper", "mixed", "tiny"])
    @pytest.mark.parametrize("disc", [Discipline.FCFS, Discipline.PRIORITY])
    def test_no_saturation_error_near_capacity(
        self, solver, fraction, tol, name, disc
    ):
        group = edge_groups()[name]
        lam = fraction * group.max_generic_rate
        res = solver(group, lam, disc, tol=tol)
        rates = np.asarray(res.generic_rates)
        assert np.all(rates >= 0.0)
        assert np.all(rates <= group.spare_capacities)
        assert np.all(np.asarray(res.utilizations) < 1.0)
        assert abs(rates.sum() - lam) <= 1e-9 * max(1.0, lam)
        assert np.isfinite(res.mean_response_time)


class TestSettleResidual:
    def test_scale_down_is_proportional(self):
        rates = np.array([2.0, 4.0])
        out = settle_residual(rates, 3.0, np.array([10.0, 10.0]))
        np.testing.assert_allclose(out, [1.0, 2.0])

    def test_shortfall_respects_caps(self):
        # Server 0 is pinned at its cap; the missing load must go
        # entirely to server 1 instead of overshooting the cap.
        rates = np.array([1.0, 1.0])
        caps = np.array([1.0, 5.0])
        out = settle_residual(rates, 3.0, caps)
        np.testing.assert_allclose(out, [1.0, 2.0])
        assert np.all(out <= caps)

    def test_shortfall_multiple_caps(self):
        rates = np.array([0.9, 0.9, 0.2])
        caps = np.array([1.0, 1.0, 4.0])
        out = settle_residual(rates, 5.0, caps)
        assert abs(out.sum() - 5.0) < 1e-12
        assert np.all(out <= caps + 1e-15)

    def test_zero_rates_with_headroom_get_filled(self):
        # All free servers carry zero load: the proportional rule would
        # stall, so the fallback splits by headroom instead.
        rates = np.array([1.0, 0.0, 0.0])
        caps = np.array([1.0, 2.0, 2.0])
        out = settle_residual(rates, 3.0, caps)
        assert abs(out.sum() - 3.0) < 1e-12
        assert np.all(out <= caps + 1e-15)
