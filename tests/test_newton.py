"""Tests for the damped-Newton dual-ascent backend (core/newton.py).

Covers the analytic building blocks (the batched NumPy kernels, second
derivatives and marginal-cost slopes against their scalar
counterparts), cross-backend
agreement on randomized heterogeneous groups — including zero-rate
parked servers and the saturation edge — warm-start semantics, and the
Tables 1–2 seven-decimal anchors through the ``repro.solve`` facade.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import solve
from repro.core.bisection import calculate_t_prime
from repro.core.erlang import d2p_zero_drho2, dp_zero_drho, log_p_zero, p_zero
from repro.core.exceptions import ParameterError, SaturationError
from repro.core.kkt import solve_kkt
from repro.core.newton import (
    ErlangConstants,
    _normalizing_sums,
    _sweep,
    marginal_cost_and_slope_vec,
    marginal_cost_vec,
    p_zero_vec,
    solve_newton,
    waiting_factor_vec,
)
from repro.core.objective import marginal_cost
from repro.core.response import (
    Discipline,
    d2_generic_response_time_drho2,
    d_generic_response_time_drho,
    generic_response_time_rho,
    waiting_factor,
)
from repro.core.server import BladeServer, BladeServerGroup
from repro.workloads.paper import (
    EXAMPLE_TOTAL_RATE,
    TABLE1_RATES,
    TABLE1_T_PRIME,
    TABLE2_RATES,
    TABLE2_T_PRIME,
)

DISCIPLINES = ["fcfs", "priority"]

#: Half a unit in the seventh decimal place (the tables' precision).
SEVEN_DECIMALS = 5e-8


def random_group(rng: np.random.Generator) -> BladeServerGroup:
    """A random heterogeneous group whose servers are never saturated
    by their special load alone (special rate < 40% of capacity)."""
    n = int(rng.integers(2, 20))
    servers = []
    for _ in range(n):
        m = int(rng.integers(1, 9))
        speed = float(rng.uniform(0.3, 3.0))
        special = float(rng.uniform(0.0, 0.4) * m * speed)
        servers.append(BladeServer(size=m, speed=speed, special_rate=special))
    return BladeServerGroup(servers, rbar=1.0)


class TestKernels:
    """The batched NumPy kernels against their scalar counterparts."""

    def test_p_zero_matches_scalar(self):
        ms, rhos, expected = [], [], []
        for m in (1, 2, 3, 7, 14, 30, 100, 250):
            for rho in (0.0, 1e-9, 0.1, 0.5, 0.9, 0.999):
                ms.append(m)
                rhos.append(rho)
                expected.append(p_zero(m, rho))
        got = p_zero_vec(ms, rhos)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_p_zero_m1_closed_form(self):
        rhos = np.linspace(0.0, 0.99, 34)
        got = p_zero_vec(np.ones(rhos.size, dtype=int), rhos)
        np.testing.assert_allclose(got, 1.0 - rhos, rtol=1e-13)

    def test_p_zero_rescale_path(self):
        # Offered loads large enough that the partial sums pass the
        # rescale threshold; the log-space scalar is the oracle.
        ms = [1000, 2000, 5000]
        rhos = [0.7, 0.8, 0.9]
        got = p_zero_vec(ms, rhos)
        expected = [np.exp(log_p_zero(m, r)) for m, r in zip(ms, rhos)]
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_waiting_factor_matches_scalar(self):
        ms, rhos, expected = [], [], []
        for m in (1, 2, 5, 14, 60):
            for rho in (0.0, 0.2, 0.6, 0.95):
                ms.append(m)
                rhos.append(rho)
                expected.append(waiting_factor(m, rho))
        got = waiting_factor_vec(ms, rhos)
        np.testing.assert_allclose(got, expected, rtol=1e-11)

    @pytest.mark.parametrize("disc", DISCIPLINES)
    def test_marginal_cost_matches_scalar(self, disc):
        rng = np.random.default_rng(99)
        for _ in range(10):
            group = random_group(rng)
            lam = 0.6 * group.max_generic_rate
            rates = rng.uniform(0.0, 0.8, group.n) * group.spare_capacities
            got = marginal_cost_vec(
                group.sizes,
                group.xbars,
                group.special_rates,
                rates,
                lam,
                disc,
            )
            expected = [
                marginal_cost(m, xb, sp, r, lam, disc)
                for m, xb, sp, r in zip(
                    group.sizes, group.xbars, group.special_rates, rates
                )
            ]
            np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_saturated_utilization_raises(self):
        with pytest.raises(SaturationError):
            p_zero_vec([2, 3], [0.5, 1.0])


#: Kernel-coverage grid: every blade count up to 64 plus two large ones,
#: at utilizations from the rho = 0 limit to the stability edge.
GRID_MS = list(range(1, 65)) + [100, 250]
GRID_RHOS = [0.0, 1e-9, 0.1, 0.5, 0.9, 0.999]


def kernel_grid() -> tuple[np.ndarray, np.ndarray]:
    ms, rhos = np.meshgrid(GRID_MS, GRID_RHOS)
    return ms.ravel().astype(np.int64), rhos.ravel()


class TestBatchedSecondDerivative:
    @pytest.mark.parametrize("disc", DISCIPLINES)
    def test_matches_scalar_kernel(self, disc):
        ms = np.array([1, 2, 3, 5, 8, 14], dtype=np.int64)
        xbars = np.array([0.8, 1.0, 1.3, 0.6, 1.0, 2.0])
        rhos = np.array([0.3, 0.0, 0.55, 0.7, 0.9, 0.15])
        rho_s = np.array([0.1, 0.0, 0.2, 0.3, 0.25, 0.05])
        d = Discipline.coerce(disc)
        d2t = _sweep(ErlangConstants(ms), xbars, rhos)[5]
        if d is Discipline.PRIORITY:
            d2t = d2t / (1.0 - rho_s)
        want = [
            d2_generic_response_time_drho2(
                int(ms[i]), float(xbars[i]), float(rhos[i]), float(rho_s[i]), d
            )
            for i in range(ms.size)
        ]
        np.testing.assert_allclose(d2t, want, rtol=1e-12, atol=1e-300)


def loop_head_sums(ms: np.ndarray, rhos: np.ndarray) -> tuple[np.ndarray, ...]:
    """Reference: the three per-k masked loops the fused kernel replaced.

    Returns ``1/p_0`` and the ``S'``, ``S''`` head sums.
    """
    mf = ms.astype(float)
    a = mf * rhos
    term, total = np.ones_like(rhos), np.ones_like(rhos)
    u, s1 = mf.copy(), np.where(ms >= 2, mf, 0.0)
    v, s2 = mf * mf, np.where(ms >= 3, mf * mf, 0.0)
    for k in range(1, int(ms.max())):
        grow = ms > k
        np.multiply(term, a / k, out=term, where=grow)
        total[grow] += term[grow]
        if k >= 2:
            np.multiply(u, a / (k - 1), out=u, where=grow)
            s1[grow] += u[grow]
        if k >= 3:
            np.multiply(v, a / (k - 2), out=v, where=grow)
            s2[grow] += v[grow]
    return total + term * a / ms / (1.0 - rhos), s1, s2


class TestFusedKernel:
    """The fused sweep kernel against the scalar Erlang derivatives."""

    def test_head_sums_equal_loop_reference(self):
        """Cumulative products and sums keep the loops' operation order,
        so the sums are bit-identical to them (no log frame below
        m = 64)."""
        rng = np.random.default_rng(11)
        ms = rng.integers(1, 65, 500)
        rhos = rng.uniform(0.0, 0.999, 500)
        rhos[::7] = 0.0
        total, s1, s2, shift, frame = _normalizing_sums(ErlangConstants(ms), rhos)
        assert not frame.any() and not shift.any()
        for got, want in zip((total, s1, s2), loop_head_sums(ms, rhos)):
            np.testing.assert_array_equal(got, want)

    def test_p0_derivatives_match_scalar(self):
        ms, rhos = kernel_grid()
        p0, dp0, d2p0, *_ = _sweep(ErlangConstants(ms), np.ones(ms.size), rhos)
        pairs = list(zip(ms.tolist(), rhos.tolist()))
        np.testing.assert_allclose(p0, [p_zero(m, r) for m, r in pairs], rtol=1e-12)
        np.testing.assert_allclose(
            dp0, [dp_zero_drho(m, r) for m, r in pairs], rtol=1e-12, atol=1e-300
        )
        # d2p0 = 2 p0^3 S'^2 - p0^2 S'' is a difference of two terms of
        # size 2 dp0^2/p0 that cancel near rho = 1 in the scalar form as
        # much as in the batched one, so the 1e-12 is relative to them.
        want = np.array([d2p_zero_drho2(m, r) for m, r in pairs])
        scale = np.abs(want) + 2.0 * dp0**2 / p0
        assert (np.abs(d2p0 - want) <= 1e-12 * scale + 1e-300).all()

    def test_response_derivatives_match_scalar(self):
        ms, rhos = kernel_grid()
        xbars = np.linspace(0.5, 2.0, ms.size)
        _, _, _, w, dt, d2t = _sweep(ErlangConstants(ms), xbars, rhos)
        cases = list(zip(ms.tolist(), xbars.tolist(), rhos.tolist()))
        fcfs = Discipline.FCFS
        np.testing.assert_allclose(
            xbars * (1.0 + w),
            [generic_response_time_rho(m, x, r, 0.0, fcfs) for m, x, r in cases],
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            dt,
            [d_generic_response_time_drho(m, x, r, 0.0, fcfs) for m, x, r in cases],
            rtol=1e-12,
            atol=1e-300,
        )
        np.testing.assert_allclose(
            d2t,
            [d2_generic_response_time_drho2(m, x, r, 0.0, fcfs) for m, x, r in cases],
            rtol=1e-12,
            atol=1e-300,
        )

    @pytest.mark.parametrize("disc", DISCIPLINES)
    def test_slope_matches_scalar_derivatives(self, disc):
        """``g'`` assembled from the scalar response derivatives, on the
        grid's positive utilizations, under both disciplines."""
        ms, rhos = kernel_grid()
        keep = rhos > 0.0
        ms, rhos = ms[keep], rhos[keep]
        xbars = np.linspace(0.5, 2.0, ms.size)
        rho_s = 0.4 * rhos
        specials = rho_s * ms / xbars
        lams = (rhos - rho_s) * ms / xbars
        d = Discipline.coerce(disc)
        g, dg = marginal_cost_and_slope_vec(ms, xbars, specials, lams, 7.0, d)
        want_g, want_dg = [], []
        for m, x, r, rs, lam in zip(ms.tolist(), xbars, rhos, rho_s, lams):
            dt = d_generic_response_time_drho(m, x, r, rs, d)
            d2t = d2_generic_response_time_drho2(m, x, r, rs, d)
            want_g.append(marginal_cost(m, x, rs * m / x, lam, 7.0, d))
            want_dg.append((x / m) * (2.0 * dt + (r - rs) * d2t) / 7.0)
        np.testing.assert_allclose(g, want_g, rtol=1e-10)
        np.testing.assert_allclose(dg, want_dg, rtol=1e-10)

    def test_live_subset_indexing(self):
        """Constants taken for a live subset give exactly the subset of
        the full sweep (and of constants built for that subset)."""
        rng = np.random.default_rng(5)
        ms, rhos = kernel_grid()
        xbars = rng.uniform(0.5, 2.0, ms.size)
        consts = ErlangConstants(ms)
        full = _sweep(consts, xbars, rhos)
        idx = np.sort(rng.choice(ms.size, size=ms.size // 3, replace=False))
        taken = _sweep(consts.take(idx), xbars[idx], rhos[idx])
        fresh = _sweep(ErlangConstants(ms[idx]), xbars[idx], rhos[idx])
        for whole, part, own in zip(full, taken, fresh):
            np.testing.assert_array_equal(part, whole[idx])
            np.testing.assert_array_equal(part, own)


def big_group(m: int) -> BladeServerGroup:
    """Ten ``m``-blade servers beside ten 8-blade ones, 30% special load."""
    return BladeServerGroup.with_special_fraction(
        sizes=[m] * 10 + [8] * 10, speeds=[1.0] * 20, fraction=0.3
    )


class TestLargeBladeCounts:
    """Hundreds to thousands of blades per server: ``p_0^2`` underflows
    and ``C_m`` overflows, so the kernel works in its log-space frame."""

    def test_auto_matches_kkt_at_600_blades(self):
        group = big_group(600)
        lam = 0.7 * group.max_generic_rate
        auto = solve(group, lam)
        assert auto.method == "newton-dual-ascent"
        kkt = solve(group, lam, method="kkt")
        np.testing.assert_allclose(
            auto.generic_rates, kkt.generic_rates, rtol=1e-8, atol=1e-8 * lam
        )
        assert auto.mean_response_time == pytest.approx(
            kkt.mean_response_time, rel=1e-8
        )

    @pytest.mark.parametrize("m", [1000, 2000])
    def test_split_converges_for_thousands_of_blades(self, m):
        group = big_group(m)
        lam = 0.7 * group.max_generic_rate
        result = solve(group, lam)
        assert result.converged
        assert np.isfinite(result.generic_rates).all()
        assert np.isfinite(result.mean_response_time)
        assert result.generic_rates.sum() == pytest.approx(lam, rel=1e-14)
        assert max(result.utilizations) < 1.0

    @pytest.mark.parametrize(
        "m, rho", [(1000, 0.3), (1000, 0.6), (5000, 0.05), (5000, 0.1)]
    )
    def test_log_p0_slope_matches_central_difference(self, m, rho):
        p0, dp0, d2p0, *_ = _sweep(ErlangConstants([m]), np.ones(1), np.array([rho]))
        assert p0[0] > 0.0 and np.isfinite([dp0[0], d2p0[0]]).all()
        h = 1e-6
        fd = (log_p_zero(m, rho + h) - log_p_zero(m, rho - h)) / (2.0 * h)
        assert dp0[0] / p0[0] == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("m, rho", [(1000, 0.95), (5000, 0.99)])
    @pytest.mark.parametrize("disc", DISCIPLINES)
    def test_marginal_slope_matches_central_difference(self, m, rho, disc):
        ms = np.array([m])
        xbars = np.array([1.0])
        specials = np.array([0.3 * m])
        lams = np.array([(rho - 0.3) * m])
        d = Discipline.coerce(disc)
        h = 1e-3
        _, slope = marginal_cost_and_slope_vec(ms, xbars, specials, lams, 10.0, d)
        g_hi, _ = marginal_cost_and_slope_vec(ms, xbars, specials, lams + h, 10.0, d)
        g_lo, _ = marginal_cost_and_slope_vec(ms, xbars, specials, lams - h, 10.0, d)
        assert np.isfinite(slope).all() and slope[0] > 0.0
        np.testing.assert_allclose(slope, (g_hi - g_lo) / (2 * h), rtol=1e-6)


class TestMarginalAndSlope:
    def test_marginal_matches_vectorized_kernel(self):
        ms = np.array([2, 4, 6], dtype=np.int64)
        xbars = np.array([1.0, 0.7, 1.4])
        specials = np.array([0.5, 1.0, 0.8])
        lams = np.array([0.6, 1.5, 0.0])
        g, _ = marginal_cost_and_slope_vec(
            ms, xbars, specials, lams, 5.0, Discipline.FCFS
        )
        ref = marginal_cost_vec(ms, xbars, specials, lams, 5.0, "fcfs")
        np.testing.assert_allclose(g, ref, rtol=1e-13)

    @pytest.mark.parametrize("disc", DISCIPLINES)
    def test_slope_matches_finite_difference(self, disc):
        ms = np.array([1, 3, 7], dtype=np.int64)
        xbars = np.array([1.0, 0.8, 1.2])
        specials = np.array([0.2, 0.9, 1.1])
        lams = np.array([0.4, 1.2, 2.0])
        d = Discipline.coerce(disc)
        h = 1e-7
        _, slope = marginal_cost_and_slope_vec(ms, xbars, specials, lams, 4.0, d)
        g_hi, _ = marginal_cost_and_slope_vec(ms, xbars, specials, lams + h, 4.0, d)
        g_lo, _ = marginal_cost_and_slope_vec(ms, xbars, specials, lams - h, 4.0, d)
        np.testing.assert_allclose(slope, (g_hi - g_lo) / (2 * h), rtol=2e-5)


class TestBackendAgreement:
    """newton agrees with kkt and the paper's bisection to <= 1e-9 on
    random heterogeneous groups."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_groups(self, seed):
        rng = np.random.default_rng(1000 + seed)
        group = random_group(rng)
        lam = float(rng.uniform(0.05, 0.95)) * group.max_generic_rate
        disc = DISCIPLINES[seed % 2]
        r_newton = solve_newton(group, lam, disc)
        r_kkt = solve_kkt(group, lam, disc)
        r_bis = calculate_t_prime(group, lam, disc)
        for other in (r_kkt, r_bis):
            assert float(
                np.max(np.abs(r_newton.generic_rates - other.generic_rates))
            ) <= 1e-9

    def test_parked_servers_get_zero(self):
        # One server saturated by special load (zero spare capacity)
        # and one too slow to deserve traffic at low load.
        group = BladeServerGroup(
            [
                BladeServer(size=2, speed=1.0, special_rate=1.999),
                BladeServer(size=1, speed=0.05),
                BladeServer(size=4, speed=2.0),
            ],
            rbar=1.0,
        )
        lam = 0.2 * group.max_generic_rate
        r_newton = solve_newton(group, lam)
        r_kkt = solve_kkt(group, lam)
        assert r_newton.generic_rates[0] == 0.0
        assert r_newton.generic_rates[1] == 0.0
        assert float(
            np.max(np.abs(r_newton.generic_rates - r_kkt.generic_rates))
        ) <= 1e-9

    @pytest.mark.parametrize("frac", [0.99, 0.999, 1.0 - 1e-9])
    def test_saturation_edge(self, frac):
        group = BladeServerGroup(
            [BladeServer(size=16, speed=1.0) for _ in range(6)]
            + [BladeServer(size=1, speed=2.0)],
            rbar=1.0,
        )
        lam = frac * group.max_generic_rate
        r_newton = solve_newton(group, lam)
        r_kkt = solve_kkt(group, lam)
        assert float(
            np.max(np.abs(r_newton.generic_rates - r_kkt.generic_rates))
        ) <= 1e-9
        assert float(abs(r_newton.generic_rates.sum() - lam)) <= 1e-9 * lam
        assert np.all(r_newton.utilizations < 1.0)

    def test_flat_marginal_interpolation_repair(self):
        # Identical large-m servers at low load: F(phi) jumps across
        # the budget inside a float-resolution multiplier window, so
        # the component-wise endpoint interpolation must close it.
        group = BladeServerGroup(
            [BladeServer(size=16, speed=1.0) for _ in range(6)], rbar=1.0
        )
        lam = 0.2 * group.max_generic_rate
        res = solve_newton(group, lam)
        assert float(abs(res.generic_rates.sum() - lam)) <= 1e-9 * lam
        np.testing.assert_allclose(
            res.generic_rates, res.generic_rates[0], rtol=1e-9
        )


class TestWarmStart:
    def test_phi_hint_converges_to_same_optimum(self, paper_group):
        cold = solve_newton(paper_group, EXAMPLE_TOTAL_RATE)
        warm = solve_newton(
            paper_group, EXAMPLE_TOTAL_RATE * 1.02, phi_hint=cold.phi
        )
        again = solve_newton(paper_group, EXAMPLE_TOTAL_RATE * 1.02)
        assert float(
            np.max(np.abs(warm.generic_rates - again.generic_rates))
        ) <= 1e-9

    def test_exact_hint_converges_in_few_outers(self, paper_group):
        cold = solve_newton(paper_group, EXAMPLE_TOTAL_RATE)
        warm = solve_newton(paper_group, EXAMPLE_TOTAL_RATE, phi_hint=cold.phi)
        assert warm.iterations <= 3
        assert warm.iterations < cold.iterations

    def test_registered_as_warm_startable(self):
        from repro.core.solvers import warm_startable_methods

        assert "newton" in warm_startable_methods()

    @pytest.mark.parametrize("factor", [1e-18, 1e30])
    def test_hint_outside_feasible_band_is_reanchored(self, paper_group, factor):
        # A hint below min g_i(0) (everything would park) or above
        # max g_i(cap) (everything would pin) carries no usable
        # information; the solver must detect it against the
        # precomputed band and fall back to the cold seed — identical
        # optimum, identical iteration count, no safeguarded walk.
        cold = solve_newton(paper_group, EXAMPLE_TOTAL_RATE)
        warm = solve_newton(
            paper_group, EXAMPLE_TOTAL_RATE, phi_hint=cold.phi * factor
        )
        assert float(
            np.max(np.abs(warm.generic_rates - cold.generic_rates))
        ) <= 1e-9
        assert warm.iterations == cold.iterations

    def test_stale_in_band_hint_recovers_geometrically(self, paper_group):
        # gcap diverges with the stability margin, so the feasible band
        # spans ~12 decades and a wildly stale hint can still be
        # in-band.  The geometric safeguard halves the *exponent*
        # range per rejected step, so recovery is logarithmic in the
        # hint's error, not linear.
        cold = solve_newton(paper_group, EXAMPLE_TOTAL_RATE)
        warm = solve_newton(
            paper_group, EXAMPLE_TOTAL_RATE, phi_hint=cold.phi * 1e6
        )
        assert float(
            np.max(np.abs(warm.generic_rates - cold.generic_rates))
        ) <= 1e-9
        assert warm.iterations <= 20

    def test_nonsense_hints_fall_back_to_cold_start(self, paper_group):
        cold = solve_newton(paper_group, EXAMPLE_TOTAL_RATE)
        for hint in (float("nan"), float("inf"), -1.0, 0.0):
            warm = solve_newton(paper_group, EXAMPLE_TOTAL_RATE, phi_hint=hint)
            assert float(
                np.max(np.abs(warm.generic_rates - cold.generic_rates))
            ) <= 1e-9


class TestFacadeAnchors:
    """Tables 1-2 seven-decimal reproduction through repro.solve."""

    def test_table1_fcfs(self, paper_group):
        res = solve(paper_group, EXAMPLE_TOTAL_RATE, method="newton")
        assert res.backend == "newton"
        assert res.mean_response_time == pytest.approx(
            TABLE1_T_PRIME, abs=SEVEN_DECIMALS
        )
        assert np.allclose(res.generic_rates, TABLE1_RATES, atol=SEVEN_DECIMALS)

    def test_table2_priority(self, paper_group):
        res = solve(
            paper_group, EXAMPLE_TOTAL_RATE, discipline="priority", method="newton"
        )
        assert res.mean_response_time == pytest.approx(
            TABLE2_T_PRIME, abs=SEVEN_DECIMALS
        )
        assert np.allclose(res.generic_rates, TABLE2_RATES, atol=SEVEN_DECIMALS)


class TestValidationAndResult:
    def test_bad_tol(self, paper_group):
        with pytest.raises(ParameterError):
            solve_newton(paper_group, EXAMPLE_TOTAL_RATE, tol=0.0)

    def test_result_metadata(self, paper_group):
        res = solve_newton(paper_group, EXAMPLE_TOTAL_RATE)
        assert res.method == "newton-dual-ascent"
        assert res.converged
        assert res.iterations >= 1
        assert res.metadata["inner_sweeps"] >= 1

    def test_equal_marginals_at_optimum(self, paper_group):
        res = solve_newton(paper_group, EXAMPLE_TOTAL_RATE)
        loaded = [
            marginal_cost(
                s.size,
                s.xbar(paper_group.rbar),
                s.special_rate,
                float(lam),
                EXAMPLE_TOTAL_RATE,
                "fcfs",
            )
            for s, lam in zip(paper_group.servers, res.generic_rates)
            if lam > 1e-6
        ]
        assert max(loaded) - min(loaded) <= 1e-8 * max(loaded)
