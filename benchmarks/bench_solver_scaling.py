"""Scaling study: the root-finding backends across group sizes.

Times the scalar ``paper-bisection`` and the damped-Newton ``newton``
backend on heterogeneous groups of n ∈ {7, 50, 500, 2000} servers and
over the Figs. 4–15 sweep workloads, driving everything through the
public ``repro.solve`` / ``repro.solve_sweep`` facade.  The scalar
transcription is O(n) Python calls per marginal sweep; ``newton``
advances all per-server updates as arrays with second-order steps, so
the gap widens with n.  Acceptance: newton matches the scalar curves
on every figure sweep, is ≥10x over ``kkt`` cold at n = 500, and a
phi-warm-started re-solve never needs more outer iterations than the
cold one (persisted to ``BENCH_solver_scaling.json``); the disabled
observability layer adds <5% to a 1k-solve microloop.

Pass ``--quick`` (registered in ``benchmarks/conftest.py``) for the CI
smoke mode: every test still runs and every correctness assertion still
holds, but group sizes and sweep grids shrink to seconds of work and
the wall-clock speedup ratio — meaningless on loaded shared runners —
is not asserted.  The obs-overhead contract *is* asserted in quick mode
(the guard cost is orders of magnitude below the solve itself, so the
ratio is stable even on shared runners).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import ObsConfig, solve, solve_sweep
from repro.core.response import Discipline
from repro.core.solvers import dispatch, solve_kkt
from repro.core.server import BladeServerGroup
from repro.obs import Observability, configure, get_obs, reset_obs
from repro.workloads.groups import (
    size_impact_groups,
    special_load_impact_groups,
    speed_heterogeneity_groups,
)
from repro.workloads.sweeps import shared_sweep
from repro.workloads.paper import EXAMPLE_TOTAL_RATE, TABLE1_T_PRIME
from repro.workloads import example_group

from conftest import FIGURE_POINTS

#: Solver tolerance used throughout the scaling study (1e-12 would only
#: add outer iterations without changing the scalar/newton ratio).
TOL = 1e-9

SIZES = (7, 50, 500, 2000)

#: Sizes kept in ``--quick`` mode (sub-second solves, both backends).
QUICK_SIZES = (7, 50)


def scaling_group(n: int) -> BladeServerGroup:
    """Heterogeneous n-server group: sizes cycle 1..16, speeds 0.6..1.79."""
    if n == 7:
        return example_group()
    return BladeServerGroup.with_special_fraction(
        sizes=[1 + (i % 16) for i in range(n)],
        speeds=[0.6 + 0.01 * (i % 120) for i in range(n)],
        fraction=0.3,
    )


def _solve(method: str, n: int):
    group = scaling_group(n)
    lam = 0.6 * group.max_generic_rate if n != 7 else EXAMPLE_TOTAL_RATE
    return solve(group, lam, discipline="fcfs", method=method, tol=TOL)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("method", ["bisection", "newton"])
def test_backend_scaling(run_once, quick, method, n):
    """One cold solve per (backend, n); compare medians across params."""
    if quick and n not in QUICK_SIZES:
        pytest.skip(f"--quick: n = {n} exceeds the smoke sizes {QUICK_SIZES}")
    result = run_once(_solve, method, n)
    assert result.converged
    assert result.backend == method
    if n == 7:
        assert abs(result.mean_response_time - TABLE1_T_PRIME) < 5e-7
    print(
        f"\n{method} n={n}: T' = {result.mean_response_time:.7f}, "
        f"iterations = {result.iterations}"
    )


#: One representative figure family per parameter axis (sizes, preload,
#: speed heterogeneity); together they cover the fig04–15 sweep shapes.
FIGURE_FAMILIES = {
    "fig04-05": size_impact_groups,
    "fig10-11": special_load_impact_groups,
    "fig14-15": speed_heterogeneity_groups,
}


@pytest.mark.parametrize("family", sorted(FIGURE_FAMILIES))
def test_figure_sweep_scalar_vs_newton(quick, family):
    """Both backends over one figure family's shared sweep grid."""
    from conftest import QUICK_FIGURE_POINTS

    groups = FIGURE_FAMILIES[family]()
    rates = shared_sweep(
        groups, points=QUICK_FIGURE_POINTS if quick else FIGURE_POINTS
    )
    timings = {}
    curves = {}
    for method in ("bisection", "newton"):
        t0 = time.perf_counter()
        curves[method] = [
            [
                r.mean_response_time
                for r in solve_sweep(
                    g, rates, discipline="fcfs", method=method, tol=TOL
                )
            ]
            for g in groups
        ]
        timings[method] = time.perf_counter() - t0
    print(
        f"\n{family}: scalar {timings['bisection']:.2f}s, "
        f"newton {timings['newton']:.2f}s over "
        f"{len(groups)}x{len(rates)} solves"
    )
    np.testing.assert_allclose(curves["newton"], curves["bisection"], rtol=1e-7)


def test_obs_disabled_overhead_under_5pct(quick):
    """The no-op observability guard on the 1k-solve microloop.

    Times the instrumented ``dispatch`` entry (obs disabled — the
    default) against the bare backend function it forwards to.  The
    guard is one global read plus one branch per solve, so the contract
    is <5% added wall-clock; the assertion allows 10% of headroom for
    runner noise and prints the measured ratio either way.
    """
    reset_obs()
    assert not get_obs().enabled
    n_solves = 100 if quick else 300
    lam = EXAMPLE_TOTAL_RATE
    group = example_group()

    def loop(fn, **kw) -> float:
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(n_solves):
                fn(group, lam, Discipline.FCFS, **kw)
            best = min(best, time.perf_counter() - t0)
        return best

    loop(solve_kkt)  # warm every cache before timing
    bare = loop(solve_kkt)
    instrumented = loop(dispatch, method="kkt")
    ratio = instrumented / bare
    print(
        f"\nobs-disabled overhead over {n_solves} solves: "
        f"bare {bare:.3f}s, dispatch {instrumented:.3f}s "
        f"({100 * (ratio - 1):+.2f}%)"
    )
    assert ratio < 1.10, (
        f"disabled observability adds {100 * (ratio - 1):.1f}% "
        f"(contract: <5%, assertion headroom: 10%)"
    )


def test_newton_trajectory_json(quick):
    """Measure the solver trajectory and persist it as JSON.

    Times kkt/newton/sharded cold per group size plus phi-warm
    re-solves for the warm-startable backends, then writes
    ``BENCH_solver_scaling.json`` at the repo root through the
    crash-safe ``atomic_write_json``.  Both modes require every
    newton-warm re-solve to need no more outer iterations than the
    cold solve at the same size (deterministic); full mode also
    asserts newton >= 10x over kkt cold at n = 500, while quick mode
    records the (shared-runner noisy) ratios without asserting them.
    """
    from trajectory import QUICK_SIZES as TRAJ_QUICK_SIZES
    from trajectory import FULL_SIZES, measure_trajectory, write_trajectory

    sizes = TRAJ_QUICK_SIZES if quick else FULL_SIZES
    data = measure_trajectory(sizes=sizes, quick=quick)
    path = write_trajectory(data)
    print(f"\ntrajectory -> {path}")
    for key, ratio in sorted(data["speedups"].items()):
        print(f"  {key}: {ratio:.1f}x")
    for n in sizes:
        cold_iters = data["entries"][f"newton@n={n}"]["iterations"]
        warm_iters = data["entries"][f"newton-warm@n={n}"]["iterations"]
        assert warm_iters <= cold_iters, (
            f"newton warm start took {warm_iters} iterations vs "
            f"{cold_iters} cold at n={n}"
        )
    if not quick:
        cold = data["speedups"]["cold_kkt_over_newton@n=500"]
        assert cold >= 10.0, f"newton only {cold:.1f}x over kkt cold at n=500"


def test_profiling_hook_attributes_the_hot_path(quick):
    """The opt-in cProfile hook finds the marginal-sweep hot path."""
    prior = get_obs()
    try:
        o = configure(ObsConfig(enabled=True, profile=True, trace=False))
        with o.profile(top_n=40, sort="tottime") as report:
            solve(
                scaling_group(50),
                0.6 * scaling_group(50).max_generic_rate,
                discipline="fcfs",
                method="bisection",
                tol=TOL,
            )
        assert report.enabled
        assert report.total_calls > 0
        # The scalar backend's cost is the per-server marginal sweeps;
        # the profile must attribute time inside the core modules.
        assert "repro/core" in report.text
        print(f"\nprofile top rows:\n{report.text[:600]}")
    finally:
        configure(prior if isinstance(prior, Observability) else ObsConfig())
