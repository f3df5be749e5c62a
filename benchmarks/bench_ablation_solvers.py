"""Ablation: the solver backends on the published instance.

Beyond-the-paper study called out in DESIGN.md — all backends must find
the same optimum (Tables 1/2 anchor), and the benchmark quantifies the
speed differences: the paper's nested bisection is the reference but
pays ~10–20x over Brent-based root finding at equal tolerance; SLSQP
sits in between; the damped-Newton dual ascent overtakes Brent as the
group grows (crossover measured in ``BENCH_solver_scaling.json``); the
closed form (on an all-M/M/1 variant) is essentially free.
"""

from __future__ import annotations

import pytest

from repro import solve
from repro.core.server import BladeServerGroup
from repro.workloads import example_group
from repro.workloads.paper import EXAMPLE_TOTAL_RATE, TABLE2_T_PRIME


@pytest.fixture(scope="module")
def group():
    return example_group()


@pytest.mark.parametrize("method", ["bisection", "kkt", "slsqp", "newton"])
def test_solver_speed_on_example2(benchmark, group, method):
    """Time each backend on the Table 2 instance (priority discipline)."""
    result = benchmark(
        solve, group, EXAMPLE_TOTAL_RATE, discipline="priority", method=method
    )
    assert abs(result.mean_response_time - TABLE2_T_PRIME) < 5e-7
    print(
        f"\n{method}: T' = {result.mean_response_time:.7f}, "
        f"iterations = {result.iterations}"
    )


def test_closed_form_speed(benchmark):
    """Time Theorem 1's closed form on a 64-server all-M/M/1 group."""
    group = BladeServerGroup.with_special_fraction(
        sizes=[1] * 64,
        speeds=[0.5 + 0.025 * i for i in range(64)],
        fraction=0.3,
    )
    lam = 0.5 * group.max_generic_rate
    result = benchmark(solve, group, lam, discipline="fcfs", method="closed-form")
    # Cross-check against the numeric solver once.
    ref = solve(group, lam, discipline="fcfs", method="kkt")
    assert abs(result.mean_response_time - ref.mean_response_time) < 1e-9


def test_kkt_scales_to_large_groups(benchmark):
    """Solver cost on a 200-server heterogeneous group (beyond paper scale)."""
    n = 200
    group = BladeServerGroup.with_special_fraction(
        sizes=[2 + (i % 14) for i in range(n)],
        speeds=[0.8 + 0.01 * (i % 90) for i in range(n)],
        fraction=0.3,
    )
    lam = 0.6 * group.max_generic_rate
    result = benchmark.pedantic(
        solve,
        args=(group, lam),
        kwargs={"discipline": "fcfs", "method": "kkt"},
        rounds=3,
        iterations=1,
    )
    assert result.total_rate == pytest.approx(lam, rel=1e-9)
