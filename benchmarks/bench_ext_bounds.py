"""Extension bench: tightness and cost of the analytic T' bounds.

Across the load range of the Examples 1/2 system: how tightly do the
one-shot lower (relaxed pooling) and upper (spare-proportional) bounds
sandwich the true optimum, and how much cheaper are they than solving?
Expected shape: the constructive upper bound hugs the optimum (few
percent) at all loads; the pooled lower bound is loose at low load
(it erases the speed heterogeneity) and tightens toward saturation.
"""

from __future__ import annotations

import pytest

from repro import solve
from repro.core.bounds import lower_bound, upper_bound
from repro.workloads import example_group


def test_bound_tightness_across_loads(benchmark):
    group = example_group()

    def sweep():
        rows = []
        for frac in (0.2, 0.4, 0.6, 0.8, 0.95):
            lam = frac * group.max_generic_rate
            lo = lower_bound(group, lam)
            t = solve(group, lam).mean_response_time
            hi = upper_bound(group, lam)
            rows.append((frac, lo, t, hi))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for frac, lo, t, hi in rows:
        print(
            f"  load {frac:4.0%}: LB {lo:.4f} <= T'* {t:.4f} <= UB {hi:.4f} "
            f"(UB slack {hi / t - 1:.2%})"
        )
    for frac, lo, t, hi in rows:
        assert lo <= t <= hi
        assert hi / t < 1.10  # the constructive bound stays tight


def test_bounds_evaluation_speed(benchmark):
    group = example_group()
    lam = 0.6 * group.max_generic_rate

    def both():
        return lower_bound(group, lam), upper_bound(group, lam)

    lo, hi = benchmark(both)
    assert lo < hi
