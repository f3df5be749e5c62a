"""Extension bench: arrival-burstiness robustness of the optimal split.

The paper assumes Poisson generic arrivals.  This bench simulates the
Poisson-optimal split under increasingly bursty arrival processes at
the *same* long-run rate — MMPP modulation and hyperexponential renewal
gaps — and measures the drift of the realized mean generic response
time from the M/M/m promise.  Expected shape: drift grows with
burstiness, and the correlated (MMPP) burstiness hurts more than the
uncorrelated (renewal) variability at equal marginal behaviour.
"""

from __future__ import annotations

import pytest

from repro import solve
from repro.core.server import BladeServerGroup
from repro.sim.arrivals import HyperexponentialArrivals, MMPPArrivals
from repro.sim.engine import GroupSimulation, SimulationConfig


@pytest.fixture(scope="module")
def group():
    return BladeServerGroup.with_special_fraction(
        sizes=[2, 4, 6], speeds=[1.4, 1.2, 1.0], fraction=0.3
    )


def run_with_arrivals(group, lam, fractions, arrivals, seed=23):
    config = SimulationConfig(
        total_generic_rate=lam,
        fractions=tuple(fractions),
        horizon=6_000.0,
        warmup=600.0,
        seed=seed,
    )
    return GroupSimulation(group, config, arrivals=arrivals).run()


def test_mmpp_burstiness_sweep(benchmark, group):
    lam = 0.7 * group.max_generic_rate
    res = solve(group, lam, discipline="fcfs")

    def sweep():
        rows = [("poisson", run_with_arrivals(group, lam, res.fractions, None))]
        for b in (3.0, 6.0, 12.0):
            proc = MMPPArrivals(lam, burstiness=b, mean_sojourn=20.0)
            rows.append((f"mmpp(b={b:.0f})", run_with_arrivals(
                group, lam, res.fractions, proc
            )))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(f"\npredicted T' = {res.mean_response_time:.4f}")
    drifts = []
    for name, sim in rows:
        drift = sim.generic_response_time / res.mean_response_time
        drifts.append(drift)
        print(f"  {name:>12}: simulated {sim.generic_response_time:.4f} "
              f"(drift {drift:.3f})")
    # Poisson control honest, drift increasing in burstiness.
    assert drifts[0] == pytest.approx(1.0, abs=0.06)
    assert all(b > a for a, b in zip(drifts, drifts[1:]))
    assert drifts[-1] > 1.3


def test_renewal_variability_sweep(benchmark, group):
    lam = 0.7 * group.max_generic_rate
    res = solve(group, lam, discipline="fcfs")

    def sweep():
        rows = []
        for scv in (2.0, 4.0, 8.0):
            proc = HyperexponentialArrivals(lam, scv=scv)
            sim = run_with_arrivals(group, lam, res.fractions, proc)
            rows.append((scv, sim.generic_response_time))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(f"\npredicted T' = {res.mean_response_time:.4f}")
    for scv, t in rows:
        print(f"  H2 arrivals scv={scv:.0f}: simulated {t:.4f} "
              f"(drift {t / res.mean_response_time:.3f})")
    ts = [t for _, t in rows]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert ts[0] > res.mean_response_time  # any extra variability hurts
