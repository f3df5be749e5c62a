"""Fleet-scale study of the sharded control plane.

Exercises the hierarchical KKT coordinator at sizes the flat solver was
built for (hundreds) up to the ISSUE's fleet scale (n = 50 000), driving
everything through the public ``repro.solve`` facade and the
``repro.shard`` subsystem:

* **solver scaling** — cold and warm hierarchical solves vs flat Newton,
  asserting the pruning-off gap stays ≤ 1e-8 at every size;
* **pruning gap curve** — the measured top-k optimality gap, monotone
  non-increasing in ``k`` by construction of the nested candidate sets;
* **closed loop at n = 50k** — the acceptance run: several concurrent
  shard dispatchers (one runtime, estimator, router, journal and
  checkpoint generation each) over one discrete-event engine, with the
  coordinator periodically re-solving the global split.

The DES event count is bounded by the *absolute* arrival rate and
horizon, not by n, so the 50k run times the control plane (partition,
hierarchical solves, per-shard routing structures) rather than drowning
in queueing events.  Pass ``--quick`` for the CI smoke mode: same code
paths, fleet shrunk to n = 2000.
"""

from __future__ import annotations

import glob
import os
import time

import pytest

from repro import ShardConfig, solve
from repro.core.server import BladeServer, BladeServerGroup
from repro.recovery import RecoveryConfig
from repro.runtime.loop import RuntimeConfig
from repro.runtime.policies import RoutingConfig
from repro.shard import pruning_gap_report, run_sharded_closed_loop
from repro.workloads.traces import RateTrace

from bench_solver_scaling import scaling_group

#: Solver tolerance shared with the rest of the scaling study.
TOL = 1e-9

#: Fleet size of the acceptance closed-loop run (and its smoke stand-in).
FLEET_N = 50_000
QUICK_FLEET_N = 2_000

#: Concurrent shard dispatchers in the closed-loop run (ISSUE: >= 4).
FLEET_SHARDS = 8


def fleet_group(n: int) -> BladeServerGroup:
    """A heterogeneous n-server fleet with no special preloads.

    Special tasks are per-server Poisson streams in the engine, so at
    n = 50k even a small per-server rate would swamp the event budget;
    the fleet-scale runs study the generic control plane only.
    """
    return BladeServerGroup(
        [
            BladeServer(size=1 + (i % 16), speed=0.6 + 0.01 * (i % 120))
            for i in range(n)
        ],
        rbar=1.0,
    )


@pytest.mark.parametrize("n", [500, 5000])
def test_sharded_solver_scaling(quick, n):
    """Cold + warm hierarchical solves vs flat Newton, gap <= 1e-8."""
    if quick and n != 500:
        pytest.skip("--quick: sharded scaling runs at n = 500 only")
    group = scaling_group(n)
    lam = 0.6 * group.max_generic_rate
    t0 = time.perf_counter()
    flat = solve(group, lam, discipline="fcfs", method="newton", tol=TOL)
    t_flat = time.perf_counter() - t0
    t0 = time.perf_counter()
    sharded = solve(
        group, lam, discipline="fcfs", method="sharded", tol=TOL, shards=8
    )
    t_cold = time.perf_counter() - t0
    gap = abs(
        sharded.mean_response_time - flat.mean_response_time
    ) / flat.mean_response_time
    t0 = time.perf_counter()
    warm = solve(
        group,
        1.01 * lam,
        discipline="fcfs",
        method="sharded",
        tol=TOL,
        shards=8,
        phi_hint=dict(sharded.metadata["shard_phi"]),
    )
    t_warm = time.perf_counter() - t0
    print(
        f"\nn={n}: flat {t_flat * 1e3:.1f}ms, sharded cold "
        f"{t_cold * 1e3:.1f}ms ({sharded.iterations} outers), warm "
        f"{t_warm * 1e3:.1f}ms ({warm.iterations} outers), gap {gap:.2e}"
    )
    assert gap <= 1e-8
    assert warm.converged and warm.iterations <= sharded.iterations + 2


def test_sharded_pruning_gap_curve(quick):
    """The measured top-k gap curve: monotone, tiny once k covers the
    servers the optimum actually loads."""
    n = 200 if quick else 1000
    group = scaling_group(n)
    lam = 0.5 * group.max_generic_rate
    # End the sweep at full per-shard coverage (k = n/shards keeps every
    # server), so the curve provably descends to the exact gap.
    report = pruning_gap_report(
        group, lam, ks=(2, 8, 32, n // 4), shards=4, tol=TOL
    )
    print(f"\nn={n}, shards=4: exact_gap {report.exact_gap:.2e}")
    for entry in report.entries:
        print(
            f"  k={entry.top_k:3d}: kept {entry.candidates:4d}, "
            f"gap {entry.gap:.3e}"
        )
    assert abs(report.exact_gap) < 1e-3
    gaps = [entry.gap for entry in report.entries]
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a + 1e-9
    assert gaps[-1] <= 1e-6  # full coverage == the exact sharded solve


def test_sharded_closed_loop_fleet(quick, tmp_path):
    """The ISSUE acceptance run: closed loop at n = 50k with >= 4
    concurrent shard dispatchers, per-shard journals and checkpoints.

    Every shard owns a full runtime (estimator, drift controller, alias
    router, journal + checkpoint generation); the coordinator re-solves
    the global split from the shards' aggregated rate estimates several
    times over the horizon.
    """
    n = QUICK_FLEET_N if quick else FLEET_N
    t0 = time.perf_counter()
    group = fleet_group(n)
    t_build = time.perf_counter() - t0
    trace = RateTrace.constant(150.0)
    config = RuntimeConfig(
        # O(1) picks; SWRR would be O(n) per arrival.
        routing=RoutingConfig(policy="alias"),
        resolve_period=60.0,
        recovery=RecoveryConfig(enabled=True, directory=str(tmp_path)),
    )
    t0 = time.perf_counter()
    report = run_sharded_closed_loop(
        group,
        trace,
        config,
        ShardConfig(shards=FLEET_SHARDS),
        horizon=300.0,
        warmup=50.0,
        seed=17,
        rebalance_period=60.0,
        collect_tasks=False,
    )
    t_run = time.perf_counter() - t0
    print(
        f"\nfleet n={n}, {FLEET_SHARDS} dispatchers: build {t_build:.2f}s, "
        f"run {t_run:.2f}s, {report.rebalances} rebalances, "
        f"{report.sim.generic_completed} completions, "
        f"T = {report.sim.generic_response_time:.4f}"
    )
    assert report.rebalances >= 4
    assert len(report.runtimes) == FLEET_SHARDS
    assert report.sim.generic_completed > 0
    assert abs(sum(report.shard_shares) - 1.0) <= 1e-12
    # Durability acceptance: every dispatcher owns its own journal and
    # checkpoint generation under <dir>/shard-XX/.
    assert len(report.recovery_dirs) == FLEET_SHARDS
    for directory in report.recovery_dirs:
        assert os.path.isfile(os.path.join(directory, "journal.jsonl"))
        assert glob.glob(os.path.join(directory, "checkpoint-*.json"))


def test_sharded_partition_scales_linearly(quick):
    """Partitioning 50k servers is a sub-second array operation."""
    n = QUICK_FLEET_N if quick else FLEET_N
    from repro.shard import partition_group

    group = fleet_group(n)
    t0 = time.perf_counter()
    plan = partition_group(group, ShardConfig(shards=FLEET_SHARDS, strategy="type"))
    elapsed = time.perf_counter() - t0
    print(f"\npartition n={n} into {plan.n_shards} shards: {elapsed * 1e3:.0f}ms")
    assert sorted(i for s in plan.shards for i in s.members) == list(range(n))
    assert elapsed < 5.0
