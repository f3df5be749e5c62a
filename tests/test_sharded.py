"""Tests for the sharded control plane (repro/shard/).

Covers partitioning (all three strategies plus validation), cross-shard
optimality — randomized heterogeneous fleets, parked servers, the
saturation edge, asserting the hierarchical solve matches the flat
Newton/KKT optimum to <= 1e-8 in total mean response time — sparse
candidate pruning (nested sets, monotone gap curve, feasibility
expansion), warm-start semantics (scalar and per-shard dict hints,
shard-aware sweeps), the ``method="sharded"`` facade registration, and
the multi-dispatcher closed loop with per-shard journal/checkpoint
generations.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

import repro
from repro import ShardConfig, solve, solve_sweep
from repro.core.exceptions import ParameterError
from repro.core.newton import solve_newton
from repro.core.server import BladeServer, BladeServerGroup
from repro.recovery import RecoveryConfig
from repro.runtime.loop import RuntimeConfig
from repro.runtime.policies import RoutingConfig
from repro.shard import (
    ShardCoordinator,
    ShardedDispatcher,
    candidate_sets,
    partition_group,
    pruning_gap_report,
    rank_servers,
    run_sharded_closed_loop,
    shard_seeds,
    solve_sharded,
)
from repro.workloads.traces import RateTrace

#: Acceptance bound on |T'_sharded - T'_flat| / T'_flat (pruning off).
AGREEMENT = 1e-8


def random_group(rng: np.random.Generator, n: int) -> BladeServerGroup:
    """A heterogeneous group with mixed sizes/speeds/special preloads."""
    servers = []
    for _ in range(n):
        m = int(rng.integers(1, 9))
        speed = float(rng.uniform(0.4, 3.0))
        special = float(rng.uniform(0.0, 0.4) * m * speed)
        servers.append(BladeServer(size=m, speed=speed, special_rate=special))
    return BladeServerGroup(servers, rbar=1.0)


class TestPartition:
    def test_contiguous_covers_everything_once(self):
        g = random_group(np.random.default_rng(1), 23)
        plan = partition_group(g, ShardConfig(shards=5))
        seen = sorted(i for s in plan.shards for i in s.members)
        assert seen == list(range(23))
        assert plan.n_shards == 5
        assert {s.n for s in plan.shards} <= {4, 5}

    def test_type_strategy_groups_like_hardware(self):
        servers = [BladeServer(size=2, speed=2.0) for _ in range(6)] + [
            BladeServer(size=8, speed=0.5) for _ in range(6)
        ]
        g = BladeServerGroup(servers, rbar=1.0)
        plan = partition_group(g, ShardConfig(shards=2, strategy="type"))
        # Slicing the type-sorted order puts each hardware class in its
        # own shard (fast blades rank first).
        fast = set(range(6))
        assert set(plan.shards[0].members) == fast
        assert set(plan.shards[1].members) == set(range(6, 12))

    def test_custom_assignment_respected(self):
        g = random_group(np.random.default_rng(2), 6)
        cfg = ShardConfig(
            shards=2, strategy="custom", assignment=(0, 1, 0, 1, 0, 1)
        )
        plan = partition_group(g, cfg)
        assert plan.shards[0].members == (0, 2, 4)
        assert plan.shards[1].members == (1, 3, 5)
        np.testing.assert_array_equal(
            plan.assignment, np.array([0, 1, 0, 1, 0, 1])
        )

    def test_shard_count_clamped_to_group_size(self):
        g = random_group(np.random.default_rng(3), 3)
        plan = partition_group(g, ShardConfig(shards=8))
        assert plan.n_shards == 3
        assert all(s.n == 1 for s in plan.shards)

    def test_custom_validation(self):
        g = random_group(np.random.default_rng(4), 4)
        with pytest.raises(ParameterError):  # wrong length
            partition_group(
                g, ShardConfig(shards=2, strategy="custom", assignment=(0, 1))
            )
        with pytest.raises(ParameterError):  # id out of range
            partition_group(
                g,
                ShardConfig(
                    shards=2, strategy="custom", assignment=(0, 1, 2, 0)
                ),
            )
        with pytest.raises(ParameterError):  # shard 1 empty
            partition_group(
                g,
                ShardConfig(
                    shards=2, strategy="custom", assignment=(0, 0, 0, 0)
                ),
            )

    def test_config_validation_and_roundtrip(self):
        with pytest.raises(ParameterError):
            ShardConfig(shards=0)
        with pytest.raises(ParameterError):
            ShardConfig(strategy="mystery")
        with pytest.raises(ParameterError):  # assignment without custom
            ShardConfig(assignment=(0, 1))
        with pytest.raises(ParameterError):  # custom without assignment
            ShardConfig(strategy="custom")
        with pytest.raises(ParameterError):
            ShardConfig(top_k=0)
        cfg = ShardConfig(
            shards=3, strategy="custom", assignment=(0, 1, 2, 1), top_k=2
        )
        assert ShardConfig.from_dict(cfg.to_dict()) == cfg

    def test_expand_scatters_local_vectors(self):
        g = random_group(np.random.default_rng(5), 9)
        plan = partition_group(g, ShardConfig(shards=3))
        full = plan.expand(
            [np.full(s.n, float(s.index)) for s in plan.shards]
        )
        np.testing.assert_array_equal(full, plan.assignment.astype(float))


class TestCrossShardOptimality:
    @pytest.mark.parametrize("strategy", ["contiguous", "type"])
    @pytest.mark.parametrize("discipline", ["fcfs", "priority"])
    def test_matches_flat_newton_randomized(self, strategy, discipline):
        rng = np.random.default_rng(7)
        for trial in range(6):
            g = random_group(rng, int(rng.integers(8, 70)))
            lam = float(rng.uniform(0.3, 0.85)) * g.max_generic_rate
            flat = solve_newton(g, lam, discipline, tol=1e-12)
            sharded = solve_sharded(
                g,
                lam,
                discipline,
                tol=1e-12,
                config=ShardConfig(
                    shards=int(rng.integers(2, 7)), strategy=strategy
                ),
            )
            rel = abs(
                sharded.mean_response_time - flat.mean_response_time
            ) / flat.mean_response_time
            assert rel <= AGREEMENT, (trial, rel)
            assert abs(float(sharded.generic_rates.sum()) - lam) <= 1e-9 * lam

    def test_parked_servers_stay_parked(self):
        # At light load the water-filling parks the slow half of the
        # fleet; the sharded solve must park exactly the same servers.
        servers = [BladeServer(size=2, speed=2.0) for _ in range(8)] + [
            BladeServer(size=2, speed=0.05) for _ in range(8)
        ]
        g = BladeServerGroup(servers, rbar=1.0)
        lam = 0.05 * g.max_generic_rate
        flat = solve_newton(g, lam, tol=1e-12)
        sharded = solve_sharded(g, lam, tol=1e-12, shards=4)
        assert (flat.generic_rates[8:] == 0.0).all()
        assert (sharded.generic_rates[8:] == 0.0).all()
        rel = abs(
            sharded.mean_response_time - flat.mean_response_time
        ) / flat.mean_response_time
        assert rel <= AGREEMENT

    def test_saturation_edge(self):
        rng = np.random.default_rng(11)
        g = random_group(rng, 24)
        lam = 0.999 * g.max_generic_rate
        flat = solve_newton(g, lam, tol=1e-12)
        sharded = solve_sharded(g, lam, tol=1e-12, shards=6)
        rel = abs(
            sharded.mean_response_time - flat.mean_response_time
        ) / flat.mean_response_time
        assert rel <= AGREEMENT
        assert abs(float(sharded.generic_rates.sum()) - lam) <= 1e-9 * lam

    def test_single_shard_degenerates_to_flat(self):
        g = random_group(np.random.default_rng(13), 20)
        lam = 0.6 * g.max_generic_rate
        flat = solve_newton(g, lam, tol=1e-12)
        sharded = solve_sharded(g, lam, tol=1e-12, shards=1)
        np.testing.assert_allclose(
            sharded.generic_rates, flat.generic_rates, atol=1e-9
        )

    def test_shard_response_is_nondecreasing_in_phi(self):
        g = random_group(np.random.default_rng(17), 18)
        lam = 0.5 * g.max_generic_rate
        plan = partition_group(g, ShardConfig(shards=3))
        coord = ShardCoordinator(plan, lam, tol=1e-10)
        phis = np.geomspace(coord.phi_floor * 1.01, coord.phi_floor * 50, 8)
        prev = np.zeros(plan.n_shards)
        for phi in phis:
            loads, _, _ = coord.response(float(phi))
            assert (loads >= prev - 1e-9).all()
            prev = loads


class TestWarmStarts:
    def test_dict_hint_matches_cold(self):
        g = random_group(np.random.default_rng(19), 30)
        lam = 0.6 * g.max_generic_rate
        cfg = ShardConfig(shards=5)
        cold = solve_sharded(g, lam, tol=1e-12, config=cfg)
        warm = solve_sharded(
            g,
            1.05 * lam,
            tol=1e-12,
            config=cfg,
            phi_hint=cold.metadata["shard_phi"],
        )
        ref = solve_sharded(g, 1.05 * lam, tol=1e-12, config=cfg)
        np.testing.assert_allclose(
            warm.generic_rates, ref.generic_rates, atol=1e-8
        )

    def test_scalar_and_garbage_hints_are_safe(self):
        g = random_group(np.random.default_rng(23), 16)
        lam = 0.5 * g.max_generic_rate
        cfg = ShardConfig(shards=4)
        ref = solve_sharded(g, lam, tol=1e-12, config=cfg)
        for hint in (ref.phi, ref.phi * 1e30, float("nan"), -3.0, {0: -1.0}):
            res = solve_sharded(g, lam, tol=1e-12, config=cfg, phi_hint=hint)
            np.testing.assert_allclose(
                res.generic_rates, ref.generic_rates, atol=1e-8
            )

    def test_sweep_threads_per_shard_hints(self):
        g = random_group(np.random.default_rng(29), 24)
        rates = np.linspace(0.2, 0.8, 6) * g.max_generic_rate
        warm = solve_sweep(g, rates, method="sharded", shards=4)
        cold = solve_sweep(g, rates, method="newton", warm_start=False)
        for w, c in zip(warm, cold):
            rel = abs(
                w.mean_response_time - c.mean_response_time
            ) / c.mean_response_time
            assert rel <= AGREEMENT
            assert w.metadata["shards"] == 4


class TestSparsePruning:
    def test_candidate_sets_are_nested_in_k(self):
        g = random_group(np.random.default_rng(31), 40)
        lam = 0.4 * g.max_generic_rate
        plan = partition_group(g, ShardConfig(shards=4))
        previous = None
        for k in (2, 4, 6, 8):
            kept = candidate_sets(plan, lam, top_k=k)
            if previous is not None:
                for small, big in zip(previous, kept):
                    assert set(small).issubset(set(big))
            previous = kept

    def test_rank_follows_zero_load_marginal(self):
        g = random_group(np.random.default_rng(37), 12)
        lam = 0.5 * g.max_generic_rate
        plan = partition_group(g, ShardConfig(shards=1))
        (order,) = rank_servers(plan, lam)
        # The cheapest-ranked server is the one the flat optimum loads
        # most at vanishing load.
        tiny = solve_newton(g, 1e-6 * g.max_generic_rate, tol=1e-12)
        assert int(np.argmax(tiny.generic_rates)) == int(order[0])

    def test_feasibility_expansion_admits_extra_candidates(self):
        g = random_group(np.random.default_rng(41), 24)
        lam = 0.9 * g.max_generic_rate
        plan = partition_group(g, ShardConfig(shards=4))
        kept = candidate_sets(plan, lam, top_k=1)
        total = sum(k.size for k in kept)
        assert total > 4  # 4 shards x top_k=1 cannot carry 0.9 capacity
        caps = g.spare_capacities
        kept_cap = sum(
            float(caps[np.asarray(plan.shards[s].members)[kept[s]]].sum())
            for s in range(plan.n_shards)
        )
        assert kept_cap > lam

    def test_pruned_solve_stays_feasible_and_converges(self):
        g = random_group(np.random.default_rng(43), 32)
        lam = 0.55 * g.max_generic_rate
        res = solve_sharded(g, lam, shards=4, top_k=3)
        assert res.converged
        assert abs(float(res.generic_rates.sum()) - lam) <= 1e-8 * lam
        assert res.metadata["pruned"] > 0
        # Load only lands on kept candidates.
        plan = partition_group(g, ShardConfig(shards=4, top_k=3))
        kept = candidate_sets(plan, lam, top_k=3)
        kept_global = np.concatenate(
            [
                np.asarray(plan.shards[s].members)[kept[s]]
                for s in range(plan.n_shards)
            ]
        )
        outside = np.setdiff1d(np.arange(g.n), kept_global)
        assert (res.generic_rates[outside] == 0.0).all()

    def test_gap_monotone_nonincreasing_in_k(self):
        g = random_group(np.random.default_rng(47), 36)
        lam = 0.5 * g.max_generic_rate
        report = pruning_gap_report(g, lam, ks=(2, 3, 5, 9), shards=4)
        gaps = [entry.gap for entry in report.entries]
        assert [e.top_k for e in report.entries] == [2, 3, 5, 9]
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a + 1e-9
        # Every pruned gap is a true gap (>= 0 up to tolerance) and the
        # pruning-off sharded solve is flat-exact.
        assert all(gap >= -1e-9 for gap in gaps)
        assert abs(report.exact_gap) < 1e-3

    def test_report_roundtrips_to_json_types(self):
        g = random_group(np.random.default_rng(53), 20)
        lam = 0.4 * g.max_generic_rate
        report = pruning_gap_report(g, lam, ks=(2, 4), shards=2)
        doc = report.to_dict()
        assert doc["n"] == 20 and len(doc["entries"]) == 2
        assert isinstance(doc["entries"][0]["gap"], float)


class TestFacade:
    def test_registered_and_warm_startable(self):
        from repro.core.solvers import warm_startable_methods

        assert "sharded" in repro.available_methods()
        assert "sharded" in warm_startable_methods()

    def test_solve_method_sharded(self, paper_group):
        from repro.workloads.paper import EXAMPLE_TOTAL_RATE

        res = solve(paper_group, EXAMPLE_TOTAL_RATE, method="sharded", shards=3)
        flat = solve(paper_group, EXAMPLE_TOTAL_RATE, method="newton")
        assert res.backend == "sharded"
        assert res.method == "sharded-hierarchical"
        rel = abs(
            res.mean_response_time - flat.mean_response_time
        ) / flat.mean_response_time
        assert rel <= AGREEMENT

    def test_conflicting_partition_kwargs_rejected(self):
        g = random_group(np.random.default_rng(59), 8)
        lam = 0.3 * g.max_generic_rate
        plan = partition_group(g, ShardConfig(shards=2))
        with pytest.raises(ParameterError):
            solve_sharded(g, lam, plan=plan, shards=3)
        with pytest.raises(ParameterError):
            solve_sharded(g, lam, config=ShardConfig(shards=2), top_k=3)
        other = random_group(np.random.default_rng(60), 8)
        with pytest.raises(ParameterError):
            solve_sharded(other, lam, plan=plan)

    def test_metadata_surface(self):
        g = random_group(np.random.default_rng(61), 15)
        lam = 0.5 * g.max_generic_rate
        res = solve_sharded(g, lam, shards=3, strategy="type")
        md = res.metadata
        assert md["shards"] == 3 and md["strategy"] == "type"
        assert md["candidates"] == 15 and md["pruned"] == 0
        assert set(md["shard_phi"]) == {0, 1, 2}
        assert len(md["shard_loads"]) == 3
        assert abs(sum(md["shard_loads"]) - lam) <= 1e-8 * lam


class TestShardedClosedLoop:
    def test_multi_dispatcher_run_with_per_shard_recovery(self, tmp_path):
        g = BladeServerGroup.with_special_fraction(
            sizes=[2, 4, 6, 8, 10, 12, 14] * 2,
            speeds=[1.6, 1.5, 1.4, 1.3, 1.2, 1.1, 1.0] * 2,
            fraction=0.3,
        )
        trace = RateTrace.constant(40.0)
        config = RuntimeConfig(
            routing=RoutingConfig(policy="alias"),
            resolve_period=40.0,
            recovery=RecoveryConfig(enabled=True, directory=str(tmp_path)),
        )
        report = run_sharded_closed_loop(
            g,
            trace,
            config,
            ShardConfig(shards=4),
            horizon=240.0,
            warmup=40.0,
            seed=5,
            rebalance_period=50.0,
            collect_tasks=False,
        )
        assert report.rebalances >= 3
        assert len(report.runtimes) == 4
        assert abs(sum(report.shard_shares) - 1.0) <= 1e-12
        # Every shard dispatcher owns its own journal and checkpoint
        # generation; no two shards share files.
        assert len(report.recovery_dirs) == 4
        for directory in report.recovery_dirs:
            assert os.path.isfile(os.path.join(directory, "journal.jsonl"))
            assert glob.glob(os.path.join(directory, "checkpoint-*.json"))
        # Each shard actually carried traffic.
        for runtime in report.runtimes:
            assert runtime.metrics.counters.arrivals > 0
        assert report.sim.generic_completed > 0

    def test_rebalance_tracks_drifting_load(self):
        g = BladeServerGroup.with_special_fraction(
            sizes=[2, 4, 6, 8, 10, 12, 14],
            speeds=[1.6, 1.5, 1.4, 1.3, 1.2, 1.1, 1.0],
            fraction=0.3,
        )
        trace = RateTrace.step(20.0, at=120.0, to=32.0)
        config = RuntimeConfig(
            routing=RoutingConfig(policy="alias"), time_constant=30.0
        )
        report = run_sharded_closed_loop(
            g,
            trace,
            config,
            ShardConfig(shards=2),
            horizon=360.0,
            warmup=30.0,
            seed=9,
            rebalance_period=40.0,
            collect_tasks=False,
        )
        assert report.rebalances >= 8
        # After the step the coordinator re-splits around the higher
        # offered rate; the dispatcher-level shares stay normalized.
        assert abs(sum(report.shard_shares) - 1.0) <= 1e-12
        assert report.sim.generic_completed > 0


class TestShardSeeds:
    def test_deterministic_and_distinct_within_base(self):
        a = shard_seeds(42, 6)
        assert a == shard_seeds(42, 6)
        assert len(set(a)) == 6

    def test_no_cross_base_aliasing(self):
        # The old affine rule (base + 7919 * (s + 1)) made shard s of
        # base b collide with shard s - 1 of base b + 7919, so two
        # "independent" experiment replications shared whole runtime
        # streams.  SeedSequence spawning keeps every (base, shard)
        # pair disjoint.
        for base in (0, 1, 7919, 7920, 2 * 7919):
            for other in (base + 7919, base + 2 * 7919):
                ours = set(shard_seeds(base, 5))
                theirs = set(shard_seeds(other, 5))
                assert ours.isdisjoint(theirs), (base, other)

    def test_rejects_empty_fleet(self):
        with pytest.raises(ParameterError):
            shard_seeds(0, 0)


class TestDispatcherEdgeCases:
    def _dispatcher(self, shares=None):
        g = BladeServerGroup.with_special_fraction(
            sizes=[2, 4, 6, 8], speeds=[1.5, 1.3, 1.2, 1.0], fraction=0.3
        )
        plan = partition_group(g, ShardConfig(shards=2))
        from repro.runtime.loop import LoadDistributionRuntime

        runtimes = [
            LoadDistributionRuntime(s.group, 4.0, RuntimeConfig())
            for s in plan.shards
        ]
        if shares is None:
            shares = np.array([0.5, 0.5])
        return ShardedDispatcher(
            plan, runtimes, shares, np.random.default_rng(123)
        )

    def test_zero_total_shares_fall_back_to_uniform(self):
        dispatcher = self._dispatcher()
        dispatcher.set_shares(np.zeros(2))
        np.testing.assert_allclose(dispatcher.shares, [0.5, 0.5])

    def test_exact_zero_share_shard_never_drawn(self):
        dispatcher = self._dispatcher(shares=np.array([0.0, 1.0]))
        for _ in range(2000):
            dispatcher.observe_arrival(0.0)
            assert dispatcher._pending == 1

    def test_member_shed_decision_passes_through(self):
        # A shard runtime answering -1 (its own shed decision) must
        # surface as -1 from the composite, not as a mangled global
        # index.
        dispatcher = self._dispatcher(shares=np.array([1.0, 0.0]))
        dispatcher.runtimes[0].route = lambda servers=None: -1
        dispatcher.observe_arrival(0.0)
        assert dispatcher.route() == -1

    def test_negative_share_rejected(self):
        dispatcher = self._dispatcher()
        with pytest.raises(ParameterError):
            dispatcher.set_shares(np.array([-0.1, 1.1]))


class TestLiveMaskedSolve:
    def test_masked_solve_excludes_dead_shard(self):
        g = BladeServerGroup.with_special_fraction(
            sizes=[2, 4, 6, 8, 10, 12], speeds=[1.5, 1.4, 1.3, 1.2, 1.1, 1.0],
            fraction=0.3,
        )
        cfg = ShardConfig(shards=3)
        plan = partition_group(g, cfg)
        live = np.array([True, False, True])
        res = solve_sharded(g, 10.0, plan=plan, live=live)
        loads = np.asarray(res.metadata["shard_loads"])
        assert loads[1] == 0.0
        assert loads[live].sum() == pytest.approx(10.0)
        assert res.metadata["live_shards"] == [True, False, True]
        # Dead shard's servers carry exactly zero.
        members = plan.shards[1].members
        assert all(res.generic_rates[i] == 0.0 for i in members)

    def test_masked_solve_infeasible_when_survivors_cannot_carry(self):
        from repro.core.exceptions import InfeasibleError

        g = BladeServerGroup.with_special_fraction(
            sizes=[2, 4, 6, 8, 10, 12], speeds=[1.5, 1.4, 1.3, 1.2, 1.1, 1.0],
            fraction=0.3,
        )
        cfg = ShardConfig(shards=3)
        plan = partition_group(g, cfg)
        # Only the smallest shard survives; the full-fleet rate cannot fit.
        live = np.array([True, False, False])
        lam = 0.9 * plan.group.max_generic_rate
        with pytest.raises(InfeasibleError):
            solve_sharded(g, lam, plan=plan, live=live)

    def test_all_dead_mask_rejected(self):
        from repro.core.exceptions import InfeasibleError

        g = BladeServerGroup.with_special_fraction(
            sizes=[2, 4], speeds=[1.2, 1.0], fraction=0.3
        )
        plan = partition_group(g, ShardConfig(shards=2))
        with pytest.raises(InfeasibleError):
            solve_sharded(g, 1.0, plan=plan, live=np.array([False, False]))

    def test_live_capacity_matches_mask(self):
        g = BladeServerGroup.with_special_fraction(
            sizes=[2, 4, 6], speeds=[1.2, 1.1, 1.0], fraction=0.3
        )
        plan = partition_group(g, ShardConfig(shards=3))
        full = plan.live_capacity()
        assert full == pytest.approx(g.max_generic_rate)
        mask = np.array([True, False, True])
        masked = plan.live_capacity(mask)
        assert masked == pytest.approx(
            plan.shards[0].capacity + plan.shards[2].capacity
        )
        with pytest.raises(ParameterError):
            plan.live_capacity(np.array([True, False]))
