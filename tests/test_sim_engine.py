"""Tests for the simulation engine and the replication runner.

Fast statistical checks against exact M/M/m theory use short horizons
and generous tolerances; the tight validation against the paper's
optimum lives in the integration tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import ParameterError
from repro.core.mmm import MMmQueue
from repro.core.server import BladeServer, BladeServerGroup
from repro.sim.engine import GroupSimulation, SimulationConfig, simulate_group
from repro.sim.runner import run_replications


def single_server_group(m=2, speed=1.0, special=0.0, rbar=1.0):
    return BladeServerGroup.from_arrays([m], [speed], [special], rbar=rbar)


class TestConfigValidation:
    def test_bad_rate(self):
        with pytest.raises(ParameterError):
            SimulationConfig(total_generic_rate=0.0, fractions=(1.0,))

    def test_bad_warmup(self):
        with pytest.raises(ParameterError):
            SimulationConfig(
                total_generic_rate=1.0,
                fractions=(1.0,),
                horizon=10.0,
                warmup=10.0,
            )

    def test_fraction_length_checked_at_engine(self):
        group = single_server_group()
        config = SimulationConfig(total_generic_rate=1.0, fractions=(0.5, 0.5))
        with pytest.raises(ParameterError):
            GroupSimulation(group, config)


class TestAgainstTheory:
    def test_mm1_response_time(self):
        # M/M/1 at rho = 0.5: T = 2.0.
        group = single_server_group(m=1)
        res = simulate_group(
            group, 0.5, [1.0], horizon=30_000, warmup=3_000, seed=11
        )
        theory = MMmQueue(1, 1.0, 0.5).response_time
        # M/M/1 response times are heavily autocorrelated; 5% covers the
        # sampling noise of a 30k-horizon single run.
        assert res.generic_response_time == pytest.approx(theory, rel=0.05)

    def test_mmm_response_time(self):
        group = single_server_group(m=4)
        lam = 3.0  # rho = 0.75
        res = simulate_group(
            group, lam, [1.0], horizon=20_000, warmup=2_000, seed=5
        )
        theory = MMmQueue(4, 1.0, lam).response_time
        assert res.generic_response_time == pytest.approx(theory, rel=0.03)

    def test_utilization_measured(self):
        group = single_server_group(m=2)
        res = simulate_group(
            group, 1.2, [1.0], horizon=20_000, warmup=2_000, seed=3
        )
        assert res.utilizations[0] == pytest.approx(0.6, abs=0.02)

    def test_merged_streams_fcfs(self):
        # Generic + special at FCFS behave as one M/M/m stream.
        group = single_server_group(m=3, special=1.0)
        res = simulate_group(
            group, 1.0, [1.0], "fcfs", horizon=20_000, warmup=2_000, seed=9
        )
        theory = MMmQueue(3, 1.0, 2.0).response_time
        assert res.generic_response_time == pytest.approx(theory, rel=0.04)
        assert res.special_response_time == pytest.approx(theory, rel=0.04)

    def test_priority_ordering_of_class_waits(self):
        group = single_server_group(m=2, special=0.8)
        res = simulate_group(
            group, 0.8, [1.0], "priority", horizon=20_000, warmup=2_000, seed=13
        )
        assert res.special_waiting_time < res.generic_waiting_time

    def test_priority_vs_fcfs_generic_response(self):
        group = single_server_group(m=2, special=0.8)
        kw = dict(horizon=20_000, warmup=2_000, seed=17)
        r_f = simulate_group(group, 0.8, [1.0], "fcfs", **kw)
        r_p = simulate_group(group, 0.8, [1.0], "priority", **kw)
        assert r_p.generic_response_time > r_f.generic_response_time


class TestMechanics:
    def test_reproducible_given_seed(self):
        group = single_server_group(m=2, special=0.5)
        a = simulate_group(group, 1.0, [1.0], horizon=2_000, warmup=100, seed=1)
        b = simulate_group(group, 1.0, [1.0], horizon=2_000, warmup=100, seed=1)
        assert a.generic_response_time == b.generic_response_time
        assert a.generic_completed == b.generic_completed

    def test_different_seeds_differ(self):
        group = single_server_group(m=2, special=0.5)
        a = simulate_group(group, 1.0, [1.0], horizon=2_000, warmup=100, seed=1)
        b = simulate_group(group, 1.0, [1.0], horizon=2_000, warmup=100, seed=2)
        assert a.generic_response_time != b.generic_response_time

    def test_run_reads_no_group_vectors_per_event(self, monkeypatch):
        """Per-server constants are bound once per run: the number of
        ``BladeServerGroup.speeds`` reads (each builds an n-element
        array) must not grow with the horizon."""
        group = BladeServerGroup(
            [
                BladeServer(size=1 + (i % 16), speed=0.6 + 0.01 * (i % 120))
                for i in range(500)
            ],
            rbar=1.0,
        )
        fractions = group.spare_capacities / group.spare_capacities.sum()
        rate = 0.6 * group.max_generic_rate
        original = BladeServerGroup.speeds
        calls = [0]

        def counted(self):
            calls[0] += 1
            return original.fget(self)

        monkeypatch.setattr(BladeServerGroup, "speeds", property(counted))
        counts = []
        for horizon in (1.0, 3.0):
            calls[0] = 0
            res = simulate_group(
                group, rate, fractions, horizon=horizon, warmup=0.0, seed=3
            )
            assert res.generic_completed > 100
            counts.append(calls[0])
        assert counts[0] == counts[1]

    def test_routing_respects_fractions(self):
        group = BladeServerGroup.from_arrays(
            [4, 4], [1.0, 1.0], [0.0, 0.0]
        )
        res = simulate_group(
            group, 2.0, [0.25, 0.75], horizon=20_000, warmup=1_000, seed=2
        )
        counts = res.generic_completed_per_server
        frac = counts / counts.sum()
        assert frac[0] == pytest.approx(0.25, abs=0.02)

    def test_zero_fraction_server_untouched(self):
        group = BladeServerGroup.from_arrays([2, 2], [1.0, 1.0])
        res = simulate_group(
            group, 1.0, [1.0, 0.0], horizon=5_000, warmup=500, seed=4
        )
        assert res.generic_completed_per_server[1] == 0
        assert res.utilizations[1] == 0.0

    def test_no_specials_special_stats_nan(self):
        group = single_server_group(m=2, special=0.0)
        res = simulate_group(group, 1.0, [1.0], horizon=3_000, warmup=300, seed=6)
        assert res.special_completed == 0
        assert np.isnan(res.special_response_time)

    def test_completed_counts_positive(self):
        group = single_server_group(m=2, special=0.5)
        res = simulate_group(group, 1.0, [1.0], horizon=5_000, warmup=500, seed=8)
        assert res.generic_completed > 1000
        assert res.special_completed > 500


class TestReplications:
    def test_ci_covers_theory(self):
        group = single_server_group(m=2)
        rep = run_replications(
            group,
            1.0,
            [1.0],
            replications=4,
            horizon=10_000,
            warmup=1_000,
            seed=0,
        )
        theory = MMmQueue(2, 1.0, 1.0).response_time
        assert rep.k == 4
        # Generous: CI plus 2% slack must cover the exact value.
        ci = rep.generic_response_time
        slack = 0.02 * theory
        assert ci.low - slack <= theory <= ci.high + slack

    def test_single_replication_infinite_ci(self):
        group = single_server_group(m=1)
        rep = run_replications(
            group, 0.3, [1.0], replications=1, horizon=3_000, warmup=300
        )
        assert np.isinf(rep.generic_response_time.half_width)

    def test_invalid_replications(self):
        group = single_server_group()
        with pytest.raises(ParameterError):
            run_replications(group, 0.5, [1.0], replications=0)
