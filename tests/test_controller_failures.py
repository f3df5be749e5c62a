"""Failure-path tests for the re-solve controller and the runtime loop.

The happy-path controller behaviour (quantization, warm starts,
hysteresis) is covered in ``test_runtime.py``; this module stresses the
paths a fault can reach: LRU eviction order under mixed hit/miss
bursts, cache keying across health-fingerprint changes mid-burst, and
solver exceptions surfacing as structured supervised outcomes instead
of escaping the runtime's ``_resolve``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import ClusterDownError, ConvergenceError
from repro.core.server import BladeServerGroup
from repro.faults import FaultPlan, FaultSchedule, FaultSpec
from repro.faults.schedule import PRIMARY_ONLY_METHODS
from repro.runtime import (
    HealthTracker,
    LoadDistributionRuntime,
    ResolveController,
    RoutingConfig,
    RuntimeConfig,
)


@pytest.fixture
def group():
    return BladeServerGroup.from_arrays(
        sizes=[2, 3, 4],
        speeds=[1.0, 1.2, 1.5],
        special_rates=[0.3, 0.4, 0.5],
        rbar=1.0,
    )


def _controller(group, **kwargs):
    health = HealthTracker(group, utilization_cap=0.92)
    return ResolveController(health, method="kkt", **kwargs), health


class TestCacheEviction:
    def test_lru_evicts_least_recently_used_not_oldest(self, group):
        ctl, _ = _controller(group, cache_size=2)
        r1, r2, r3 = 3.0, 4.0, 5.0
        assert not ctl.resolve(r1).cache_hit
        assert not ctl.resolve(r2).cache_hit
        # Touch r1 so r2 becomes the least recently used entry...
        assert ctl.resolve(r1).cache_hit
        # ...then overflow the cache with r3.
        assert not ctl.resolve(r3).cache_hit
        assert ctl.cache_len == 2
        # r1 survived (recently used), r2 was evicted (LRU order, not
        # insertion order).
        assert ctl.resolve(r1).cache_hit
        assert not ctl.resolve(r2).cache_hit

    def test_cache_len_never_exceeds_capacity(self, group):
        ctl, _ = _controller(group, cache_size=3)
        for i in range(10):
            ctl.resolve(2.0 + 0.5 * i)
        assert ctl.cache_len == 3


class TestCacheAcrossFingerprintChanges:
    def test_fingerprint_change_mid_burst_is_a_miss_then_recovers(self, group):
        ctl, health = _controller(group, cache_size=8)
        rate = 3.0
        first = ctl.resolve(rate)
        assert not first.cache_hit
        assert ctl.resolve(rate).cache_hit

        # Server 1 dies mid-burst: same offered rate, different active
        # configuration -- must re-solve, not serve the 3-server split.
        health.mark_down(1)
        after_down = ctl.resolve(rate)
        assert not after_down.cache_hit
        assert after_down.weights[1] == 0.0
        assert ctl.resolve(rate).cache_hit  # degraded split now cached

        # Recovery restores the original fingerprint: the pre-failure
        # entry is still in the cache and serves immediately.
        health.mark_up(1)
        restored = ctl.resolve(rate)
        assert restored.cache_hit
        assert np.allclose(restored.weights, first.weights)

    def test_backend_override_is_part_of_the_key(self, group):
        ctl, _ = _controller(group, cache_size=8)
        rate = 3.0
        assert not ctl.resolve(rate).cache_hit
        via_bisection = ctl.resolve(rate, method="bisection")
        assert not via_bisection.cache_hit  # different backend, new key
        assert ctl.resolve(rate, method="bisection").cache_hit
        assert ctl.resolve(rate).cache_hit  # primary entry untouched

    def test_cluster_down_propagates_from_controller(self, group):
        ctl, health = _controller(group)
        for i in range(group.n):
            health.mark_down(i)
        with pytest.raises(ClusterDownError):
            ctl.resolve(3.0)


class TestSolverExceptionsAreStructuredOutcomes:
    """A solver fault must never escape the runtime's ``_resolve``."""

    def _runtime(self, group, schedule, **config_kwargs):
        plan = FaultPlan(schedule)
        config = RuntimeConfig(routing=RoutingConfig(policy="alias"), **config_kwargs)
        return LoadDistributionRuntime(group, 3.0, config, fault_plan=plan)

    def test_injected_fault_becomes_fallback_outcome(self, group):
        runtime = self._runtime(
            group,
            FaultSchedule(
                [
                    FaultSpec(
                        "solver-error",
                        0.0,
                        1e6,
                        {"methods": PRIMARY_ONLY_METHODS},
                    )
                ],
                seed=0,
            ),
        )
        # The *initial* resolve already ran under the fault and did not
        # raise; its provenance is recorded in the resolve log.
        ev = runtime.resolve_log[0]
        assert ev.source == "fallback:bisection"
        assert ev.depth == 1
        assert ev.adopted
        assert runtime.metrics.counters.resolve_failures > 0
        assert runtime.current_weights.sum() == pytest.approx(1.0)

    def test_total_solver_outage_served_by_proportional(self, group):
        runtime = self._runtime(
            group,
            FaultSchedule([FaultSpec("solver-error", 0.0, 1e6)], seed=0),
        )
        ev = runtime.resolve_log[0]
        assert ev.source == "fallback:proportional"
        assert runtime.metrics.incidents.counts["fallback"] >= 1
        # Forced re-solves keep being absorbed, never raised.
        runtime._resolve(10.0, 4.0, reason="drift", force=True)
        assert runtime.resolve_log[-1].source == "fallback:proportional"

    def test_unsupervised_runtime_lets_faults_escape(self, group):
        # supervise=False restores the trust-everything behaviour; the
        # chaos suite relies on the supervised default instead.
        with pytest.raises(ConvergenceError):
            self._runtime(
                group,
                FaultSchedule([FaultSpec("solver-error", 0.0, 1e6)], seed=0),
                supervise=False,
            )

    def test_healthy_runtime_reports_primary_source(self, group):
        runtime = self._runtime(group, FaultSchedule([], seed=0))
        ev = runtime.resolve_log[0]
        assert ev.source == "primary" and ev.depth == 0
        assert runtime.metrics.counters.resolve_failures == 0
