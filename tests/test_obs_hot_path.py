"""The observed per-task path: O(1) metric lookups, loud NaNs, no orphans.

Hot paths hold :class:`~repro.obs.MetricHandle` children instead of
resolving a family by name and labels on every record.  These tests
count the lookups a closed-loop run makes (they must not grow with the
number of routed tasks), check that a kept child still reports into the
registry after ``reset()`` and ``restore_snapshot()``, and that NaN is
refused by counters and histograms on every path.
"""

from __future__ import annotations

import math

import pytest

from repro.obs import (
    Histogram,
    MetricFamily,
    MetricHandle,
    MetricsRegistry,
    ObsConfig,
    ObsError,
    configure,
    get_obs,
    reset_obs,
)
from repro.obs.registry import Counter
from repro.runtime.admission import AdmissionConfig
from repro.runtime.loop import RuntimeConfig, run_closed_loop
from repro.runtime.policies import RoutingConfig
from repro.sim.arrivals import ClientWorkload, RetryPolicy
from repro.workloads import example_group
from repro.workloads.traces import RateTrace


@pytest.fixture(autouse=True)
def _isolated_obs():
    reset_obs()
    yield
    reset_obs()


def _run(horizon: float, obs: ObsConfig = ObsConfig(enabled=True)):
    """Obs-on closed loop: ``jiq`` routing behind two-class admission."""
    group = example_group()
    config = RuntimeConfig(
        routing=RoutingConfig(policy="jiq"),
        admission=AdmissionConfig(
            classes=2, target_delay=4.0, interval=15.0, sojourn_tc=20.0
        ),
        obs=obs,
    )
    return run_closed_loop(
        group,
        RateTrace.constant(0.9 * group.max_generic_rate),
        config,
        horizon=horizon,
        seed=3,
        workload=ClientWorkload(
            class_shares=(0.4, 0.6),
            retry=RetryPolicy(budget=1, timeout=10.0, base_backoff=4.0),
        ),
    )


def _routes(registry) -> dict[str, float]:
    family = registry.get("repro_routes_total")
    return {labels["outcome"]: child.value for labels, child in family.items()}


class TestLookupsPerRun:
    def test_lookup_count_does_not_grow_with_routed_tasks(self, monkeypatch):
        calls = {"family": 0, "labels": 0}
        get_or_create = MetricsRegistry._get_or_create
        labels = MetricFamily.labels

        def counted_get_or_create(self, *args, **kwargs):
            calls["family"] += 1
            return get_or_create(self, *args, **kwargs)

        def counted_labels(self, **kwargs):
            calls["labels"] += 1
            return labels(self, **kwargs)

        monkeypatch.setattr(MetricsRegistry, "_get_or_create", counted_get_or_create)
        monkeypatch.setattr(MetricFamily, "labels", counted_labels)
        seen = []
        for horizon in (30.0, 60.0):
            calls.update(family=0, labels=0)
            result = _run(horizon)
            seen.append((dict(calls), result.metrics.counters.routed))
            reset_obs()
        (short, routed_short), (long, routed_long) = seen
        assert routed_long > 1.5 * routed_short
        assert short == long

    def test_reset_between_runs_keeps_route_counts(self):
        # A run whose config leaves obs off records into the global
        # context, so both runs share one registry and the reset sits
        # between them.
        o = configure(ObsConfig(enabled=True))
        _run(20.0, obs=ObsConfig())
        o.registry.reset()
        second = _run(30.0, obs=ObsConfig())
        assert get_obs() is o
        counters = second.metrics.counters
        assert _routes(o.registry) == {
            "routed": counters.routed,
            "shed": counters.shed,
        }
        assert counters.shed > 0
        fallbacks = o.registry.get("repro_jiq_fallbacks_total").value
        assert fallbacks == second.runtime._router.fallbacks > 0


class TestMetricHandle:
    def test_child_is_resolved_once(self):
        reg = MetricsRegistry()
        handle = MetricHandle("counter", "hits_total", "Hits", ("outcome",))
        child = handle.child(reg, "ok")
        assert handle.child(reg, "ok") is child
        child.inc(2)
        assert reg.get("hits_total").values_by_label() == {("ok",): 2.0}

    def test_reset_rebinds_instead_of_orphaning(self):
        reg = MetricsRegistry()
        handle = MetricHandle("counter", "hits_total", labels=("outcome",))
        handle.child(reg, "ok").inc()
        reg.reset()
        handle.child(reg, "ok").inc(3)
        assert [f["name"] for f in reg.collect()] == ["hits_total"]
        assert reg.get("hits_total").values_by_label() == {("ok",): 3.0}

    def test_restore_snapshot_writes_into_kept_children(self):
        source = MetricsRegistry()
        source.counter("hits_total", labels=("outcome",)).labels(outcome="ok").inc(5)
        source.histogram("lat_seconds", edges=(1.0, 2.0)).observe(1.5)
        reg = MetricsRegistry()
        hits = MetricHandle("counter", "hits_total", labels=("outcome",))
        lat = MetricHandle("histogram", "lat_seconds", edges=(1.0, 2.0))
        hits.child(reg, "ok").inc()
        lat.child(reg).observe(0.5)
        reg.restore_snapshot(source.collect())
        hits.child(reg, "ok").inc()
        lat.child(reg).observe(1.5)
        assert reg.get("hits_total").values_by_label() == {("ok",): 6.0}
        assert reg.get("lat_seconds").count == 2
        assert reg.get("lat_seconds").sum == 3.0

    def test_new_registry_rebinds(self):
        handle = MetricHandle("gauge", "level")
        first, second = MetricsRegistry(), MetricsRegistry()
        handle.child(first).set(1.0)
        handle.child(second).set(2.0)
        assert first.get("level").value == 1.0
        assert second.get("level").value == 2.0

    def test_unknown_kind_raises(self):
        with pytest.raises(ObsError):
            MetricHandle("summary", "x")


class TestNaNIsRefused:
    @pytest.mark.parametrize("amount", [math.nan, -1.0])
    def test_counter_refuses(self, amount):
        reg = MetricsRegistry()
        child = reg.counter("c_total", labels=("k",)).labels(k="a")
        child.inc(2.0)
        handle = MetricHandle("counter", "c_total", labels=("k",))
        assert handle.child(reg, "a") is child
        with pytest.raises(ObsError):
            child.inc(amount)
        with pytest.raises(ObsError):
            reg.counter("solo_total").inc(amount)
        assert child.value == 2.0
        assert reg.get("solo_total").value == 0.0

    def test_histogram_refuses_nan(self):
        hist = Histogram(edges=(1.0, 2.0))
        hist.observe(1.5)
        with pytest.raises(ObsError):
            hist.observe(math.nan)
        reg = MetricsRegistry()
        with pytest.raises(ObsError):
            reg.histogram("h_seconds").observe(math.nan)
        with pytest.raises(ObsError):
            MetricHandle("histogram", "h_seconds").child(reg).observe(math.nan)
        assert hist.count == 1 and hist.sum == 1.5
        assert hist.bucket_counts == (0, 1, 0)
        assert reg.get("h_seconds").count == 0

    def test_infinite_and_zero_amounts_still_count(self):
        counter = Counter()
        counter.inc(0.0)
        counter.inc(math.inf)
        assert counter.value == math.inf
