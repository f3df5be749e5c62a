"""Metastable-failure acceptance suite for the overload-survival layer.

The headline experiment runs the same seeded 2x-capacity burst with a
retry-storm window through two client/dispatcher stacks:

* **metastable arm** — no admission control, deep retry budgets, short
  slashed backoffs.  The burst pushes sojourns past the client timeout,
  timed-out clients duplicate their work, and the system stays above
  capacity long after the burst ends: tasks arriving post-burst never
  complete inside the horizon (the tail mean is NaN or far above the
  analytic base-rate response time).
* **cured arm** — priority admission control (token bucket + CoDel
  AQM + brownout) plus budgeted, long-backoff clients.  The post-burst
  tail mean recovers to within the 99% replication CI of the paper's
  analytic ``T'`` at the base rate, and priority-0 work is never shed.

Both arms run the same ``>= 10`` seeds; the suite also covers the
overload fault kinds, trace compilation, runtime/sharded integration,
and the chaos-artifact dump for the new report type.
"""

from __future__ import annotations

import json
import math
import os

import pytest

from repro.core.exceptions import ParameterError
from repro.core.server import BladeServerGroup
from repro.faults import (
    OVERLOAD_FAULT_KINDS,
    FaultPlan,
    FaultSchedule,
    FaultSpec,
    compile_overload_trace,
    dump_chaos_artifacts,
    random_fault_schedule,
    run_overload_chaos,
)
from repro.runtime.admission import AdmissionConfig
from repro.runtime.loop import RuntimeConfig, run_closed_loop
from repro.runtime.policies import RoutingConfig
from repro.shard import ShardConfig, run_sharded_closed_loop
from repro.sim.arrivals import ClientWorkload, Offer, RetryPolicy
from repro.workloads.traces import RateTrace

SEEDS = range(10)
HORIZON = 1_500.0
BURST_AT = 200.0
BURST_DURATION = 150.0
RATE_FRACTION = 0.72  # base utilization ~0.72; the 2x burst exceeds capacity
TIMEOUT = 10.0  # several multiples of the base-rate response-time tail
CLASS_SHARES = (0.2, 0.3, 0.5)


@pytest.fixture(scope="module")
def group():
    return BladeServerGroup.from_arrays(
        sizes=[2, 3], speeds=[1.0, 1.5], special_rates=[0.2, 0.3], rbar=1.0
    )


def _rate(group) -> float:
    return RATE_FRACTION * group.max_generic_rate


def _cured_stack():
    workload = ClientWorkload(
        class_shares=CLASS_SHARES,
        retry=RetryPolicy(
            budget=2,
            timeout=TIMEOUT,
            base_backoff=4.0,
            backoff_factor=2.0,
            max_backoff=60.0,
            jitter=0.5,
        ),
    )
    config = RuntimeConfig(
        routing=RoutingConfig(policy="alias"),
        admission=AdmissionConfig(
            classes=3, target_delay=4.0, interval=15.0, sojourn_tc=20.0
        ),
    )
    return workload, config


def _metastable_stack():
    workload = ClientWorkload(
        class_shares=CLASS_SHARES,
        retry=RetryPolicy(
            budget=6,
            timeout=TIMEOUT,
            base_backoff=0.5,
            backoff_factor=1.5,
            max_backoff=4.0,
            jitter=0.5,
        ),
    )
    return workload, RuntimeConfig(routing=RoutingConfig(policy="alias"))


def _run_arm(group, stack):
    workload, config = stack
    return run_overload_chaos(
        group,
        _rate(group),
        seeds=SEEDS,
        horizon=HORIZON,
        workload=workload,
        config=config,
        burst_at=BURST_AT,
        burst_duration=BURST_DURATION,
        retry_storm=True,
    )


@pytest.fixture(scope="module")
def cured_report(group):
    return _run_arm(group, _cured_stack())


@pytest.fixture(scope="module")
def metastable_report(group):
    return _run_arm(group, _metastable_stack())


# ---------------------------------------------------------------------------
# The headline demonstration
# ---------------------------------------------------------------------------


class TestMetastability:
    def test_no_admission_arm_never_recovers(self, metastable_report):
        rep = metastable_report
        assert rep.n_runs == len(list(SEEDS))
        assert rep.all_completed  # the runs survive; the *service* does not
        assert not rep.recovered(0.99)
        for record in rep.records:
            # Post-burst arrivals either never complete (NaN tail) or
            # see response times far beyond the analytic base-rate T'.
            assert (
                not math.isfinite(record.tail_mean)
                or record.tail_mean > 3.0 * rep.analytic_t_prime
            )
        # The storm signature: the retry volume dwarfs the fresh load.
        assert rep.total_timeouts > 10_000

    def test_admission_arm_recovers_to_analytic_t_prime(self, cured_report):
        rep = cured_report
        assert rep.all_completed and not rep.failed_seeds
        lo, hi = rep.tail_confidence_interval(0.99)
        assert lo <= rep.analytic_t_prime <= hi
        assert rep.recovered(0.99)

    def test_admission_arm_preserves_priority_zero_goodput(self, cured_report):
        # Class 0 is never shed — not during the burst, not in brownout.
        assert cured_report.max_class0_shed_fraction < 0.01
        for record in cured_report.records:
            assert record.shed_by_class[0] == 0

    def test_admission_arm_actually_brownouts_and_returns(self, cured_report):
        # The cure is not "nothing happened": every seed sheds low
        # priority work during the burst and logs brownout transitions.
        for record in cured_report.records:
            assert record.shed_fraction_observed > 0.0
        # Brownout transitions appear across the suite, and every
        # escalation is matched by a return (even transition counts).
        totals = [
            sum(r.brownout_transitions.values()) for r in cured_report.records
        ]
        assert sum(totals) >= 2
        for record in cured_report.records:
            counts = record.brownout_transitions
            assert counts.get("brownout", 0) == counts.get("normal", 0)

    def test_storm_is_orders_of_magnitude_larger_without_admission(
        self, cured_report, metastable_report
    ):
        assert metastable_report.total_retried > 5 * cured_report.total_retried

    def test_report_serializes_and_renders(self, cured_report):
        data = cured_report.to_dict()
        json.dumps(data)  # artifact-safe
        assert data["n_runs"] == cured_report.n_runs
        assert "analytic T'" in cured_report.render()

    def test_evidence_trail_archives_both_arms(
        self, cured_report, metastable_report
    ):
        # The CI overload leg sets CHAOS_LOG_DIR and uploads the dump:
        # per-seed incident logs plus the per-arm report (admission
        # ledgers, brownout transitions, tail means) for both arms.
        log_dir = os.environ.get("CHAOS_LOG_DIR")
        if log_dir:
            for arm, report in (
                ("overload-cured", cured_report),
                ("overload-metastable", metastable_report),
            ):
                dump_chaos_artifacts(report, os.path.join(log_dir, arm))
        assert cured_report.n_runs == metastable_report.n_runs

    def test_artifact_dump_accepts_overload_reports(self, tmp_path, cured_report):
        dump_chaos_artifacts(cured_report, str(tmp_path))
        names = os.listdir(tmp_path)
        assert "chaos_report.json" in names
        assert any(n.startswith("incidents_seed_") for n in names)
        report = json.load(
            open(tmp_path / "chaos_report.json", encoding="utf-8")
        )
        assert report["n_runs"] == cured_report.n_runs


# ---------------------------------------------------------------------------
# Overload fault kinds and trace compilation
# ---------------------------------------------------------------------------


class TestOverloadFaults:
    def test_kind_registry(self):
        assert OVERLOAD_FAULT_KINDS == {"burst-overload", "retry-storm"}

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            FaultSpec("burst-overload", 10.0, 20.0, {"factor": 0.0})
        with pytest.raises(ParameterError):
            FaultSpec("retry-storm", 10.0, 20.0, {"backoff_scale": -1.0})
        spec = FaultSpec("burst-overload", 10.0, 20.0, {"factor": 2.0})
        assert spec.kind in OVERLOAD_FAULT_KINDS

    def test_compile_overload_trace(self):
        schedule = FaultSchedule(
            [
                FaultSpec("burst-overload", 10.0, 20.0, {"factor": 2.0}),
                FaultSpec("retry-storm", 12.0, 18.0, {"backoff_scale": 0.1}),
            ],
            seed=0,
        )
        trace = compile_overload_trace(3.0, schedule)
        assert trace.rate_at(5.0) == 3.0
        assert trace.rate_at(15.0) == 6.0
        assert trace.rate_at(25.0) == 3.0

    def test_compile_without_bursts_is_constant(self):
        trace = compile_overload_trace(3.0, FaultSchedule([], seed=0))
        assert trace == RateTrace.constant(3.0)

    def test_random_schedule_draws_overload_kinds_last(self):
        schedule = random_fault_schedule(
            5, 2_000.0, seed=5, allow_overload=True
        )
        kinds = {s.kind for s in schedule.of_kinds(OVERLOAD_FAULT_KINDS)}
        assert "burst-overload" in kinds
        # Pinning: the non-overload prefix is unchanged by the flag.
        base = random_fault_schedule(5, 2_000.0, seed=5)
        overloaded = [
            s for s in schedule.specs if s.kind not in OVERLOAD_FAULT_KINDS
        ]
        assert tuple(overloaded) == tuple(base.specs)

    def test_fault_plan_exposes_overload_specs(self):
        schedule = FaultSchedule(
            [FaultSpec("burst-overload", 5.0, 9.0, {"factor": 1.5})], seed=1
        )
        plan = FaultPlan(schedule)
        assert [s.kind for s in plan.overload_specs] == ["burst-overload"]


# ---------------------------------------------------------------------------
# Runtime integration
# ---------------------------------------------------------------------------


class TestRuntimeIntegration:
    def test_admission_metrics_and_incidents(self, group):
        workload, config = _cured_stack()
        out = run_closed_loop(
            group,
            RateTrace.burst(
                _rate(group), at=100.0, factor=2.0, duration=100.0
            ),
            config,
            horizon=600.0,
            seed=1,
            workload=workload,
        )
        metrics = out.runtime.metrics
        admitted = sum(
            metrics.admission.admitted_by_class(c) for c in range(3)
        )
        assert admitted > 0
        assert metrics.admission.shed_by_class(2) > 0
        assert metrics.admission.shed_by_class(0) == 0
        assert metrics.admission.transitions  # brownout happened
        kinds = {i.kind for i in metrics.incidents.records}
        assert "brownout-transition" in kinds
        # The engine-side ledger and the runtime ledger agree.
        assert out.sim.offered_by_class is not None
        assert sum(out.sim.shed_by_class) == out.sim.generic_shed

    def test_retry_storm_window_scales_backoff(self, group):
        workload, config = _metastable_stack()
        schedule = FaultSchedule(
            [FaultSpec("retry-storm", 100.0, 200.0, {"backoff_scale": 0.05})],
            seed=0,
        )
        out = run_closed_loop(
            group,
            RateTrace.burst(_rate(group), at=100.0, factor=2.0, duration=100.0),
            config,
            horizon=500.0,
            seed=2,
            workload=workload,
            fault_plan=FaultPlan(schedule),
        )
        assert out.sim.generic_retried > 0

    def test_admission_off_is_legacy_behavior(self, group):
        # No workload, no admission: the result has no class ledgers and
        # the runtime never instantiates a controller.
        out = run_closed_loop(
            group,
            RateTrace.constant(_rate(group)),
            RuntimeConfig(),
            horizon=300.0,
            seed=0,
        )
        assert out.runtime._admission is None
        assert out.sim.offered_by_class == ()
        assert out.sim.generic_retried == 0


# ---------------------------------------------------------------------------
# Sharded integration
# ---------------------------------------------------------------------------


class TestShardedIntegration:
    @pytest.fixture(scope="class")
    def sharded_report(self):
        group = BladeServerGroup.from_arrays(
            sizes=[2, 3, 4],
            speeds=[1.0, 1.2, 1.5],
            special_rates=[0.2, 0.2, 0.3],
            rbar=1.0,
        )
        workload, config = _cured_stack()
        return run_sharded_closed_loop(
            group,
            RateTrace.burst(
                0.7 * group.max_generic_rate, at=100.0, factor=2.0, duration=80.0
            ),
            config,
            ShardConfig(shards=2),
            horizon=600.0,
            seed=3,
            workload=workload,
        )

    def test_fleet_budget_splits_by_shard(self, sharded_report):
        # Every shard runs its own controller seeded from its local
        # capacity share; both see work and both ledger decisions.
        for runtime in sharded_report.dispatcher.runtimes:
            assert runtime._admission is not None
            assert sum(runtime._admission.admitted) > 0
        # Class 0 is protected fleet-wide.
        assert sharded_report.sim.shed_by_class[0] == 0

    def test_dead_shard_offers_are_readmitted(self, sharded_report):
        dispatcher = sharded_report.dispatcher
        dispatcher._live[0] = False
        dispatcher._pending = 0
        before = dispatcher.readmitted
        dest = dispatcher.route_offer(Offer(0, 0))
        assert dispatcher.readmitted == before + 1
        # The re-draw lands on the surviving shard's members.
        assert dest in set(int(i) for i in dispatcher._members[1])
        dispatcher._live[0] = True

    def test_without_admission_dead_shard_still_sheds(self):
        group = BladeServerGroup.from_arrays(
            sizes=[2, 2], speeds=[1.0, 1.0], special_rates=[0.2, 0.2], rbar=1.0
        )
        report = run_sharded_closed_loop(
            group,
            RateTrace.constant(0.5 * group.max_generic_rate),
            RuntimeConfig(routing=RoutingConfig(policy="alias")),
            ShardConfig(shards=2),
            horizon=200.0,
            seed=0,
            workload=ClientWorkload(class_shares=(1.0,)),
        )
        dispatcher = report.dispatcher
        dispatcher._live[0] = False
        dispatcher._pending = 0
        before = dispatcher.failover_shed
        assert dispatcher.route_offer(Offer(0, 0)) == -1
        assert dispatcher.failover_shed == before + 1
        assert dispatcher.readmitted == 0
