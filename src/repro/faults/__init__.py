"""Fault injection and resilience supervision for the online runtime.

The PR 2 control plane trusts every component; production does not get
that luxury.  This package supplies both sides of the hardening story:

=================  ==========================================================
module             role
=================  ==========================================================
``schedule``       declarative, seeded fault windows (``FaultSpec`` /
                   ``FaultSchedule``) + reproducible randomized draws
``injectors``      the schedule realized against runtime seams: solver
                   faults, estimator noise/bias/dropout, health-signal
                   delays/flaps/correlated outages (``FaultPlan``)
``supervisor``     the resilience layer around ``ResolveController``:
                   solver fallback chain, circuit breaker with pinned
                   last-known-good split, invariant watchdog, dark-
                   cluster shed-all path
``chaos``          the acceptance harness: many seeded randomized runs
                   through ``run_closed_loop``, audited for safety and
                   post-fault re-convergence
=================  ==========================================================

Typical chaos run::

    from repro.faults import run_chaos

    report = run_chaos(group, rate, seeds=range(20), horizon=3_000.0)
    assert report.all_completed and report.total_watchdog_violations == 0
    assert report.reconverged()
    print(report.render())

Targeted injection::

    from repro.faults import FaultPlan, FaultSchedule, FaultSpec
    from repro.runtime import RoutingConfig, RuntimeConfig, run_closed_loop

    schedule = FaultSchedule(
        [FaultSpec("solver-error", 500.0, 900.0,
                   {"methods": ("kkt", "newton", "closed-form")})],
        seed=7,
    )
    config = RuntimeConfig(routing=RoutingConfig(policy="alias"))
    out = run_closed_loop(group, trace, config,
                          horizon=3_000.0, fault_plan=FaultPlan(schedule))
    print(out.metrics.fallback_depth.by_source)
"""

from .chaos import (
    ChaosRunRecord,
    ChaosSuiteReport,
    OverloadRunRecord,
    OverloadSuiteReport,
    ShardChaosRunRecord,
    ShardChaosSuiteReport,
    compile_overload_trace,
    dump_chaos_artifacts,
    run_chaos,
    run_overload_chaos,
    run_sharded_chaos,
)
from .injectors import (
    FaultPlan,
    FaultyRateEstimator,
    SolverFaultInjector,
    health_control_events,
)
from .schedule import (
    ESTIMATOR_FAULT_KINDS,
    FAULT_KINDS,
    HEALTH_FAULT_KINDS,
    OVERLOAD_FAULT_KINDS,
    SHARD_FAULT_KINDS,
    SOLVER_FAULT_KINDS,
    FaultSchedule,
    FaultSpec,
    random_fault_schedule,
)
from .supervisor import (
    ResilienceSupervisor,
    SupervisedOutcome,
    SupervisorConfig,
    proportional_split,
)

__all__ = [
    "ESTIMATOR_FAULT_KINDS",
    "FAULT_KINDS",
    "HEALTH_FAULT_KINDS",
    "OVERLOAD_FAULT_KINDS",
    "SHARD_FAULT_KINDS",
    "SOLVER_FAULT_KINDS",
    "ChaosRunRecord",
    "ChaosSuiteReport",
    "FaultPlan",
    "FaultSchedule",
    "FaultSpec",
    "FaultyRateEstimator",
    "OverloadRunRecord",
    "OverloadSuiteReport",
    "ResilienceSupervisor",
    "ShardChaosRunRecord",
    "ShardChaosSuiteReport",
    "SolverFaultInjector",
    "SupervisedOutcome",
    "SupervisorConfig",
    "compile_overload_trace",
    "dump_chaos_artifacts",
    "health_control_events",
    "proportional_split",
    "random_fault_schedule",
    "run_chaos",
    "run_overload_chaos",
    "run_sharded_chaos",
]
