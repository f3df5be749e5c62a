"""Golden sample paths: exact simulated outcomes of two fixed-seed runs.

Every other engine test compares a run with itself or with theory, so a
hot-path refactor that reorders events (or changes a service-time
draw by one ulp) would pass them all.  These two short closed loops pin
the exact outcome instead: the mean generic response time to the last
bit, the completion count, the per-class shed counts and the routed
counts per server.  If one of them fails, the change altered the
simulated sample path; that needs a deliberate re-baseline, never a
tolerance.
"""

from __future__ import annotations

from repro.core.server import BladeServer, BladeServerGroup
from repro.runtime.admission import AdmissionConfig
from repro.runtime.loop import RuntimeConfig, run_closed_loop
from repro.runtime.policies import RoutingConfig
from repro.shard import ShardConfig, run_sharded_closed_loop
from repro.sim.arrivals import ClientWorkload, RetryPolicy
from repro.workloads import example_group
from repro.workloads.traces import RateTrace


def fleet_group(n: int) -> BladeServerGroup:
    """The heterogeneous fleet of ``benchmarks/bench_sharded.py``."""
    return BladeServerGroup(
        [
            BladeServer(size=1 + (i % 16), speed=0.6 + 0.01 * (i % 120))
            for i in range(n)
        ],
        rbar=1.0,
    )


def paper_pod_admission():
    """Table 1 group at 0.8 lambda'_max, pod routing, 3-class admission."""
    group = example_group()
    workload = ClientWorkload(
        class_shares=(0.2, 0.3, 0.5),
        retry=RetryPolicy(
            budget=2,
            timeout=10.0,
            base_backoff=4.0,
            backoff_factor=2.0,
            max_backoff=60.0,
            jitter=0.5,
        ),
    )
    config = RuntimeConfig(
        routing=RoutingConfig(policy="pod"),
        admission=AdmissionConfig(
            classes=3, target_delay=4.0, interval=15.0, sojourn_tc=20.0
        ),
    )
    result = run_closed_loop(
        group,
        RateTrace.constant(0.8 * group.max_generic_rate),
        config,
        horizon=120.0,
        seed=11,
        workload=workload,
    )
    routed = result.runtime.metrics.routed.counts
    return result.sim, [int(c) for c in routed]


def fleet_two_shards():
    """``fleet_group(200)`` in 2 shards, static alias routing."""
    group = fleet_group(200)
    report = run_sharded_closed_loop(
        group,
        RateTrace.constant(0.6 * group.max_generic_rate),
        RuntimeConfig(routing=RoutingConfig(policy="alias")),
        ShardConfig(shards=2),
        horizon=1.0,
        seed=5,
    )
    routed = [0] * group.n
    for shard, runtime in zip(report.plan.shards, report.runtimes):
        for i, c in zip(shard.members, runtime.metrics.routed.counts):
            routed[int(i)] = int(c)
    return report.sim, routed


def outcome(sim, routed):
    return {
        "generic_response_time": sim.generic_response_time.hex(),
        "generic_completed": sim.generic_completed,
        "shed_by_class": tuple(sim.shed_by_class),
        "routed_total": sum(routed),
        "routed_weighted": sum(i * c for i, c in enumerate(routed)),
        "routed_head": tuple(routed[:7]),
    }


def test_paper_group_pod_admission_sample_path():
    assert outcome(*paper_pod_admission()) == PAPER_GOLDEN


def test_fleet_two_shards_sample_path():
    assert outcome(*fleet_two_shards()) == FLEET_GOLDEN


#: Recorded with the dataclass-event engine that read per-server speeds
#: from the group on every service start; the tuple heap with bound
#: per-server constants reproduces them exactly.
PAPER_GOLDEN = {
    "generic_response_time": "0x1.04211dc1c3a45p+0",
    "generic_completed": 4457,
    "shed_by_class": (0, 18, 546),
    "routed_total": 4494,
    "routed_weighted": 15677,
    "routed_head": (262, 459, 699, 744, 807, 778, 745),
}
FLEET_GOLDEN = {
    "generic_response_time": "0x1.1f3703466f69fp-2",
    "generic_completed": 498,
    "shed_by_class": (),
    "routed_total": 1112,
    "routed_weighted": 118665,
    "routed_head": (0, 0, 0, 0, 0, 0, 0),
}
