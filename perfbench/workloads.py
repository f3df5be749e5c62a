"""Benchmark workloads: inputs, one measured repetition, output checks.

Every closed-loop workload is a batch job: the discrete-event engine
generates its own arrivals in simulated time, so a repetition is one
run of fixed input size (rate x horizon) and its figure of merit is
work completed per wall-second.  ``solve-sweep`` times the paper's own
computation, the optimal split over a grid of generic rates.

All sizes, rates, shard counts and trace steps are named constants
below, so a later benchmark change can add a cell (for example the
50k-server fleet) deliberately.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.core.distributions import GroupResponseTimeDistribution
from repro.core.server import BladeServer, BladeServerGroup
from repro.obs import ObsConfig, reset_obs
from repro.recovery import RecoveryConfig
from repro.runtime.admission import AdmissionConfig
from repro.runtime.loop import RuntimeConfig, run_closed_loop
from repro.runtime.policies import RoutingConfig
from repro.shard import ShardConfig, run_sharded_closed_loop
from repro.sim.arrivals import ClientWorkload, RetryPolicy
from repro.sim.engine import GroupSimulation
from repro.sim.task import TaskClass
from repro.workloads import example_group
from repro.workloads.paper import EXAMPLE_TOTAL_RATE, TABLE1_T_PRIME, TABLE2_T_PRIME
from repro.workloads.traces import RateTrace

# -- paper7-admission ------------------------------------------------------------------

#: Constant generic rate, as a share of the Table 1 group's lambda'_max.
ADMISSION_RHO = 0.8
#: Simulated horizon of one repetition (~30k offers).
ADMISSION_HORIZON = 800.0
#: Priority-class shares of the client population.
ADMISSION_CLASS_SHARES = (0.2, 0.3, 0.5)

# -- fleet-2k-sharded ------------------------------------------------------------------

#: Servers in the sharded fleet (``fleet_group``).
FLEET_N = 2_000
#: Shard dispatchers the fleet is partitioned into.
FLEET_SHARDS = 8
#: Constant generic rate, as a share of the fleet's lambda'_max.
FLEET_RHO = 0.6
#: Simulated horizon of one repetition (~24k arrivals).
FLEET_HORIZON = 2.0

# -- paper7-ops ------------------------------------------------------------------------

#: Simulated horizon of one repetition (~51k routes).
OPS_HORIZON = 1600.0
#: Initial rate and piecewise-constant steps ``(time share, rate share)``,
#: both relative to the horizon and the group's lambda'_max.
OPS_INITIAL_RHO = 0.55
OPS_STEPS = ((0.2, 0.75), (0.4, 0.6), (0.6, 0.85), (0.8, 0.65))
#: One server failure: (server index, down at, up at), times as shares
#: of the horizon.
OPS_FAILURE = (3, 0.45, 0.55)

# -- solve-sweep -----------------------------------------------------------------------

#: Grid of lambda' as shares of lambda'_max; each point is jittered by
#: up to +-SWEEP_JITTER from the seed.
SWEEP_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))
SWEEP_JITTER = 0.005
#: Size of the heterogeneous group that takes the newton path.
SWEEP_LARGE_N = 100
SWEEP_DISCIPLINES = ("fcfs", "priority")

#: Percentile reported beside the mean response time.
RESPONSE_QUANTILE = 0.99


def fleet_group(n: int) -> BladeServerGroup:
    """Heterogeneous ``n``-server fleet without special preloads (the
    fleet of ``benchmarks/bench_sharded.py``)."""
    return BladeServerGroup(
        [
            BladeServer(size=1 + (i % 16), speed=0.6 + 0.01 * (i % 120))
            for i in range(n)
        ],
        rbar=1.0,
    )


def scaling_group(n: int) -> BladeServerGroup:
    """Heterogeneous ``n``-server group with a 30% special preload (the
    group of ``benchmarks/bench_solver_scaling.py``)."""
    return BladeServerGroup.with_special_fraction(
        sizes=[1 + (i % 16) for i in range(n)],
        speeds=[0.6 + 0.01 * (i % 120) for i in range(n)],
        fraction=0.3,
    )


class PhaseMark:
    """Timestamps of the engine run inside a closed-loop call.

    Both closed-loop drivers build every component first and then call
    :meth:`GroupSimulation.run` once; the first simulated event happens
    inside that call.  The mark wraps that one method for the whole
    benchmark process (one extra call per repetition, nothing per
    event) so set-up and simulation wall time can be told apart.
    """

    def __init__(self) -> None:
        self.start = self.end = 0.0
        original = GroupSimulation.run

        def run(sim):
            self.start = time.perf_counter()
            try:
                return original(sim)
            finally:
                self.end = time.perf_counter()

        GroupSimulation.run = run


@dataclass
class Rep:
    """Outcome of one repetition of a workload."""

    setup_s: float
    run_s: float
    wall_s: float
    #: Work units completed (routed tasks, or solves).
    work: int
    #: Operations offered to the system (offers, or solves).
    attempted: int
    #: Operations the checks found unaccounted for.
    failed: int
    admitted_fraction: float
    #: Generic response time in simulated time units: mean, the
    #: RESPONSE_QUANTILE percentile, and the samples behind them.
    response_mean: float
    response_p99: float
    response_samples: int
    #: Simulated statistics that must repeat exactly under the seed.
    fingerprint: tuple
    problems: list = field(default_factory=list)
    #: Bytes of write-ahead journal the repetition wrote.
    journal_bytes: int = 0


def _check(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


class ClosedLoop:
    """Shared ledger and statistics checks of the closed-loop workloads.

    Runs use no warm-up window, so the engine's counts cover the whole
    run and must balance exactly against the runtime's counters.
    """

    horizon: float

    def __init__(self, seed: int, scratch: str, mark: PhaseMark) -> None:
        self.seed = seed
        self.scratch = scratch
        self.mark = mark

    def rep(self, scale: float = 1.0) -> Rep:
        t0 = time.perf_counter()
        report, runtimes, extra = self.execute(self.horizon * scale)
        t1 = time.perf_counter()
        sim = report.sim
        problems: list[str] = []
        counters = [rt.metrics.counters for rt in runtimes]
        arrivals = sum(c.arrivals for c in counters)
        routed = sum(c.routed for c in counters)
        shed = sum(c.shed for c in counters) + extra.get("failover_shed", 0)
        offers = sum(sim.offered_by_class) if sim.offered_by_class else arrivals
        engine_shed = sum(sim.shed_by_class) if sim.shed_by_class else sim.generic_shed
        _check(problems, offers == arrivals, f"offers {offers} != observed {arrivals}")
        _check(problems, shed == engine_shed, f"shed {shed} != engine {engine_shed}")
        _check(
            problems,
            offers == routed + shed,
            f"offers {offers} != routed {routed} + shed {shed}",
        )
        routed_per_server, inflight_per_server = self.server_ledger(report, runtimes)
        completed = sim.generic_completed_per_server
        inflight = int(inflight_per_server.sum())
        _check(
            problems,
            routed == sim.generic_completed + inflight,
            f"routed {routed} != completed {sim.generic_completed} "
            f"+ in flight {inflight}",
        )
        _check(
            problems,
            bool(
                np.array_equal(routed_per_server - completed, inflight_per_server)
                and (inflight_per_server >= 0).all()
            ),
            "per-server routed - completed != in flight",
        )
        response = np.array(
            [t.response_time for t in sim.task_log if t.task_class is TaskClass.GENERIC]
        )
        _check(
            problems,
            response.size == sim.generic_completed,
            f"task log holds {response.size} generic tasks, engine counted "
            f"{sim.generic_completed}",
        )
        _check(
            problems,
            response.size > 0
            and math.isclose(
                float(response.mean()), sim.generic_response_time, rel_tol=1e-9
            ),
            "task-log mean response != engine mean",
        )
        unaccounted = abs(offers - routed - shed) + abs(
            routed - sim.generic_completed - inflight
        )
        fingerprint = (
            sim.generic_response_time,
            sim.generic_completed,
            sim.generic_shed,
            sim.generic_retried,
            tuple(sim.utilizations),
            tuple(sim.offered_by_class),
            tuple(sim.shed_by_class),
            routed,
        ) + tuple(sorted(extra.get("fingerprint", {}).items()))
        return Rep(
            setup_s=self.mark.start - t0,
            run_s=self.mark.end - self.mark.start,
            wall_s=t1 - t0,
            work=routed,
            attempted=offers,
            failed=unaccounted,
            admitted_fraction=routed / offers,
            response_mean=float(response.mean()),
            response_p99=float(np.quantile(response, RESPONSE_QUANTILE)),
            response_samples=int(response.size),
            fingerprint=fingerprint,
            problems=problems + extra.get("problems", []),
            journal_bytes=extra.get("journal_bytes", 0),
        )

    @staticmethod
    def server_ledger(report, runtimes):
        """Per-server (routed, in flight) in global server indices."""
        runtime = runtimes[0]
        return runtime.metrics.routed.counts.copy(), np.asarray(runtime._inflight)


class Paper7Admission(ClosedLoop):
    """Table 1 group, ``pod`` routing, 3-class admission, retrying clients."""

    horizon = ADMISSION_HORIZON

    def execute(self, horizon: float):
        group = example_group()
        # The "admission" stack of benchmarks/bench_overload.py.
        workload = ClientWorkload(
            class_shares=ADMISSION_CLASS_SHARES,
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
            RateTrace.constant(ADMISSION_RHO * group.max_generic_rate),
            config,
            horizon=horizon,
            seed=self.seed,
            workload=workload,
        )
        return result, [result.runtime], {}


class Fleet2kSharded(ClosedLoop):
    """``fleet_group(2000)`` in 8 shards, static ``alias`` routing."""

    horizon = FLEET_HORIZON

    def execute(self, horizon: float):
        group = fleet_group(FLEET_N)
        report = run_sharded_closed_loop(
            group,
            RateTrace.constant(FLEET_RHO * group.max_generic_rate),
            RuntimeConfig(routing=RoutingConfig(policy="alias")),
            ShardConfig(shards=FLEET_SHARDS),
            horizon=horizon,
            seed=self.seed,
        )
        problems = []
        _check(problems, report.rebalances > 0, "coordinator never rebalanced")
        _check(
            problems,
            math.isclose(sum(report.shard_shares), 1.0, rel_tol=1e-12),
            "shard shares do not sum to 1",
        )
        return (
            report,
            list(report.runtimes),
            {
                "failover_shed": report.dispatcher.failover_shed,
                "problems": problems,
                "fingerprint": {"rebalances": report.rebalances},
            },
        )

    @staticmethod
    def server_ledger(report, runtimes):
        n = report.plan.group.n
        routed = np.zeros(n, dtype=np.int64)
        inflight = np.zeros(n, dtype=np.int64)
        for shard, runtime in zip(report.plan.shards, runtimes):
            members = np.asarray(shard.members)
            routed[members] = runtime.metrics.routed.counts
            inflight[members] = runtime._inflight
        return routed, inflight


class Paper7Ops(ClosedLoop):
    """Table 1 group under a rate trace and a failure, ``jiq`` routing,
    journal + checkpoints + obs on."""

    horizon = OPS_HORIZON

    def execute(self, horizon: float):
        group = example_group()
        lam_max = group.max_generic_rate
        trace = RateTrace(
            OPS_INITIAL_RHO * lam_max,
            tuple((t * horizon, rho * lam_max) for t, rho in OPS_STEPS),
        )
        server, down, up = OPS_FAILURE
        directory = tempfile.mkdtemp(prefix="ops-", dir=self.scratch)
        try:
            config = RuntimeConfig(
                routing=RoutingConfig(policy="jiq"),
                obs=ObsConfig(enabled=True),
                recovery=RecoveryConfig(enabled=True, directory=directory),
            )
            result = run_closed_loop(
                group,
                trace,
                config,
                horizon=horizon,
                seed=self.seed,
                failures=(
                    (down * horizon, server, "down"),
                    (up * horizon, server, "up"),
                ),
            )
            journal = os.path.join(directory, "journal.jsonl")
            journal_bytes = os.path.getsize(journal)
            checkpoints = [
                f for f in os.listdir(directory) if f.startswith("checkpoint-")
            ]
        finally:
            reset_obs()
            shutil.rmtree(directory)
        counters = result.metrics.counters
        problems = []
        _check(problems, journal_bytes > 0, "journal is empty")
        _check(problems, bool(checkpoints), "no checkpoint written")
        _check(problems, counters.failures == 1, "server failure not observed")
        resolves = len(result.runtime.resolve_log)
        return (
            result,
            [result.runtime],
            {
                "problems": problems,
                "fingerprint": {"journal_bytes": journal_bytes, "resolves": resolves},
                "journal_bytes": journal_bytes,
            },
        )


class SolveSweep:
    """``repro.solve(method="auto")`` over a lambda' grid, both disciplines,
    on the Table 1 group (kkt) and a 100-server group (newton)."""

    def __init__(self, seed: int, scratch: str, mark: PhaseMark) -> None:
        jitter = np.random.default_rng(seed).uniform(
            -SWEEP_JITTER, SWEEP_JITTER, len(SWEEP_GRID)
        )
        self.shares = tuple(float(s + j) for s, j in zip(SWEEP_GRID, jitter))

    def rep(self, scale: float = 1.0) -> Rep:
        t0 = time.perf_counter()
        groups = (example_group(), scaling_group(SWEEP_LARGE_N))
        problems: list[str] = []
        # The paper's anchors: Tables 1 and 2 at lambda' = 23.52.
        anchors = (("fcfs", TABLE1_T_PRIME), ("priority", TABLE2_T_PRIME))
        for discipline, expected in anchors:
            anchor = repro.solve(groups[0], EXAMPLE_TOTAL_RATE, discipline=discipline)
            _check(
                problems,
                round(anchor.mean_response_time, 7) == expected,
                f"{discipline} T' {anchor.mean_response_time:.9f} != table {expected}",
            )
        t1 = time.perf_counter()
        count = max(1, round(len(self.shares) * scale))
        t_primes, placed, backends, fcfs = [], [], [], []
        for group in groups:
            lam_max = group.max_generic_rate
            for discipline in SWEEP_DISCIPLINES:
                for share in self.shares[:count]:
                    lam = share * lam_max
                    result = repro.solve(group, lam, discipline=discipline)
                    t_primes.append(result.mean_response_time)
                    placed.append(result.total_rate / lam)
                    backends.append(result.backend)
                    _check(
                        problems,
                        result.converged and float(np.max(result.utilizations)) < 1.0,
                        f"{result.backend} n={group.n} {discipline} "
                        f"lambda'={lam:.4f} did not converge to a stable split",
                    )
                    if discipline == "fcfs":
                        fcfs.append((group, result))
        t2 = time.perf_counter()
        _check(
            problems, set(backends) == {"kkt", "newton"}, f"backends {set(backends)}"
        )
        # FCFS only: the priority discipline has no closed-form tail.
        tails = [
            GroupResponseTimeDistribution.from_distribution(group, result).quantile(
                RESPONSE_QUANTILE
            )
            for group, result in fcfs
        ]
        bad = sum(1 for frac in placed if not math.isclose(frac, 1.0, rel_tol=1e-9))
        _check(problems, bad == 0, f"{bad} splits do not place the offered rate")
        return Rep(
            setup_s=t1 - t0,
            run_s=t2 - t1,
            wall_s=t2 - t0,
            work=len(t_primes),
            attempted=len(t_primes),
            failed=bad,
            admitted_fraction=float(np.mean(placed)),
            response_mean=float(np.mean(t_primes)),
            response_p99=float(np.mean(tails)),
            response_samples=len(t_primes),
            fingerprint=tuple(t_primes),
            problems=problems,
        )


WORKLOADS = {
    "paper7-admission": Paper7Admission,
    "fleet-2k-sharded": Fleet2kSharded,
    "paper7-ops": Paper7Ops,
    "solve-sweep": SolveSweep,
}
