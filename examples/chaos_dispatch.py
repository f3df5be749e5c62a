"""Chaos dispatching: the supervised runtime under injected faults.

``examples/live_dispatch.py`` shows the online loop tracking rate steps
and failures it is *told about*.  This example breaks the loop's own
machinery instead: the solver starts throwing mid-run, the rate
estimator goes noisy, health signals flap, and at one point every
server goes dark at once.  The resilience supervisor has to keep every
dispatch decision safe — fall back to a cheaper solver, pin the
last-known-good split behind a circuit breaker, shed 100% while the
cluster is dark — and then re-converge to the paper's analytic optimum
once the faults clear.

Two parts:

1. a **targeted run**: one crafted schedule (solver outage, then a
   correlated two-server outage) with the full incident timeline and
   fallback provenance printed, and
2. a **chaos sweep**: ``run_chaos`` over a batch of seeded randomized
   schedules, with the safety audit (no watchdog violations, no task
   routed into a down window) and the replication-CI re-convergence
   check the acceptance suite enforces, and
3. a **crash sweep**: the same harness with ``allow_crash=True`` — the
   control plane is hard-killed mid-run and rebuilt from its
   write-ahead journal + checkpoints (``repro.recovery``), with the
   recovery telemetry printed.

Run with::

    python examples/chaos_dispatch.py

Set ``REPRO_EXAMPLE_QUICK=1`` for a seconds-long smoke run and
``REPRO_EXAMPLE_OUTDIR`` to choose where recovery state lands.
"""

import os
import tempfile

from repro import BladeServerGroup
from repro.faults import FaultPlan, FaultSchedule, FaultSpec, run_chaos
from repro.runtime import RoutingConfig, RuntimeConfig, run_closed_loop
from repro.workloads import RateTrace

QUICK = bool(os.environ.get("REPRO_EXAMPLE_QUICK"))
SCALE = 0.2 if QUICK else 1.0
N_SWEEP = 3 if QUICK else 8
OUTDIR = os.environ.get("REPRO_EXAMPLE_OUTDIR") or tempfile.mkdtemp(
    prefix="repro-chaos-dispatch-"
)

group = BladeServerGroup.with_special_fraction(
    sizes=[2, 4, 6], speeds=[1.4, 1.2, 1.0], fraction=0.3
)
RATE = 0.55 * group.max_generic_rate
HORIZON = 6_000.0 * SCALE
config = RuntimeConfig(routing=RoutingConfig(policy="alias"))

# ---------------------------------------------------------------- part 1
# A crafted schedule: the primary solver backends throw for 1500 s
# (long enough to trip the circuit breaker), the estimator picks up
# multiplicative noise, and later servers 0 and 1 drop simultaneously.
schedule = FaultSchedule(
    [
        FaultSpec("solver-error", 500.0 * SCALE, 2_000.0 * SCALE,
                  {"methods": ("kkt", "newton", "closed-form")}),
        FaultSpec("estimator-noise", 500.0 * SCALE, 2_000.0 * SCALE,
                  {"sigma": 0.2}),
        FaultSpec("correlated-outage", 3_500.0 * SCALE, 4_200.0 * SCALE,
                  {"servers": (0, 1)}),
    ],
    seed=11,
)

print(f"fleet: {group.n} servers, offered rate {RATE:.2f} tasks/s "
      f"({RATE / group.max_generic_rate:.0%} of saturation)")
print(f"faults: {', '.join(s.kind for s in schedule.specs)}")

out = run_closed_loop(
    group, RateTrace.constant(RATE), config,
    horizon=HORIZON, seed=0, fault_plan=FaultPlan(schedule),
)

m = out.metrics
print()
print("incident timeline:")
for rec in m.incidents:
    print(f"  t = {rec.time:8.1f}  [{rec.severity:>7}] {rec.kind:>14}: "
          f"{rec.detail}")
print()
print("where decisions came from (source -> count):")
for source, count in sorted(m.fallback_depth.by_source.items()):
    print(f"  {source:>22}: {count}")
print(f"  max fallback depth {m.fallback_depth.max_depth}, "
      f"circuit opened {m.counters.circuit_opens}x / "
      f"closed {m.counters.circuit_closes}x, "
      f"solver failures absorbed {m.counters.resolve_failures}")
print(f"  shed episodes {m.shed.events}, peak shed fraction "
      f"{m.shed.peak:.0%} (cluster dark "
      f"{m.counters.cluster_down_events}x)")
print(f"  watchdog violations: {m.counters.watchdog_violations} "
      f"(anything nonzero is a bug)")

# ---------------------------------------------------------------- part 2
# The acceptance view: a batch of randomized seeded schedules, each run
# audited for safety and scored for post-fault re-convergence against
# the analytic optimum of the healed system.
print()
print("chaos sweep over randomized fault schedules:")
report = run_chaos(group, RATE, seeds=range(N_SWEEP),
                   horizon=4_000.0 * SCALE, config=config)
print(report.render())
lo, hi = report.tail_confidence_interval()
print(f"post-fault tail CI [{lo:.4f}, {hi:.4f}] "
      f"{'contains' if report.reconverged() else 'MISSES'} "
      f"the analytic T' = {report.analytic_t_prime:.4f}")
assert report.all_completed
assert report.total_watchdog_violations == 0
assert report.total_routed_to_down == 0

# ---------------------------------------------------------------- part 3
# Crash recovery: the schedules may now also hard-kill the control
# plane mid-run.  The harness rebuilds each crashed dispatcher from the
# latest checkpoint plus a deterministic replay of the journal tail,
# then lets the run continue on the *same* event stream — the audits
# above must still hold.
print()
print("crash sweep (control plane killed and restored from disk):")
crash_report = run_chaos(group, RATE, seeds=range(N_SWEEP),
                         horizon=4_000.0 * SCALE, config=config,
                         allow_crash=True,
                         recovery_dir=os.path.join(OUTDIR, "crash-recovery"))
replayed = sum(r.journal_replayed for r in crash_report.records)
print(f"  crashes survived: {crash_report.total_crashes} across "
      f"{crash_report.n_runs} runs, {replayed} journal records replayed")
assert crash_report.all_completed
assert crash_report.total_watchdog_violations == 0
assert crash_report.total_routed_to_down == 0
