"""Live dispatching: the paper's optimizer running closed loop.

The paper computes one optimal split for one known ``lambda'``.  A real
dispatcher never knows ``lambda'`` — it sees timestamps — and the rate
it doesn't know keeps changing.  This example drives the online runtime
(:mod:`repro.runtime`) through three regimes against the discrete-event
simulator:

1. **stationary** traffic at the design rate,
2. a **+30% step** in the arrival rate (the drift detector must notice
   and re-solve),
3. a **failure** of the fastest server followed by **recovery** (the
   health tracker shrinks the group, the controller re-solves over the
   survivors, then restores the full split).

For each regime the achieved mean response time is compared against
the analytic optimum ``T'`` the paper's solver produces when told that
regime's true rate and topology — the runtime has to *discover* both.
The alias-table router is used because Bernoulli splitting of a
Poisson stream reproduces the per-server M/M/m model exactly.

The runtime also journals every decision and checkpoints its state to
disk (``repro.recovery``), so a crashed dispatcher could be rebuilt
mid-run; the journal summary is printed at the end.

Run with::

    python examples/live_dispatch.py

Set ``REPRO_EXAMPLE_QUICK=1`` for a seconds-long smoke run and
``REPRO_EXAMPLE_OUTDIR`` to choose where the journal/checkpoints land
(default: a fresh temp directory).
"""

import os
import tempfile

import numpy as np

from repro import BladeServerGroup, RecoveryConfig, solve
from repro.analysis import Phase, phase_reports
from repro.recovery import JOURNAL_NAME, list_checkpoints, read_journal
from repro.runtime import RoutingConfig, RuntimeConfig, run_closed_loop
from repro.workloads import RateTrace

QUICK = bool(os.environ.get("REPRO_EXAMPLE_QUICK"))
SCALE = 0.1 if QUICK else 1.0
OUTDIR = os.environ.get("REPRO_EXAMPLE_OUTDIR") or tempfile.mkdtemp(
    prefix="repro-live-dispatch-"
)
JOURNAL_DIR = os.path.join(OUTDIR, "live-journal")

# A small mixed fleet, 30% preloaded with dedicated work.
group = BladeServerGroup.with_special_fraction(
    sizes=[2, 4, 6], speeds=[1.4, 1.2, 1.0], fraction=0.3
)
cap = group.max_generic_rate

LAM0 = 0.5 * cap          # design-time rate
LAM1 = 1.3 * LAM0         # after the step
STEP_AT = 4_000.0 * SCALE
FAIL_AT, RECOVER_AT = 8_000.0 * SCALE, 12_000.0 * SCALE
HORIZON = 16_000.0 * SCALE
SETTLE = 1_000.0 * SCALE  # transient skipped after each regime change

trace = RateTrace.step(LAM0, at=STEP_AT, to=LAM1)
config = RuntimeConfig(
    routing=RoutingConfig(policy="alias"),
    recovery=RecoveryConfig(enabled=True, directory=JOURNAL_DIR),
)
print(f"fleet: {group.n} servers, saturation lambda'_max = {cap:.2f} tasks/s")
print(f"design rate {LAM0:.2f}, step to {LAM1:.2f} at t = {STEP_AT:g}, "
      f"server 1 down at t = {FAIL_AT:g}, back at t = {RECOVER_AT:g}")

out = run_closed_loop(
    group,
    trace,
    config,
    horizon=HORIZON,
    seed=0,
    failures=[(FAIL_AT, 0, "down"), (RECOVER_AT, 0, "up")],
)

# Analytic targets: what the paper's solver picks when handed each
# regime's true rate and surviving topology.
survivors = BladeServerGroup(group.servers[1:], rbar=group.rbar)
t_design = solve(group, LAM0, discipline="fcfs")
t_stepped = solve(group, LAM1, discipline="fcfs")
t_degraded = solve(survivors, LAM1, discipline="fcfs")

print()
print("controller decisions:")
for ev in out.runtime.resolve_log:
    flags = "cache" if ev.cache_hit else "solve"
    if ev.shed_fraction > 0.0:
        flags += f", shedding {ev.shed_fraction:.0%}"
    print(f"  t = {ev.time:8.1f}  {ev.reason:>8}: lambda' est "
          f"{ev.offered_rate:.3f} -> solved at {ev.solved_rate:.3f} ({flags})")

reports = phase_reports(
    out.sim.task_log,
    [
        Phase("stationary", 0.0, STEP_AT, t_design.mean_response_time),
        Phase("post-step", STEP_AT, FAIL_AT, t_stepped.mean_response_time),
        Phase("degraded", FAIL_AT, RECOVER_AT, t_degraded.mean_response_time),
        Phase("recovered", RECOVER_AT, HORIZON, t_stepped.mean_response_time),
    ],
    settle=SETTLE,
)
print()
print("achieved vs. analytic optimum per regime:")
for report in reports:
    print(f"  {report.render()}  [relative error {report.relative_error:.1%}]")

# Routed rates vs. the analytic split in the final (recovered) regime.
counters = out.metrics.counters
window = HORIZON  # cumulative gauges cover the whole run
routed = out.metrics.routed.cumulative_rates(window)
print()
print("telemetry:")
print(f"  arrivals {counters.arrivals}, routed {counters.routed}, "
      f"shed {counters.shed}")
print(f"  solver calls {counters.resolves} (cache hits "
      f"{counters.cache_hits}, hysteresis skips {counters.hysteresis_skips})")
print(f"  drift triggers {counters.drift_triggers}, failures "
      f"{counters.failures}, recoveries {counters.recoveries}")
print(f"  p50 / p95 response time: "
      f"{out.metrics.response_histogram.quantile(0.5):.3f} / "
      f"{out.metrics.response_histogram.quantile(0.95):.3f} s")
print(f"  final routing weights: "
      f"{np.array2string(out.runtime.current_weights, precision=3)}")
print(f"  analytic fractions at lambda' = {LAM1:.2f}: "
      f"{np.array2string(np.asarray(t_stepped.fractions), precision=3)}")
print(f"  whole-run routed rates per server: "
      f"{np.array2string(routed, precision=3)} tasks/s")

# Every decision above is also on disk: a CRC-framed write-ahead
# journal plus periodic full-state checkpoints, enough to rebuild the
# dispatcher after a crash (see examples/chaos_dispatch.py).
scan = read_journal(os.path.join(JOURNAL_DIR, JOURNAL_NAME))
kinds: dict[str, int] = {}
for rec in scan.records:
    kinds[rec.kind] = kinds.get(rec.kind, 0) + 1
print()
print(f"durability ({JOURNAL_DIR}):")
print(f"  journal: {len(scan.records)} records "
      f"({', '.join(f'{k} x{v}' for k, v in sorted(kinds.items()))})")
print(f"  checkpoints kept: {len(list_checkpoints(JOURNAL_DIR))}")
