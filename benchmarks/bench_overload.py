"""Overload survival head-to-head: metastable storm vs admission cure.

Runs the chaos suite's 2x-capacity burst + retry-storm scenario through
both client/dispatcher stacks and reports the post-burst tail:

* **no-admission** — deep retry budgets, short slashed backoffs, no
  admission layer: the classic metastable configuration.  Post-burst
  tail means stay far above (or never materialize at) the analytic
  base-rate ``T'``.
* **admission** — priority token bucket + CoDel AQM + brownout with
  budgeted long-backoff clients: the tail mean returns to within the
  99% replication CI of ``T'`` and priority-0 work is never shed.

Acceptance in full mode asserts exactly the chaos suite's contract
(recovery CI containment, class-0 shed < 1%, metastable arm stays
unrecovered); ``--quick`` runs fewer seeds over a shorter horizon and
only sanity-checks completion.  The microbench gates the admission
decide path on *ratios only* (per repo convention): per-decision cost
must be O(1) in the number of priority classes.

Results persist to ``BENCH_overload.json`` for the CI artifact.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np

from repro.core.server import BladeServerGroup
from repro.faults import run_overload_chaos
from repro.recovery import atomic_write_json
from repro.runtime.admission import AdmissionConfig, AdmissionController
from repro.runtime.loop import RuntimeConfig
from repro.runtime.policies import RoutingConfig
from repro.sim.arrivals import ClientWorkload, RetryPolicy

ARTIFACT = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "BENCH_overload.json"
)

HORIZON = 1_500.0
QUICK_HORIZON = 600.0
SEEDS = tuple(range(10))
QUICK_SEEDS = (1, 2)
TIMEOUT = 10.0
CLASS_SHARES = (0.2, 0.3, 0.5)

DECISIONS = 50_000
QUICK_DECISIONS = 5_000
MICRO_CLASSES = (2, 64)


def overload_group() -> BladeServerGroup:
    return BladeServerGroup.from_arrays(
        sizes=[2, 3], speeds=[1.0, 1.5], special_rates=[0.2, 0.3], rbar=1.0
    )


def _update_artifact(key: str, value) -> str:
    """Merge ``{key: value}`` into the JSON artifact crash-safely."""
    data = {}
    if os.path.exists(ARTIFACT):
        try:
            with open(ARTIFACT, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            data = {}
    data[key] = value
    atomic_write_json(ARTIFACT, data)
    return ARTIFACT


def _stacks():
    cured = (
        ClientWorkload(
            class_shares=CLASS_SHARES,
            retry=RetryPolicy(
                budget=2,
                timeout=TIMEOUT,
                base_backoff=4.0,
                backoff_factor=2.0,
                max_backoff=60.0,
                jitter=0.5,
            ),
        ),
        RuntimeConfig(
            routing=RoutingConfig(policy="alias"),
            admission=AdmissionConfig(
                classes=3, target_delay=4.0, interval=15.0, sojourn_tc=20.0
            ),
        ),
    )
    metastable = (
        ClientWorkload(
            class_shares=CLASS_SHARES,
            retry=RetryPolicy(
                budget=6,
                timeout=TIMEOUT,
                base_backoff=0.5,
                backoff_factor=1.5,
                max_backoff=4.0,
                jitter=0.5,
            ),
        ),
        RuntimeConfig(routing=RoutingConfig(policy="alias")),
    )
    return {"admission": cured, "no-admission": metastable}


# ---------------------------------------------------------------------------
# Head-to-head: storm vs cure
# ---------------------------------------------------------------------------


def test_overload_survival_head_to_head(quick):
    """Post-burst tail response per arm, seed-replicated."""
    horizon = QUICK_HORIZON if quick else HORIZON
    seeds = QUICK_SEEDS if quick else SEEDS
    group = overload_group()
    rate = 0.72 * group.max_generic_rate

    table = {}
    reports = {}
    for arm, (workload, config) in _stacks().items():
        report = run_overload_chaos(
            group,
            rate,
            seeds=seeds,
            horizon=horizon,
            workload=workload,
            config=config,
            burst_at=horizon / 7.5,
            burst_duration=horizon / 10.0,
            retry_storm=True,
        )
        reports[arm] = report
        lo, hi = report.tail_confidence_interval(0.99)
        table[arm] = {
            "recovered": report.recovered(0.99),
            "tail_ci99": [lo, hi],
            "analytic_t_prime": report.analytic_t_prime,
            "total_retried": report.total_retried,
            "total_timeouts": report.total_timeouts,
            "max_class0_shed_fraction": report.max_class0_shed_fraction,
            "tail_means": [
                None if not math.isfinite(m) else float(m)
                for m in report.tail_means
            ],
        }

    print("\noverload survival (99% replication CI of the post-burst tail):")
    for arm, row in table.items():
        lo, hi = row["tail_ci99"]
        print(
            f"  {arm:>12}: recovered={row['recovered']} "
            f"CI=[{lo:.3f}, {hi:.3f}] T'={row['analytic_t_prime']:.3f} "
            f"retries={row['total_retried']} cls0-shed="
            f"{row['max_class0_shed_fraction']:.4f}"
        )
    path = _update_artifact(
        "head_to_head",
        {"horizon": horizon, "seeds": list(seeds), "arms": table},
    )
    print(f"overload head-to-head -> {path}")

    for report in reports.values():
        assert report.all_completed, f"escaped exceptions: {report.failed_seeds}"
    assert table["admission"]["max_class0_shed_fraction"] < 0.01
    if not quick:
        # The full contract, identical to tests/test_overload_chaos.py.
        assert table["admission"]["recovered"], (
            f"admission arm failed to recover: CI {table['admission']['tail_ci99']} "
            f"vs T' {table['admission']['analytic_t_prime']:.4f}"
        )
        assert not table["no-admission"]["recovered"]
        assert (
            reports["no-admission"].total_retried
            > 5 * reports["admission"].total_retried
        )


# ---------------------------------------------------------------------------
# Admission decide-path microbench (ratio-only gate)
# ---------------------------------------------------------------------------


def _per_decision_seconds(controller, decisions: int, classes: int) -> float:
    decide = controller.decide
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for i in range(decisions):
            decide(i * 1e-3, i % classes)
        best = min(best, (time.perf_counter() - t0) / decisions)
    return best


def test_decide_path_is_o1_in_classes(quick):
    """Per-decision cost of the admission verdict, flat in classes.

    Ratio-only (within-run, same process): the class count scales the
    threshold table built at construction, never the per-offer work.
    """
    decisions = QUICK_DECISIONS if quick else DECISIONS
    costs = {}
    for classes in MICRO_CLASSES:
        controller = AdmissionController(AdmissionConfig(classes=classes))
        controller.reseed(0.0, 100.0)
        costs[classes] = _per_decision_seconds(controller, decisions, classes)

    lo, hi = MICRO_CLASSES
    ratio = costs[hi] / costs[lo]
    print("\namortized per-decision cost (min over repeats):")
    for classes, cost in costs.items():
        print(f"  classes={classes:>3}: {cost * 1e9:8.1f} ns")
    print(f"  O(1) ratio (classes={hi}/classes={lo}): {ratio:.2f}")

    path = _update_artifact(
        "microbench",
        {
            "decisions": decisions,
            "per_decision_seconds": {str(c): costs[c] for c in MICRO_CLASSES},
            "o1_ratio": ratio,
        },
    )
    print(f"microbench -> {path}")
    if not quick:
        assert ratio < 3.0, f"decide cost grows with classes: {ratio:.2f}x"


def test_decisions_are_deterministic():
    """Same config, same offer stream → identical verdict sequence (the
    property the crash-recovery replay leans on — no RNG anywhere)."""
    rng = np.random.default_rng(3)
    offers = [(float(t), int(c)) for t, c in zip(
        np.cumsum(rng.exponential(0.2, size=2_000)), rng.integers(0, 3, 2_000)
    )]
    runs = []
    for _ in range(2):
        controller = AdmissionController(AdmissionConfig())
        controller.reseed(0.0, 4.0)
        verdicts = []
        for t, cls in offers:
            verdicts.append(controller.decide(t, cls))
            if cls == 0:
                controller.observe_sojourn(t, 0.5 + 0.1 * cls)
        runs.append(verdicts)
    assert runs[0] == runs[1]
