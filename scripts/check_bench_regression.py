#!/usr/bin/env python
"""Benchmark-regression gate: diff fresh solver timings against the
committed ``BENCH_solver_scaling.json``, and audit the committed
dispatch/overload artifacts' internal ratios.

The committed files are the measured perf trajectory of record (written
by ``benchmarks/bench_solver_scaling.py::test_newton_trajectory_json``
through ``benchmarks/trajectory.py``, and by ``bench_dispatch.py`` /
``bench_overload.py``).  Raw latencies are machine-dependent, so this
gate never compares seconds across runs.  It checks the things that are
stable:

* **iteration counts** — deterministic per (backend, n); a fresh solve
  needing more outer iterations than the committed trajectory means an
  algorithmic regression, not a slow runner;
* **speedup ratios** — computed within one run on one machine, so the
  committed and fresh ratios are each internally consistent.  A fresh
  ratio collapsing below ``RATIO_FLOOR`` times the committed one (or
  below the absolute acceptance floors in full mode) fails;
* **warm starts** — a ``phi``-warm-started Newton re-solve must need no
  more outer iterations than the cold solve at the same size
  (deterministic, so asserted in quick mode too);
* **dispatch artifact ratios** — ``BENCH_dispatch.json`` is audited
  in place (no re-measurement): the state-aware policies' mean-T ratio
  vs the static alias baseline, and the microbench's within-run O(1)
  and vs-alias ratios, must all sit inside the acceptance envelope a
  regressed commit would break;
* **overload artifact verdicts** — ``BENCH_overload.json``'s recovery
  booleans, class-0 shed bound, and decide-path O(1) ratio.

Artifact audits skip gracefully when a file is absent (only the solver
trajectory baseline is mandatory).

Usage::

    python scripts/check_bench_regression.py           # full trajectory
    python scripts/check_bench_regression.py --quick   # CI smoke sizes

Exit status 0 on pass, 1 on regression, 2 when the committed solver
baseline is missing (run the benchmark first and commit its JSON).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Fresh speedup ratios may sag to this fraction of the committed ones
#: before the gate fails (shared runners breathe; 3x collapses don't).
RATIO_FLOOR = 0.34

#: Iteration counts may exceed the committed baseline by this factor.
ITER_CEILING = 1.5

#: Absolute acceptance floors, asserted in full mode.
ABSOLUTE_FLOORS = {
    "cold_kkt_over_newton@n=500": 10.0,
}

#: Acceptance ceiling on the sharded solve's optimality gap vs the flat
#: Newton solve with pruning off (< 0.1%).  The gap is deterministic —
#: no timing involved — so it is asserted in quick mode too.
EXACT_GAP_CEILING = 1e-3

#: Dispatch-artifact envelope (all within-run ratios).  pod must not be
#: worse than the static alias split by more than 1% in any scenario,
#: jiq must never collapse, and the microbench's O(1) / vs-alias gates
#: mirror bench_dispatch.py's in-process assertions.
DISPATCH_MEAN_T_CEILING = {"pod": 1.01, "jiq": 1.25}
DISPATCH_O1_CEILING = 3.0
DISPATCH_VS_ALIAS_CEILING = {"pod": 1.5, "jiq": 1.5}

#: Overload-artifact envelope: priority-0 shed bound and the admission
#: decide path's O(1)-in-classes ratio.
OVERLOAD_CLASS0_SHED_CEILING = 0.01
OVERLOAD_O1_CEILING = 3.0


def load_baseline() -> dict:
    path = os.path.join(REPO_ROOT, "BENCH_solver_scaling.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        print(f"no committed baseline at {path}", file=sys.stderr)
        print(
            "run: PYTHONPATH=src python -m pytest "
            "benchmarks/bench_solver_scaling.py::test_newton_trajectory_json "
            "-q  # then commit BENCH_solver_scaling.json",
            file=sys.stderr,
        )
        sys.exit(2)


def measure(quick: bool) -> dict:
    sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from trajectory import FULL_SIZES, QUICK_SIZES, measure_trajectory

    sizes = QUICK_SIZES if quick else FULL_SIZES
    return measure_trajectory(sizes=sizes, quick=quick)


def compare(baseline: dict, fresh: dict, quick: bool) -> list[str]:
    failures: list[str] = []
    for key, entry in fresh["entries"].items():
        base = baseline["entries"].get(key)
        if base is None:
            continue  # baseline from a different size set; nothing to diff
        ceiling = ITER_CEILING * max(base["iterations"], 4)
        if entry["iterations"] > ceiling:
            failures.append(
                f"{key}: {entry['iterations']} iterations vs committed "
                f"{base['iterations']} (ceiling {ceiling:.0f})"
            )
    for key, ratio in fresh["speedups"].items():
        base = baseline["speedups"].get(key)
        if base is not None and ratio < RATIO_FLOOR * base:
            failures.append(
                f"{key}: {ratio:.1f}x vs committed {base:.1f}x "
                f"(floor {RATIO_FLOOR * base:.1f}x)"
            )
    for n in fresh["sizes"]:
        cold = fresh["entries"][f"newton@n={n}"]["iterations"]
        warm = fresh["entries"][f"newton-warm@n={n}"]["iterations"]
        if warm > cold:
            failures.append(
                f"newton-warm@n={n}: {warm} iterations vs {cold} cold "
                "(a warm start must not cost extra outer iterations)"
            )
    if not quick:
        for key, floor in ABSOLUTE_FLOORS.items():
            ratio = fresh["speedups"].get(key)
            if ratio is not None and ratio < floor:
                failures.append(
                    f"{key}: {ratio:.1f}x below acceptance floor {floor:.1f}x"
                )
    pruning = fresh.get("pruning")
    if pruning is not None:
        gap = pruning["exact_gap"]
        if abs(gap) >= EXACT_GAP_CEILING:
            failures.append(
                f"sharded exact_gap@n={pruning['n']}: {gap:.2e} vs flat "
                f"Newton (ceiling {EXACT_GAP_CEILING:.0e})"
            )
        gaps = [e["gap"] for e in pruning["entries"]]
        for a, b in zip(gaps, gaps[1:]):
            if b > a + 1e-9:
                failures.append(
                    f"sharded pruning gap curve not monotone at "
                    f"n={pruning['n']}: {gaps}"
                )
                break
    return failures


def _load_artifact(name: str) -> dict | None:
    path = os.path.join(REPO_ROOT, name)
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        print(f"{name} not committed; skipping its audit")
        return None
    except json.JSONDecodeError as exc:
        print(f"{name} is not valid JSON: {exc}", file=sys.stderr)
        return {"__invalid__": True}


def check_dispatch() -> list[str]:
    """Audit the committed ``BENCH_dispatch.json`` in place.

    Ratio-only: every number compared here was produced within one run
    on one machine, so the envelope holds regardless of runner speed.
    """
    data = _load_artifact("BENCH_dispatch.json")
    if data is None:
        return []
    if "__invalid__" in data:
        return ["BENCH_dispatch.json: unparseable artifact"]
    failures: list[str] = []
    mean_t = data.get("head_to_head", {}).get("mean_t", {})
    for scenario, row in mean_t.items():
        alias = row.get("alias")
        if not alias:
            failures.append(f"dispatch {scenario}: missing alias baseline")
            continue
        for policy, ceiling in DISPATCH_MEAN_T_CEILING.items():
            value = row.get(policy)
            if value is None:
                continue
            ratio = value / alias
            if ratio > ceiling:
                failures.append(
                    f"dispatch {scenario}: {policy} mean-T ratio {ratio:.3f}x "
                    f"vs alias (ceiling {ceiling:.2f}x)"
                )
    ratios = data.get("microbench", {}).get("ratios", {})
    for policy, ratio in ratios.get("o1", {}).items():
        if ratio >= DISPATCH_O1_CEILING:
            failures.append(
                f"dispatch microbench: {policy} pick cost grows with n "
                f"({ratio:.2f}x, ceiling {DISPATCH_O1_CEILING:.1f}x)"
            )
    for policy, ceiling in DISPATCH_VS_ALIAS_CEILING.items():
        ratio = ratios.get("vs_alias", {}).get(policy)
        if ratio is not None and ratio >= ceiling:
            failures.append(
                f"dispatch microbench: {policy} per-pick cost {ratio:.2f}x "
                f"alias (ceiling {ceiling:.1f}x)"
            )
    if not failures:
        print("BENCH_dispatch.json ratios inside the acceptance envelope")
    return failures


def check_overload() -> list[str]:
    """Audit the committed ``BENCH_overload.json`` in place."""
    data = _load_artifact("BENCH_overload.json")
    if data is None:
        return []
    if "__invalid__" in data:
        return ["BENCH_overload.json: unparseable artifact"]
    failures: list[str] = []
    arms = data.get("head_to_head", {}).get("arms", {})
    admission = arms.get("admission")
    if admission is not None:
        shed = admission.get("max_class0_shed_fraction")
        if shed is not None and shed >= OVERLOAD_CLASS0_SHED_CEILING:
            failures.append(
                f"overload: admission arm sheds {shed:.4f} of priority-0 "
                f"work (ceiling {OVERLOAD_CLASS0_SHED_CEILING})"
            )
        if admission.get("recovered") is False:
            failures.append(
                "overload: committed admission arm did not recover to T'"
            )
    ratio = data.get("microbench", {}).get("o1_ratio")
    if ratio is not None and ratio >= OVERLOAD_O1_CEILING:
        failures.append(
            f"overload microbench: decide cost grows with classes "
            f"({ratio:.2f}x, ceiling {OVERLOAD_O1_CEILING:.1f}x)"
        )
    if not failures:
        print("BENCH_overload.json verdicts inside the acceptance envelope")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="measure only the smoke sizes (CI runners; ratios still gated "
        "relative to the committed baseline, absolute floors skipped)",
    )
    args = parser.parse_args(argv)

    baseline = load_baseline()
    fresh = measure(quick=args.quick)

    print(f"committed trajectory: sizes {baseline['sizes']}")
    print(f"fresh measurement:    sizes {fresh['sizes']}")
    for key in sorted(fresh["speedups"]):
        base = baseline["speedups"].get(key)
        base_txt = f"{base:.1f}x committed" if base is not None else "new"
        print(f"  {key}: {fresh['speedups'][key]:.1f}x ({base_txt})")
    pruning = fresh.get("pruning")
    if pruning is not None:
        print(
            f"sharded@n={pruning['n']}: exact_gap {pruning['exact_gap']:.2e}, "
            "top-k gap curve "
            + ", ".join(
                f"k={e['top_k']}: {e['gap']:.2e}" for e in pruning["entries"]
            )
        )

    failures = compare(baseline, fresh, quick=args.quick)
    failures += check_dispatch()
    failures += check_overload()
    if failures:
        print("\nREGRESSION:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nno benchmark regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
