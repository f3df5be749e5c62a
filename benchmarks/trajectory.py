"""Measured solver-performance trajectory, persisted as JSON.

The repo's perf story used to live in CI logs; this module makes it
durable.  :func:`measure_trajectory` times the root-finding backends on
the scaling groups of ``bench_solver_scaling.py`` — cold solves per
(backend, n) plus phi-warm-started re-solves for the warm-startable
backends — and :func:`write_trajectory` writes the result to
``BENCH_solver_scaling.json`` at the repo root via the crash-safe
:func:`repro.recovery.journal.atomic_write_json`.

The committed file is the measured trajectory of record; future PRs
diff against it with ``scripts/check_bench_regression.py`` instead of
quoting CI logs.  Raw latencies are machine-dependent, so the
comparator keys on the *speedup ratios* (same machine, same run) and on
iteration counts, which are deterministic.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro import solve
from repro.recovery.journal import atomic_write_json

#: Solver tolerance shared with ``bench_solver_scaling.py``.
TOL = 1e-9

#: Cold-solve group sizes of the full trajectory.
FULL_SIZES = (7, 50, 500)

#: Group sizes measured in ``--quick`` smoke mode.
QUICK_SIZES = (7, 50)

#: Backends timed cold at every size.
COLD_BACKENDS = ("kkt", "newton")

#: Warm-startable backends timed on phi-warm-started re-solves.
WARM_BACKENDS = ("newton",)

#: Shard count of the sharded control-plane series.
SHARDS = 4

#: ``top_k`` sweep of the pruning optimality-gap curve (measured at the
#: largest size of the run).
PRUNING_KS = (2, 4, 8, 16)

#: Repetitions per timing (the median is recorded).  The KKT backend is
#: seconds per solve at n = 500, so it gets fewer rounds.
_REPS = {"kkt": 3, "newton": 5, "sharded": 5}
_REPS_LARGE_KKT = 1

SCHEMA_VERSION = 2

OUTPUT_NAME = "BENCH_solver_scaling.json"


def _bench_group(n: int):
    from bench_solver_scaling import scaling_group

    group = scaling_group(n)
    from repro.workloads.paper import EXAMPLE_TOTAL_RATE

    lam = EXAMPLE_TOTAL_RATE if n == 7 else 0.6 * group.max_generic_rate
    return group, lam


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _time_solve(group, lam, method: str, reps: int, **kwargs):
    # The kkt backend spells its tolerance ``xtol`` (it feeds brentq).
    if method == "kkt" and "tol" in kwargs:
        kwargs["xtol"] = kwargs.pop("tol")
    latencies = []
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = solve(group, lam, discipline="fcfs", method=method, **kwargs)
        latencies.append(time.perf_counter() - t0)
    return _median(latencies), result


def measure_trajectory(sizes=FULL_SIZES, quick: bool = False) -> dict:
    """Time every backend and assemble the trajectory document.

    Cold entries: median latency and iteration count per (backend, n).
    Warm entries: a re-solve at ``1.01 lam`` warm-started with the cold
    solve's multiplier, for the warm-startable backends.  Speedup
    ratios are derived within the same run, so they are comparable
    across machines in a way raw latencies are not.
    """
    entries: dict[str, dict] = {}
    speedups: dict[str, float] = {}
    for n in sizes:
        group, lam = _bench_group(n)
        cold_latency: dict[str, float] = {}
        cold_phi: dict[str, float] = {}
        for method in COLD_BACKENDS:
            reps = _REPS[method]
            if method == "kkt" and n >= 500:
                reps = _REPS_LARGE_KKT
            latency, result = _time_solve(group, lam, method, reps, tol=TOL)
            assert result.converged, f"{method} did not converge at n={n}"
            cold_latency[method] = latency
            cold_phi[method] = result.phi
            entries[f"{method}@n={n}"] = {
                "median_seconds": latency,
                "iterations": int(result.iterations),
                "t_prime": float(result.mean_response_time),
            }
        for method in WARM_BACKENDS:
            latency, result = _time_solve(
                group,
                1.01 * lam,
                method,
                _REPS[method],
                tol=TOL,
                phi_hint=cold_phi[method],
            )
            entries[f"{method}-warm@n={n}"] = {
                "median_seconds": latency,
                "iterations": int(result.iterations),
                "t_prime": float(result.mean_response_time),
            }
        # Sharded control plane: cold hierarchical solve, then a warm
        # re-solve carrying the per-shard multiplier dict — the same
        # hint the coordinator threads between rebalance ticks.
        latency, result = _time_solve(
            group, lam, "sharded", _REPS["sharded"], tol=TOL, shards=SHARDS
        )
        assert result.converged, f"sharded did not converge at n={n}"
        sharded_gap = abs(
            float(result.mean_response_time)
            - entries[f"newton@n={n}"]["t_prime"]
        ) / entries[f"newton@n={n}"]["t_prime"]
        entries[f"sharded@n={n}"] = {
            "median_seconds": latency,
            "iterations": int(result.iterations),
            "t_prime": float(result.mean_response_time),
            "gap_vs_newton": sharded_gap,
        }
        cold_latency["sharded"] = latency
        warm_hint = dict(result.metadata["shard_phi"])
        latency, result = _time_solve(
            group,
            1.01 * lam,
            "sharded",
            _REPS["sharded"],
            tol=TOL,
            shards=SHARDS,
            phi_hint=warm_hint,
        )
        entries[f"sharded-warm@n={n}"] = {
            "median_seconds": latency,
            "iterations": int(result.iterations),
            "t_prime": float(result.mean_response_time),
        }
        speedups[f"cold_kkt_over_newton@n={n}"] = (
            cold_latency["kkt"] / cold_latency["newton"]
        )
        speedups[f"cold_sharded_over_newton@n={n}"] = (
            cold_latency["sharded"] / cold_latency["newton"]
        )
    return {
        "schema": SCHEMA_VERSION,
        "tol": TOL,
        "quick": bool(quick),
        "sizes": list(sizes),
        "entries": entries,
        "speedups": speedups,
        "pruning": _pruning_section(max(sizes)),
    }


def _pruning_section(n: int) -> dict:
    """Measured sharded optimality-gap curve at the run's largest size.

    ``exact_gap`` (pruning off) is the acceptance number — the regression
    gate bounds it below 0.1% — and the per-``k`` entries are the
    measured top-k curve, monotone non-increasing by construction of the
    nested candidate sets.
    """
    from repro.shard import pruning_gap_report

    group, lam = _bench_group(n)
    # Always end the sweep at full per-shard coverage, so the committed
    # curve descends to the exact (pruning-off) gap.
    full_k = -(-group.n // SHARDS)
    ks = tuple(k for k in PRUNING_KS if k < full_k) + (full_k,)
    return pruning_gap_report(
        group, lam, ks=ks, shards=SHARDS, tol=TOL
    ).to_dict()


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


def write_trajectory(data: dict, path: Path | None = None) -> Path:
    """Atomically persist the trajectory document (crash-safe)."""
    target = path if path is not None else repo_root() / OUTPUT_NAME
    atomic_write_json(str(target), data)
    return target
