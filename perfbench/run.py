"""End-to-end benchmark of the load-distribution closed loop.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper7-admission --seed 1 \\
        --seconds 20 --trace 0

One process, one simulation thread.  The run first warms every code
path with a short repetition, then repeats the workload with the same
seed until ``--seconds`` of measurement have elapsed (at least twice),
checks every repetition's outputs, and requires identical simulated
statistics across repetitions.  It prints each metric with its unit and
the sample counts, then, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: throughput over all
repetitions and the median set-up time, both scaled to a reference
host speed (see :class:`Calibration`), peak memory, and the simulated
response-time statistics.  ``--trace 1`` reports the per-layer metrics
instead: it times untraced repetitions for half the budget, then one
repetition with every layer's entry points wrapped (see ``layers.py``),
and reports each layer's self time as a share of that repetition's wall
time plus ``trace_overhead``, traced over untraced wall time.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

# One simulation thread: keep the numeric libraries single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")

#: Warm-up repetition size, as a share of the workload's input size.
WARMUP_SCALE = 0.1
#: Fewest measured repetitions per run (the determinism check needs two).
MIN_REPS = 2
#: Set-up samples per run: workloads whose set-up is cheap add tiny
#: repetitions (SETUP_SCALE of the input) until they have this many,
#: within SETUP_BUDGET of the measuring time.
SETUP_SAMPLES = 25
SETUP_SCALE = 0.01
SETUP_BUDGET = 0.1
#: Scratch directory (inside the checkout) for durability artefacts.
SCRATCH_NAME = ".bench_tmp"
#: Size of the reference loop (see :class:`Calibration`).
CALIBRATION_UNITS = 60_000
#: The reference loop's time on the reference host: the end-to-end
#: timings are reported as if measured on a host that runs it this fast.
CALIBRATION_REFERENCE_S = 0.05


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Calibration:
    """Host speed, sampled between repetitions with a fixed reference loop.

    The host's speed drifts by tens of percent over seconds to minutes
    (shared cores).  The loop is interpreter-bound work of the same kind
    as the program's (heap pushes and pops, float arithmetic, dict
    stores) and does not depend on the program, so its time, sampled
    across the same window as the measured repetitions, tracks that
    drift; ``slowdown`` is its mean time over the reference time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        heap: list = []
        acc = 0.0
        table = {}
        start = time.perf_counter()
        for i in range(CALIBRATION_UNITS):
            heapq.heappush(heap, ((i * 7919) % 10007 / 10007.0, i))
            if len(heap) > 32:
                t, j = heapq.heappop(heap)
                acc = acc * 0.5 + t
                table[j & 1023] = acc
        self.samples.append(time.perf_counter() - start)

    @property
    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / CALIBRATION_REFERENCE_S


def measure(workload, seconds: float, calibration: Calibration) -> list:
    """Repeat ``workload`` until ``seconds`` have elapsed (MIN_REPS at
    least), sampling the host speed before and after every repetition."""
    reps = []
    start = time.perf_counter()
    calibration.sample()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        reps.append(workload.rep())
        calibration.sample()
    return reps


def setup_samples(workload, reps: list, warm, seconds: float) -> tuple[list, list]:
    """Set-up times of ``reps``, topped up with tiny repetitions while one
    (costing at most the warm-up's wall time) fits the set-up budget."""
    samples = [r.setup_s for r in reps]
    problems = []
    start = time.perf_counter()
    while (
        len(samples) < SETUP_SAMPLES
        and time.perf_counter() - start + warm.wall_s <= SETUP_BUDGET * seconds
    ):
        tiny = workload.rep(scale=SETUP_SCALE)
        samples.append(tiny.setup_s)
        problems.extend(tiny.problems)
    return samples, problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(reps: list, setups: list, slowdown: float) -> dict:
    """End-to-end metrics, with wall times scaled to the reference host."""
    return {
        # Work over time across all repetitions, which integrates the
        # host's remaining speed drift over the whole measured window.
        "ops_per_s": (
            slowdown * sum(r.work for r in reps) / sum(r.run_s for r in reps),
            "1/s",
        ),
        "setup_s": (statistics.median(setups) / slowdown, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "admitted_fraction": (reps[0].admitted_fraction, "fraction"),
        "response_mean": (reps[0].response_mean, "t_sim"),
        "response_p99": (reps[0].response_p99, "t_sim"),
    }


def per_layer(workload, reps: list) -> tuple[dict, object]:
    from layers import LayerTracer, layer_metrics

    with LayerTracer() as tracer:
        traced = workload.rep()
    metrics = layer_metrics(
        tracer, int(traced.wall_s * 1e9), traced.journal_bytes, traced.attempted
    )
    untraced = statistics.median(r.wall_s for r in reps)
    metrics["trace_overhead"] = (traced.wall_s / untraced, "ratio")
    return metrics, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"benchmark: no program source under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS, PhaseMark

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    base = os.path.join(ROOT, SCRATCH_NAME)
    os.makedirs(base, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch, PhaseMark())
        warm = workload.rep(scale=WARMUP_SCALE)
        budget = args.seconds / 2 if args.trace else args.seconds
        calibration = Calibration()
        reps = measure(workload, budget, calibration)
        problems = list(warm.problems)
        traced = None
        if args.trace:
            metrics, traced = per_layer(workload, reps)
            reps_checked = reps + [traced]
        else:
            setups, setup_problems = setup_samples(workload, reps, warm, args.seconds)
            problems.extend(setup_problems)
            metrics = end_to_end(reps, setups, calibration.slowdown)
            reps_checked = reps
        for rep in reps_checked:
            problems.extend(rep.problems)
        if any(rep.fingerprint != reps[0].fingerprint for rep in reps_checked):
            problems.append("repetitions with the same seed differ")
        if traced is not None:
            unattributed = metrics["trace.unattributed_share"][0]
            if unattributed < -1e-6:
                problems.append(
                    f"layer self times exceed the wall time ({unattributed})"
                )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass

    first = reps[0]
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions, "
          f"{first.attempted} operations each, "
          f"{first.response_samples} response samples")
    print(f"  host slowdown {calibration.slowdown:.4f} "
          f"(reference loop {statistics.fmean(calibration.samples) * 1e3:.2f} ms, "
          f"{len(calibration.samples)} samples); end-to-end times are "
          f"scaled by it")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in reps_checked),
        "failed": sum(r.failed for r in reps_checked),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
