"""Layer attribution for the traced benchmark run.

The traced run wraps the public entry points of each layer of the
closed loop, for that run only, and accumulates per-call counts, total
time and *self* time (time not covered by a nested wrapped call).  The
program under test is not modified: wrappers are installed on the
classes and module bindings named in :func:`layer_targets` and removed
again when the :class:`LayerTracer` context exits.

A layer's self time is the duration of its calls minus the part of
those intervals spent inside calls of any other wrapped entry point, so
the self times of all layers plus the set-up glue never count the same
nanosecond twice; what is left of the traced wall time is reported as
unattributed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core import solvers as core_solvers
from repro.core.server import BladeServerGroup
from repro.faults.supervisor import ResilienceSupervisor
from repro.obs.registry import Counter, Gauge, Histogram, MetricFamily, MetricsRegistry
from repro.obs.trace import Span, Tracer
from repro.recovery.checkpoint import RecoveryManager
from repro.recovery.journal import JournalWriter
from repro.runtime.admission import AdmissionController
from repro.runtime.controller import ResolveController
from repro.runtime.estimator import (
    DriftDetector,
    EwmaRateEstimator,
    SlidingWindowRateEstimator,
)
from repro.runtime.loop import LoadDistributionRuntime
from repro.runtime.policies import JoinIdleQueueRouter, OptimalPriorPowerOfDRouter
from repro.runtime.router import AliasTableRouter, SmoothWeightedRoundRobinRouter
from repro.shard import coordinator as shard_coordinator
from repro.shard import runtime as shard_runtime
from repro.sim.arrivals import ClientWorkload, RetryPolicy, TracedPoissonArrivals
from repro.sim.engine import GroupSimulation
from repro.sim.events import EventQueue
from repro.sim.stats import BatchMeans, RunningStats, TimeWeightedStats

_DISPATCHER = shard_runtime.ShardedDispatcher
_ROUTERS = (
    SmoothWeightedRoundRobinRouter,
    AliasTableRouter,
    OptimalPriorPowerOfDRouter,
    JoinIdleQueueRouter,
)


def layer_targets():
    """``(owner, attribute, layer, op)`` for every wrapped entry point."""
    targets = [
        (GroupSimulation, "run", "sim.engine", "run"),
        (EventQueue, "schedule", "sim.events", "schedule"),
        (EventQueue, "pop", "sim.events", "pop"),
        (BladeServerGroup, "speeds", "core.server", "speeds"),
        (TimeWeightedStats, "update", "sim.stats", "update"),
        (BatchMeans, "add", "sim.stats", "add"),
        (RunningStats, "add", "sim.stats", "add"),
        (TracedPoissonArrivals, "next_interarrival", "sim.arrivals", "interarrival"),
        (ClientWorkload, "draw_class", "sim.arrivals", "draw_class"),
        (RetryPolicy, "backoff_delay", "sim.arrivals", "backoff"),
        (LoadDistributionRuntime, "route", "runtime.loop", "route"),
        (LoadDistributionRuntime, "route_offer", "runtime.loop", "route"),
        (LoadDistributionRuntime, "observe_arrival", "runtime.loop", "arrival"),
        (LoadDistributionRuntime, "observe_completion", "runtime.loop", "completion"),
        (LoadDistributionRuntime, "server_down", "runtime.loop", "health"),
        (LoadDistributionRuntime, "server_up", "runtime.loop", "health"),
        (AdmissionController, "decide", "runtime.admission", "decide"),
        (AdmissionController, "observe_sojourn", "runtime.admission", "sojourn"),
        (AdmissionController, "reseed", "runtime.admission", "reseed"),
        (EwmaRateEstimator, "observe", "runtime.estimator", "observe"),
        (EwmaRateEstimator, "estimate", "runtime.estimator", "estimate"),
        (SlidingWindowRateEstimator, "observe", "runtime.estimator", "observe"),
        (SlidingWindowRateEstimator, "estimate", "runtime.estimator", "estimate"),
        (DriftDetector, "check", "runtime.estimator", "drift"),
        (ResolveController, "resolve", "runtime.controller", "resolve"),
        (ResilienceSupervisor, "resolve", "runtime.controller", "supervise"),
        (JournalWriter, "append", "recovery.journal", "append"),
        (RecoveryManager, "record_route", "recovery.journal", "record"),
        (RecoveryManager, "record_completion", "recovery.journal", "record"),
        (RecoveryManager, "record_resolve", "recovery.journal", "record"),
        (RecoveryManager, "record_health", "recovery.journal", "record"),
        (RecoveryManager, "checkpoint", "recovery.checkpoint", "write"),
        (Tracer, "span", "obs", "span"),
        (Span, "__enter__", "obs", "span"),
        (Span, "__exit__", "obs", "span"),
        (Span, "note", "obs", "span"),
        (MetricsRegistry, "counter", "obs", "lookup"),
        (MetricsRegistry, "gauge", "obs", "lookup"),
        (MetricsRegistry, "histogram", "obs", "lookup"),
        (MetricFamily, "labels", "obs", "lookup"),
        (MetricFamily, "inc", "obs", "record"),
        (MetricFamily, "observe", "obs", "record"),
        (MetricFamily, "set", "obs", "record"),
        (Counter, "inc", "obs", "record"),
        (Gauge, "set", "obs", "record"),
        (Histogram, "observe", "obs", "record"),
        (shard_runtime, "partition_group", "shard.partition", "partition"),
        (shard_coordinator, "partition_group", "shard.partition", "partition"),
        (shard_coordinator.ShardCoordinator, "solve", "shard.coordinator", "solve"),
        (_DISPATCHER, "rebalance", "shard.coordinator", "rebalance"),
        (_DISPATCHER, "route", "shard.runtime", "route"),
        (_DISPATCHER, "route_offer", "shard.runtime", "route"),
        (_DISPATCHER, "observe_arrival", "shard.runtime", "arrival"),
        (_DISPATCHER, "observe_completion", "shard.runtime", "completion"),
    ]
    for router in _ROUTERS:
        targets.append((router, "pick", "runtime.policies", "pick"))
        targets.append((router, "on_completion", "runtime.policies", "completion"))
        targets.append((router, "set_weights", "runtime.policies", "set_weights"))
    return targets


@dataclass
class OpStats:
    """Accumulated cost of one wrapped operation of one layer."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    #: Per-call wall times, kept only for operations that ask for them.
    samples_ns: list = field(default_factory=list)
    #: Iteration counts reported by solver results.
    iterations: int = 0
    #: Outcome tallies (cache hits, admissions).
    hits: int = 0


class LayerTracer:
    """Context manager that wraps every layer entry point for one run."""

    def __init__(self) -> None:
        self.ops: dict[tuple[str, str], OpStats] = {}
        self._stack: list[int] = []
        self._restore: list = []

    # -- wrapping ---------------------------------------------------------------------

    def _timed(self, fn, layer: str, op: str, on_result=None, keep_samples=False):
        stats = self.ops.setdefault((layer, op), OpStats())
        stack = self._stack
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats.calls += 1
                stats.total_ns += dt
                stats.self_ns += dt - child
                if keep_samples:
                    stats.samples_ns.append(dt)
                if stack:
                    stack[-1] += dt
            if on_result is not None:
                on_result(stats, result)
            return result

        return timed

    def _patch(self, owner, name: str, layer: str, op: str) -> None:
        raw = owner.__dict__[name]
        if isinstance(raw, property):
            replacement = property(self._timed(raw.fget, layer, op))
        else:
            replacement = self._timed(raw, layer, op, on_result=_OUTCOMES.get(op))
        setattr(owner, name, replacement)
        self._restore.append(lambda: setattr(owner, name, raw))

    def _patch_solvers(self) -> None:
        """Wrap every registered solver backend through the public registry."""
        for name, method in core_solvers.registered_methods().items():
            timed = self._timed(
                method.fn,
                "core.solvers",
                name,
                on_result=_count_iterations,
                keep_samples=True,
            )
            core_solvers.register_method(
                name, timed, warm_startable=method.warm_startable, replace=True
            )
            self._restore.append(
                lambda m=method: core_solvers.register_method(
                    m.name, m.fn, warm_startable=m.warm_startable, replace=True
                )
            )

    def __enter__(self) -> "LayerTracer":
        for owner, name, layer, op in layer_targets():
            self._patch(owner, name, layer, op)
        self._patch_solvers()
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            self._restore.pop()()

    # -- queries ----------------------------------------------------------------------

    def layer(self, layer: str, op: str | None = None) -> OpStats:
        """Sum of the stats of ``layer`` (restricted to ``op`` if given)."""
        out = OpStats()
        for (name, o), stats in self.ops.items():
            if name == layer and (op is None or o == op):
                out.calls += stats.calls
                out.total_ns += stats.total_ns
                out.self_ns += stats.self_ns
                out.samples_ns.extend(stats.samples_ns)
                out.iterations += stats.iterations
                out.hits += stats.hits
        return out

    def self_ns_total(self) -> int:
        return sum(stats.self_ns for stats in self.ops.values())


def _count_iterations(stats: OpStats, result) -> None:
    stats.iterations += int(result.iterations)


def _count_cache_hit(stats: OpStats, outcome) -> None:
    stats.hits += bool(outcome.cache_hit)


def _count_admit(stats: OpStats, verdict) -> None:
    stats.hits += bool(verdict[0])


#: Result inspectors by operation name.
_OUTCOMES = {
    "resolve": _count_cache_hit,
    "decide": _count_admit,
    "solve": _count_iterations,
}


def _quantile_ms(samples_ns: list, q: float) -> float:
    if not samples_ns:
        return 0.0
    ordered = sorted(samples_ns)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] / 1e6


def layer_metrics(
    tracer: LayerTracer, wall_ns: int, journal_bytes: int, routes: int
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, ``name -> (value, unit)``, of one traced run
    whose wall time is ``wall_ns`` and which wrote ``journal_bytes`` of
    journal for ``routes`` routing decisions.

    Shares are self time over the traced wall time.  Layers a workload
    never calls report zero counts and shares.
    """
    m: dict[str, tuple[float, str]] = {}

    def share(layer: str, op: str | None = None) -> float:
        return tracer.layer(layer, op).self_ns / wall_ns

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    engine = tracer.layer("sim.engine")
    pops = tracer.layer("sim.events", "pop").calls
    m["sim.engine.self_share"] = (engine.self_ns / wall_ns, "fraction")
    m["sim.engine.us_per_event"] = (ratio(engine.self_ns / 1e3, pops), "us")
    m["sim.events.count"] = (pops, "count")
    m["sim.events.share"] = (share("sim.events"), "fraction")
    m["core.server.speeds_calls"] = (tracer.layer("core.server").calls, "count")
    m["core.server.share"] = (share("core.server"), "fraction")
    m["sim.stats.share"] = (share("sim.stats"), "fraction")
    m["sim.arrivals.share"] = (share("sim.arrivals"), "fraction")
    m["runtime.loop.route_share"] = (share("runtime.loop", "route"), "fraction")
    m["runtime.loop.arrival_share"] = (share("runtime.loop", "arrival"), "fraction")
    m["runtime.loop.completion_share"] = (
        share("runtime.loop", "completion"),
        "fraction",
    )
    decide = tracer.layer("runtime.admission", "decide")
    m["runtime.admission.decide_us"] = (
        ratio(decide.total_ns / 1e3, decide.calls),
        "us",
    )
    m["runtime.admission.share"] = (share("runtime.admission"), "fraction")
    m["runtime.admission.admit_ratio"] = (ratio(decide.hits, decide.calls), "fraction")
    pick = tracer.layer("runtime.policies", "pick")
    m["runtime.policies.pick_us"] = (ratio(pick.total_ns / 1e3, pick.calls), "us")
    m["runtime.policies.share"] = (share("runtime.policies"), "fraction")
    m["runtime.estimator.share"] = (share("runtime.estimator"), "fraction")
    resolve = tracer.layer("runtime.controller", "resolve")
    m["runtime.controller.resolve_calls"] = (resolve.calls, "count")
    m["runtime.controller.resolve_ms"] = (
        ratio(resolve.total_ns / 1e6, resolve.calls),
        "ms",
    )
    m["runtime.controller.cache_hit_ratio"] = (
        ratio(resolve.hits, resolve.calls),
        "fraction",
    )
    solves = tracer.layer("core.solvers")
    m["core.solvers.calls"] = (solves.calls, "count")
    m["core.solvers.ms_p50"] = (_quantile_ms(solves.samples_ns, 0.5), "ms")
    m["core.solvers.ms_p90"] = (_quantile_ms(solves.samples_ns, 0.9), "ms")
    m["core.solvers.share"] = (share("core.solvers"), "fraction")
    for method in ("kkt", "newton"):
        stats = tracer.layer("core.solvers", method)
        m[f"core.solvers.{method}.calls"] = (stats.calls, "count")
        m[f"core.solvers.{method}.ms_per_solve"] = (
            ratio(stats.total_ns / 1e6, stats.calls),
            "ms",
        )
        m[f"core.solvers.{method}.iterations"] = (
            ratio(stats.iterations, stats.calls),
            "count",
        )
    append = tracer.layer("recovery.journal", "append")
    m["recovery.journal.append_us"] = (ratio(append.total_ns / 1e3, append.calls), "us")
    m["recovery.journal.share"] = (share("recovery.journal"), "fraction")
    m["recovery.journal.bytes"] = (journal_bytes, "bytes")
    m["recovery.journal.bytes_per_route"] = (ratio(journal_bytes, routes), "bytes")
    checkpoint = tracer.layer("recovery.checkpoint")
    m["recovery.checkpoint.writes"] = (checkpoint.calls, "count")
    m["recovery.checkpoint.ms_per_write"] = (
        ratio(checkpoint.total_ns / 1e6, checkpoint.calls),
        "ms",
    )
    m["obs.share"] = (share("obs"), "fraction")
    m["obs.tracer.share"] = (share("obs", "span"), "fraction")
    m["obs.registry.share"] = (
        share("obs", "lookup") + share("obs", "record"),
        "fraction",
    )
    m["shard.partition.s"] = (tracer.layer("shard.partition").total_ns / 1e9, "s")
    coord = tracer.layer("shard.coordinator", "solve")
    m["shard.coordinator.solve_ms"] = (ratio(coord.total_ns / 1e6, coord.calls), "ms")
    m["shard.coordinator.outer_iterations"] = (
        ratio(coord.iterations, coord.calls),
        "count",
    )
    m["shard.coordinator.share"] = (share("shard.coordinator"), "fraction")
    m["shard.runtime.route_share"] = (share("shard.runtime", "route"), "fraction")
    m["trace.unattributed_share"] = (
        1.0 - tracer.self_ns_total() / wall_ns,
        "fraction",
    )
    return m
