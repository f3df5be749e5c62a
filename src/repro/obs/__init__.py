"""repro.obs — structured observability: metrics, tracing, profiling.

A zero-dependency (stdlib-only) subsystem giving every layer of the
library one way to answer "what did the hot path just do":

* :mod:`repro.obs.registry` — named metric families (``Counter``,
  ``Gauge``, log-bucketed ``Histogram``) with Prometheus-style labels;
* :mod:`repro.obs.trace` — nested span timing over a monotonic clock,
  exported as JSON-lines from a bounded ring buffer;
* :mod:`repro.obs.profile` — opt-in cProfile hooks with top-N dumps.

The process holds one global :class:`Observability` context.  It starts
*disabled* — registry and tracer are inert singletons, so instrumented
code costs one attribute access per site — and is switched on with

>>> from repro.obs import configure, ObsConfig
>>> obs = configure(ObsConfig(enabled=True))

or, through the runtime, by handing ``RuntimeConfig(obs=ObsConfig(
enabled=True))`` to :func:`repro.runtime.loop.run_closed_loop` — the
one knob the ISSUE's "threaded through the runtime" contract names.

Instrumented call sites follow one pattern::

    o = get_obs()
    if o.enabled:
        o.registry.counter("repro_solves_total").inc()
    with o.tracer.span("solve", n=n):     # no-op CM when disabled
        ...

Sites that record on every task or event hold a :class:`MetricHandle`
instead, so the family and label lookup happens once, not per record::

    ROUTES = MetricHandle("counter", "repro_routes_total", labels=("outcome",))
    ROUTES.child(o.registry, "routed").inc()

Metric names, span taxonomy, and the JSONL schema are catalogued in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from .config import ConfigBase, ObsConfig
from .profile import NullProfile, ProfileReport, profile
from .registry import (
    NULL_METRIC,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricHandle,
    MetricsRegistry,
    NullMetric,
    NullRegistry,
    ObsError,
    log_bucket_edges,
)
from .trace import NULL_SPAN, NULL_TRACER, NullSpan, NullTracer, Span, Tracer

__all__ = [
    "ObsError",
    "ConfigBase",
    "ObsConfig",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricHandle",
    "MetricsRegistry",
    "NullMetric",
    "NullRegistry",
    "NULL_METRIC",
    "NULL_REGISTRY",
    "log_bucket_edges",
    "Span",
    "Tracer",
    "NullSpan",
    "NullTracer",
    "NULL_SPAN",
    "NULL_TRACER",
    "profile",
    "ProfileReport",
    "NullProfile",
    "Observability",
    "get_obs",
    "configure",
    "reset_obs",
]


class Observability:
    """One bundle of (config, registry, tracer) — the obs context.

    Attributes
    ----------
    config:
        The :class:`ObsConfig` this context realizes.
    registry:
        A live :class:`MetricsRegistry`, or :data:`NULL_REGISTRY`.
    tracer:
        A live :class:`Tracer`, or :data:`NULL_TRACER`.
    """

    __slots__ = ("config", "registry", "tracer")

    def __init__(self, config: ObsConfig, registry, tracer) -> None:
        self.config = config
        self.registry = registry
        self.tracer = tracer

    @property
    def enabled(self) -> bool:
        """Whether this context records anything at all."""
        return self.config.enabled

    @classmethod
    def disabled(cls) -> "Observability":
        """The inert context (no-op registry and tracer)."""
        return cls(ObsConfig(), NULL_REGISTRY, NULL_TRACER)

    @classmethod
    def from_config(cls, config: ObsConfig) -> "Observability":
        """Build a context realizing ``config``."""
        if not config.enabled:
            return cls(config, NULL_REGISTRY, NULL_TRACER)
        registry = MetricsRegistry() if config.metrics else NULL_REGISTRY
        tracer = (
            Tracer(capacity=config.trace_capacity) if config.trace else NULL_TRACER
        )
        return cls(config, registry, tracer)

    def profile(self, top_n: int | None = None, sort: str = "cumulative"):
        """Config-gated profiling region.

        Returns a live :class:`profile` context manager when this
        context is enabled with ``profile=True``, else a no-op whose
        report has ``enabled=False`` — callers wrap unconditionally::

            with get_obs().profile() as report:
                hot_loop()
            if report.enabled:
                print(report.text)
        """
        if not (self.enabled and self.config.profile):
            return NullProfile()
        return profile(
            top_n=self.config.profile_top if top_n is None else top_n, sort=sort
        )


_GLOBAL: Observability = Observability.disabled()


def get_obs() -> Observability:
    """The process-global observability context."""
    return _GLOBAL


def configure(config: ObsConfig | Observability) -> Observability:
    """Install (and return) a new global observability context.

    Accepts either an :class:`ObsConfig` (a fresh context is built from
    it) or a pre-built :class:`Observability`.  Instrumented code reads
    the global at call time, so reconfiguration takes effect for every
    subsequent operation; components that cached the old context (the
    online runtime caches at construction) keep their snapshot.
    """
    global _GLOBAL
    if isinstance(config, Observability):
        _GLOBAL = config
    elif isinstance(config, ObsConfig):
        _GLOBAL = Observability.from_config(config)
    else:
        raise ObsError(
            f"configure takes ObsConfig or Observability, got {type(config).__name__}"
        )
    return _GLOBAL


def reset_obs() -> Observability:
    """Restore the disabled global context (test isolation)."""
    return configure(Observability.disabled())
