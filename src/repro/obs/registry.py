"""Metrics registry: counters, gauges, and log-bucketed histograms.

Zero-dependency (stdlib only) so the hot paths in :mod:`repro.core` can
record into it without dragging numpy into the no-op path.  The design
follows the Prometheus client-library shape — named *families* that may
carry label dimensions, children addressed by label values — but stays
deliberately tiny:

* :class:`Counter` — monotonic ``inc``;
* :class:`Gauge` — ``set``/``inc``/``dec``;
* :class:`Histogram` — fixed bucket layout chosen at creation time
  (log-spaced by default, because solver latencies and response times
  span orders of magnitude), with underflow/overflow bins, a running
  sum, and conservative bin-edge quantiles;
* :class:`MetricsRegistry` — get-or-create families by name, with a
  ``collect()``/``to_dict()`` export any scraper or JSON artifact can
  consume.

Everything is O(1) per observation.  When observability is disabled the
process-global registry is :data:`NULL_REGISTRY`, whose metrics are a
shared inert singleton — recording into it is a no-op attribute call,
which is what keeps the disabled overhead near zero.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterator, Mapping, Sequence

__all__ = [
    "ObsError",
    "Counter",
    "Gauge",
    "Histogram",
    "log_bucket_edges",
    "MetricFamily",
    "MetricsRegistry",
    "MetricHandle",
    "NullMetric",
    "NullRegistry",
    "NULL_METRIC",
    "NULL_REGISTRY",
]


class ObsError(ValueError):
    """Invalid observability-layer usage (bad names, labels, buckets)."""


def log_bucket_edges(lo: float, hi: float, buckets: int) -> tuple[float, ...]:
    """``buckets + 1`` logarithmically spaced edges over ``[lo, hi]``.

    The layout is fixed at histogram creation — identical across
    processes and runs for the same parameters, so bucketed exports are
    directly comparable between benchmark baselines.
    """
    if not (0.0 < lo < hi and math.isfinite(lo) and math.isfinite(hi)):
        raise ObsError(f"need 0 < lo < hi finite, got {lo!r}, {hi!r}")
    if buckets < 1:
        raise ObsError(f"buckets must be >= 1, got {buckets}")
    ratio = hi / lo
    return tuple(lo * ratio ** (k / buckets) for k in range(buckets + 1))


class Counter:
    """Monotonically increasing event count."""

    __slots__ = ("_value",)
    kind = "counter"

    def __init__(self) -> None:
        self._value = 0.0

    @property
    def value(self) -> float:
        """The current count."""
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0, not NaN) to the count."""
        if not amount >= 0.0:
            raise ObsError(f"counters only go up; got inc({amount!r})")
        self._value += amount

    def snapshot(self) -> dict:
        """Plain-dict sample (JSON-serializable)."""
        return {"value": self._value}


class Gauge:
    """A value that can go up and down (fractions, states, levels)."""

    __slots__ = ("_value",)
    kind = "gauge"

    def __init__(self) -> None:
        self._value = 0.0

    @property
    def value(self) -> float:
        """The last value set."""
        return self._value

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the gauge."""
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self._value -= amount

    def snapshot(self) -> dict:
        """Plain-dict sample (JSON-serializable)."""
        return {"value": self._value}


class Histogram:
    """Fixed-layout histogram with log-spaced buckets by default.

    Values below ``edges[0]`` land in the underflow bin, values at or
    above ``edges[-1]`` in the overflow bin, so no observation is ever
    dropped; ``bucket_counts`` has ``len(edges) + 1`` entries
    (underflow first, overflow last).  A running sum and count make the
    mean exact even though per-bucket resolution is one bin.
    """

    __slots__ = ("edges", "_counts", "_sum", "_count")
    kind = "histogram"

    def __init__(
        self,
        *,
        lo: float = 1e-6,
        hi: float = 1e3,
        buckets: int = 54,
        edges: Sequence[float] | None = None,
    ) -> None:
        if edges is not None:
            edges = tuple(float(e) for e in edges)
            if len(edges) < 2 or any(
                b <= a for a, b in zip(edges, edges[1:])
            ):
                raise ObsError(
                    f"edges must be >= 2 strictly increasing values, got {edges!r}"
                )
            self.edges = edges
        else:
            self.edges = log_bucket_edges(lo, hi, buckets)
        self._counts = [0] * (len(self.edges) + 1)
        self._sum = 0.0
        self._count = 0

    @property
    def count(self) -> int:
        """Number of observations recorded."""
        return self._count

    @property
    def sum(self) -> float:
        """Exact sum of all observed values."""
        return self._sum

    @property
    def mean(self) -> float:
        """Exact mean of all observed values (nan when empty)."""
        return self._sum / self._count if self._count else math.nan

    @property
    def bucket_counts(self) -> tuple[int, ...]:
        """Per-bin counts, underflow first and overflow last."""
        return tuple(self._counts)

    def observe(self, value: float) -> None:
        """Record one observation (NaN is refused: it has no bin)."""
        if value != value:
            raise ObsError("histograms refuse NaN observations")
        self._counts[bisect_right(self.edges, value)] += 1
        self._sum += value
        self._count += 1

    def quantile(self, q: float) -> float:
        """Conservative quantile: upper edge of the bin holding it.

        Resolution is one bucket; underflow resolves to ``edges[0]``
        and overflow to ``edges[-1]``.
        """
        if not (0.0 < q < 1.0):
            raise ObsError(f"q must be in (0, 1), got {q!r}")
        if self._count == 0:
            raise ObsError("quantile of an empty histogram")
        target = q * self._count
        cum = 0
        for i, c in enumerate(self._counts):
            cum += c
            if cum >= target:
                # Bin i spans edges[i-1]..edges[i]; underflow (i = 0)
                # resolves to edges[0], overflow to edges[-1].
                return self.edges[min(i, len(self.edges) - 1)]
        return self.edges[-1]

    def snapshot(self) -> dict:
        """Plain-dict sample (JSON-serializable)."""
        return {
            "count": self._count,
            "sum": self._sum,
            "edges": list(self.edges),
            "buckets": list(self._counts),
        }


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric with optional label dimensions.

    With ``labels=()`` the family *is* its single child: ``inc``,
    ``set``, ``observe``, ``value`` and friends delegate to it.  With
    label names, :meth:`labels` returns (get-or-create) the child for a
    concrete label-value combination.
    """

    __slots__ = ("name", "help", "kind", "label_names", "_children", "_kwargs")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        label_names: Sequence[str] = (),
        **kwargs,
    ) -> None:
        if not name or not all(c.isalnum() or c == "_" for c in name):
            raise ObsError(
                f"metric names are [A-Za-z0-9_]+, got {name!r}"
            )
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self._kwargs = kwargs
        self._children: dict[tuple, Counter | Gauge | Histogram] = {}
        if not self.label_names:
            self._children[()] = _METRIC_TYPES[kind](**kwargs)

    def labels(self, **label_values):
        """The child metric for one concrete label combination."""
        if set(label_values) != set(self.label_names):
            raise ObsError(
                f"{self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(label_values))}"
            )
        key = tuple(str(label_values[k]) for k in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _METRIC_TYPES[self.kind](**self._kwargs)
        return child

    # -- unlabeled passthrough ---------------------------------------------------------

    def _solo(self):
        if self.label_names:
            raise ObsError(
                f"{self.name} has labels {self.label_names}; call .labels() first"
            )
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        """Unlabeled passthrough to the single child's ``inc``."""
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Unlabeled passthrough to the single child's ``dec``."""
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        """Unlabeled passthrough to the single child's ``set``."""
        self._solo().set(value)

    def observe(self, value: float) -> None:
        """Unlabeled passthrough to the single child's ``observe``."""
        self._solo().observe(value)

    @property
    def value(self) -> float:
        """Unlabeled passthrough to the single child's ``value``."""
        return self._solo().value

    @property
    def count(self) -> int:
        """Unlabeled passthrough to the single histogram's ``count``."""
        return self._solo().count

    @property
    def sum(self) -> float:
        """Unlabeled passthrough to the single histogram's ``sum``."""
        return self._solo().sum

    @property
    def mean(self) -> float:
        """Unlabeled passthrough to the single histogram's ``mean``."""
        return self._solo().mean

    @property
    def bucket_counts(self) -> tuple[int, ...]:
        """Unlabeled passthrough to the single histogram's bins."""
        return self._solo().bucket_counts

    @property
    def edges(self) -> tuple[float, ...]:
        """Unlabeled passthrough to the single histogram's edges."""
        return self._solo().edges

    def quantile(self, q: float) -> float:
        """Unlabeled passthrough to the single histogram's quantile."""
        return self._solo().quantile(q)

    @property
    def child(self):
        """The single child of an unlabeled family."""
        return self._solo()

    def items(self) -> Iterator[tuple[dict, Counter | Gauge | Histogram]]:
        """Yield ``(label-mapping, child)`` for every materialized child."""
        for key, child in self._children.items():
            yield dict(zip(self.label_names, key)), child

    def values_by_label(self) -> dict[tuple, float | int]:
        """Map of label-value tuples to scalar values (counter/gauge)."""
        return {key: child.value for key, child in self._children.items()}

    def snapshot(self) -> dict:
        """Plain-dict sample of the whole family (JSON-serializable)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "labels": list(self.label_names),
            "series": [
                {"labels": labels, **child.snapshot()}
                for labels, child in self.items()
            ],
        }


class MetricsRegistry:
    """Get-or-create store of :class:`MetricFamily` objects by name.

    Re-requesting an existing name returns the same family (the kind
    and label names must match — a mismatch is a programming error and
    raises).  ``collect()``/``to_dict()`` export every family for
    scrapers, JSONL artifacts, and tests.
    """

    enabled = True

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        #: Bumped by :meth:`reset`; a :class:`MetricHandle` re-resolves
        #: its children when it changes.
        self.epoch = 0

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __iter__(self) -> Iterator[MetricFamily]:
        return iter(self._families.values())

    def __len__(self) -> int:
        return len(self._families)

    def _get_or_create(
        self, name: str, kind: str, help: str, labels: Sequence[str], **kwargs
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.label_names != tuple(labels):
                raise ObsError(
                    f"metric {name!r} already registered as {family.kind} "
                    f"with labels {family.label_names}; requested {kind} "
                    f"with labels {tuple(labels)}"
                )
            return family
        family = MetricFamily(name, kind, help, labels, **kwargs)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Get or create a counter family."""
        return self._get_or_create(name, "counter", help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Get or create a gauge family."""
        return self._get_or_create(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        *,
        lo: float = 1e-6,
        hi: float = 1e3,
        buckets: int = 54,
        edges: Sequence[float] | None = None,
    ) -> MetricFamily:
        """Get or create a histogram family with a fixed bucket layout."""
        return self._get_or_create(
            name, "histogram", help, labels, lo=lo, hi=hi, buckets=buckets, edges=edges
        )

    def get(self, name: str) -> MetricFamily | None:
        """The family registered under ``name``, or ``None``."""
        return self._families.get(name)

    def collect(self) -> list[dict]:
        """Snapshot every family, sorted by name."""
        return [
            self._families[name].snapshot() for name in sorted(self._families)
        ]

    def to_dict(self) -> dict:
        """``{"metrics": [family snapshots...]}`` for JSON artifacts."""
        return {"metrics": self.collect()}

    def reset(self) -> None:
        """Drop every family (tests and between-run isolation)."""
        self._families.clear()
        self.epoch += 1

    def restore_snapshot(self, families: list[dict]) -> None:
        """Load a :meth:`collect` snapshot back into this registry.

        Families present in the snapshot are created if missing (for
        histograms the recorded edges fix the bucket layout) and every
        recorded series overwrites the matching child's state.  Families
        already registered but absent from the snapshot are left alone —
        a restore happens into a freshly built runtime whose accumulators
        pre-register their families at construction.
        """
        for fam_snap in families:
            name = fam_snap["name"]
            kind = fam_snap["kind"]
            labels = tuple(fam_snap.get("labels", ()))
            kwargs = {}
            if kind == "histogram":
                series = fam_snap.get("series", [])
                if series:
                    kwargs["edges"] = tuple(series[0]["edges"])
            family = self._get_or_create(
                name, kind, fam_snap.get("help", ""), labels, **kwargs
            )
            for sample in fam_snap.get("series", []):
                label_values = sample.get("labels", {})
                child = family.labels(**label_values) if labels else family.child
                if kind == "histogram":
                    if tuple(sample["edges"]) != tuple(child.edges):
                        raise ObsError(
                            f"histogram {name!r} bucket layout changed; "
                            "cannot restore snapshot"
                        )
                    child._counts = [int(c) for c in sample["buckets"]]
                    child._sum = float(sample["sum"])
                    child._count = int(sample["count"])
                else:
                    child._value = float(sample["value"])


class MetricHandle:
    """One family's children, resolved once and kept for hot paths.

    A hot path records into the same few children on every event.  A
    handle resolves ``registry.<kind>(name, ...)`` and ``.labels(...)``
    the first time it sees a label combination and keeps the child, so
    later calls cost one dict lookup.  It resolves again when handed a
    different registry or after that registry's
    :meth:`~MetricsRegistry.reset`, so a kept child is never orphaned
    from the family :meth:`~MetricsRegistry.collect` reports; a
    :meth:`~MetricsRegistry.restore_snapshot` writes into the existing
    children in place.  Label values are positional, in the order of
    ``labels``.
    """

    __slots__ = (
        "kind",
        "name",
        "help",
        "label_names",
        "_kwargs",
        "_registry",
        "_epoch",
        "_family",
        "_children",
    )

    def __init__(
        self, kind: str, name: str, help: str = "", labels: Sequence[str] = (), **kwargs
    ) -> None:
        if kind not in _METRIC_TYPES:
            raise ObsError(f"unknown metric kind {kind!r}")
        self.kind = kind
        self.name = name
        self.help = help
        self.label_names = tuple(labels)
        self._kwargs = kwargs
        self._registry = None
        self._epoch = -1
        self._family = None
        self._children: dict[tuple, object] = {}

    def family(self, registry: "MetricsRegistry") -> MetricFamily:
        """The family in ``registry`` (registered on first use)."""
        if registry is not self._registry or registry.epoch != self._epoch:
            self._family = getattr(registry, self.kind)(
                self.name, self.help, self.label_names, **self._kwargs
            )
            self._registry = registry
            self._epoch = registry.epoch
            self._children = {}
        return self._family

    def child(self, registry: "MetricsRegistry", *values):
        """The child for label ``values`` in ``registry``."""
        if registry is not self._registry or registry.epoch != self._epoch:
            self.family(registry)
        child = self._children.get(values)
        if child is None:
            child = self._children[values] = self._family.labels(
                **dict(zip(self.label_names, values))
            )
        return child


class NullMetric:
    """Inert metric: every recording call is a no-op, ``value`` is 0.

    A single shared instance stands in for every counter, gauge,
    histogram, *and* family of the :class:`NullRegistry`, so disabled
    instrumentation costs one attribute call and nothing else.
    """

    __slots__ = ()
    kind = "null"
    edges: tuple[float, ...] = ()
    label_names: tuple[str, ...] = ()

    def labels(self, **label_values) -> "NullMetric":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0

    @property
    def sum(self) -> float:
        return 0.0

    def items(self):
        return iter(())

    def snapshot(self) -> dict:
        return {}


NULL_METRIC = NullMetric()


class NullRegistry(MetricsRegistry):
    """Registry whose every family is the shared :data:`NULL_METRIC`."""

    enabled = False

    def _get_or_create(self, name, kind, help, labels, **kwargs):  # noqa: ARG002
        return NULL_METRIC

    def collect(self) -> list[dict]:
        return []

    def restore_snapshot(self, families: list[dict]) -> None:  # noqa: ARG002
        """No-op: a null registry holds no state to restore into."""


NULL_REGISTRY = NullRegistry()
