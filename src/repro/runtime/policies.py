"""State-aware routing policies behind a unified registry.

The static backends of :mod:`repro.runtime.router` realize the paper's
KKT-optimal split *in expectation*: every task is routed by the
long-run fractions alone, blind to the queues the previous decisions
built.  Gardner et al. 2020 (PAPERS.md) show that at heterogeneous
scale a little instantaneous state closes most of the remaining gap:

:class:`OptimalPriorPowerOfDRouter`
    Power-of-``d`` choices with the *optimal split as the sampling
    prior*: draw ``d`` candidate servers i.i.d. from the KKT fractions
    (Walker alias table over the positive-weight support, one buffered
    uniform per candidate), then send the task to the sampled candidate
    with the fewest tasks in flight.  ``d = 1`` degenerates to exactly
    the static alias policy; ``d = 2`` already captures most of the
    waiting-time reduction in light traffic (arXiv:1701.06004).

:class:`JoinIdleQueueRouter`
    Join-idle-queue: completions push their server onto an idle stack,
    arrivals pop it.  When no server is idle the router falls back to
    sampling the optimal prior, so the long-run split is preserved
    under load while idle capacity is always used first.

Both are O(1) per decision regardless of group size — the alias sample
is table lookups on buffered uniforms, the idle stack is push/pop — so
the dispatch hot path stays flat from n = 2 to n = 50 000
(``benchmarks/bench_dispatch.py`` gates on exactly that).

The registry (:func:`register_router` / :func:`build_router`) mirrors
the solver-method registry of :mod:`repro.core.solvers`: policies are
addressable by name through :class:`RoutingConfig`, out-of-tree
policies register themselves and become usable from
``RuntimeConfig(routing=RoutingConfig(policy="name"))``.

Queue-state contract
--------------------
``pick(state)`` receives the caller-maintained per-server in-flight
counts (generic tasks routed minus generic completions observed; see
:meth:`repro.runtime.loop.LoadDistributionRuntime.observe_completion`).
``on_completion(i)`` is how completion events reach a policy that keeps
internal state (the JIQ idle stack); stateless policies inherit a
no-op.  Policies whose registry entry sets ``state_aware=True`` make
the runtime journal completion events, so crash recovery replays the
queue-depth evolution bit-identically (see :mod:`repro.recovery`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from ..core.exceptions import ParameterError
from ..obs import ConfigBase, get_obs
from .router import (
    AliasTableRouter,
    SmoothWeightedRoundRobinRouter,
    _alias_tables,
    _normalize,
)

__all__ = [
    "RouterPolicy",
    "RoutingConfig",
    "RouterSpec",
    "register_router",
    "registered_routers",
    "available_routers",
    "router_spec",
    "build_router",
    "OptimalPriorPowerOfDRouter",
    "JoinIdleQueueRouter",
]


@runtime_checkable
class RouterPolicy(Protocol):
    """The widened routing protocol every policy implements.

    Supersedes :class:`repro.runtime.router.WeightedRouter` (which
    remains as its stateless subset): ``pick`` takes the live
    per-server queue state, ``on_completion`` delivers completion
    events, and the ``state_dict``/``load_state`` pair makes every
    policy checkpointable (PR 5 recovery compatibility).
    """

    def pick(self, state: Sequence[int] | None = None) -> int:
        """Destination of the next task, given per-server in-flight counts."""
        ...

    def on_completion(self, server: int) -> None:
        """A generic task finished on ``server`` (no-op for static policies)."""
        ...

    def set_weights(self, weights: Sequence[float]) -> None:
        """Replace the weight vector (same length, sum > 0)."""
        ...

    @property
    def weights(self) -> np.ndarray:
        """The current normalized weights."""
        ...

    def state_dict(self) -> dict:
        """JSON-safe snapshot for checkpointing."""
        ...

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        ...


@dataclass(frozen=True, kw_only=True)
class RoutingConfig(ConfigBase):
    """The data-plane knob threaded through :class:`RuntimeConfig`.

    Keyword-only and frozen; round-trips through ``to_dict()`` /
    ``from_dict()`` like every config in the library.  The policy name
    is resolved against the router registry when the runtime is built,
    so configs naming out-of-tree policies are valid as long as the
    policy is registered before the runtime starts.

    Attributes
    ----------
    policy:
        Registered policy name: ``"swrr"`` / ``"wrr"`` (smooth weighted
        round-robin), ``"alias"`` (static alias-table sampling),
        ``"pod"`` (optimal-prior power-of-``d``), ``"jiq"``
        (join-idle-queue), or any name added via
        :func:`register_router`.
    d:
        Candidates sampled per decision by ``"pod"`` (ignored by the
        other built-ins).  ``d = 1`` is exactly the static prior.
    """

    policy: str = "swrr"
    d: int = 2

    def __post_init__(self) -> None:
        if not self.policy:
            raise ParameterError("routing policy name must be non-empty")
        if self.d < 1:
            raise ParameterError(f"d must be >= 1, got {self.d}")


# ---------------------------------------------------------------------------
# Optimal-prior sampling (shared by pod and the jiq fallback)
# ---------------------------------------------------------------------------


class _AliasPrior:
    """O(1) sampler of the optimal split over its positive support.

    Structural zero-weight exclusion: the alias table is built over the
    indices with ``w > 0`` only and samples are mapped back through the
    support array, so a dead (zero-weight) server can never be drawn —
    no reliance on rejection arithmetic.  One uniform drives each
    sample (``u*k -> slot, frac -> accept``), and uniforms are drawn in
    buffered batches from the owning runtime's router stream, which
    amortizes the generator call to a few nanoseconds per decision.

    The unconsumed buffer tail is part of :meth:`state_dict`: a
    restored sampler must replay the exact uniforms the crashed one
    would have consumed (the generator state alone checkpoints mid-
    batch, not mid-buffer).
    """

    BUFFER = 1024

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._buf: list[float] = []
        self._pos = 0

    def rebuild(self, weights: np.ndarray) -> None:
        support = np.flatnonzero(weights > 0.0)
        w = weights[support]
        prob, alias = _alias_tables(w / w.sum())
        self._support = [int(i) for i in support]
        self._prob = [float(p) for p in prob]
        self._alias = [int(a) for a in alias]
        self._size = len(self._support)

    def sample(self) -> int:
        pos = self._pos
        buf = self._buf
        if pos >= len(buf):
            buf = self._rng.random(self.BUFFER).tolist()
            self._buf = buf
            pos = 0
        self._pos = pos + 1
        scaled = buf[pos] * self._size
        k = int(scaled)
        if k >= self._size:  # u ~ 1 - ulp at large sizes
            k = self._size - 1
        if scaled - k >= self._prob[k]:
            k = self._alias[k]
        return self._support[k]

    def state_dict(self) -> dict:
        return {"u_buffer": self._buf[self._pos :]}

    def load_state(self, state: dict) -> None:
        self._buf = [float(u) for u in state["u_buffer"]]
        self._pos = 0


# ---------------------------------------------------------------------------
# State-aware policies
# ---------------------------------------------------------------------------


class OptimalPriorPowerOfDRouter:
    """JSQ(``d``) with the KKT-optimal split as the sampling prior.

    Each decision samples ``d`` candidates i.i.d. from the current
    weights and routes to the candidate with the smallest caller-
    supplied in-flight count (first-sampled wins ties, so a fixed
    uniform stream yields a fixed pick sequence).  With ``state=None``
    (no queue information) the first candidate is returned, which is
    exactly the static alias policy.

    Queue state lives with the caller — the runtime maintains one
    in-flight vector for all policies — so ``on_completion`` is a
    no-op here and the policy itself checkpoints only its weights,
    ``d``, and the unconsumed uniform buffer.
    """

    def __init__(
        self,
        weights: Sequence[float],
        rng: np.random.Generator,
        d: int = 2,
    ) -> None:
        if int(d) < 1:
            raise ParameterError(f"d must be >= 1, got {d}")
        self._d = int(d)
        self._weights = _normalize(weights, None)
        self._prior = _AliasPrior(rng)
        self._prior.rebuild(self._weights)

    @property
    def weights(self) -> np.ndarray:
        return self._weights.copy()

    @property
    def d(self) -> int:
        """Candidates sampled per decision."""
        return self._d

    def set_weights(self, weights: Sequence[float]) -> None:
        self._weights = _normalize(weights, self._weights.size)
        self._prior.rebuild(self._weights)

    def pick(self, state: Sequence[int] | None = None) -> int:
        # The alias sampling is inlined (rather than d calls into
        # _AliasPrior.sample) to keep the amortized per-pick cost
        # sub-microsecond at n = 50k: at this scale the method-call
        # round trips dominate the arithmetic.
        prior = self._prior
        buf = prior._buf
        pos = prior._pos
        need = 1 if state is None else self._d
        if pos + need > len(buf):
            # Refill in one batch; any unconsumed tail is discarded
            # (deterministically — replay makes the same decision from
            # the same remaining count).
            buf = prior._rng.random(prior.BUFFER).tolist()
            prior._buf = buf
            pos = 0
        size = prior._size
        prob = prior._prob
        alias = prior._alias
        support = prior._support

        scaled = buf[pos] * size
        pos += 1
        k = int(scaled)
        if k >= size:  # u ~ 1 - ulp at large sizes
            k = size - 1
        if scaled - k >= prob[k]:
            k = alias[k]
        best = support[k]
        if state is None:
            prior._pos = pos
            return best
        best_depth = state[best]
        for _ in range(need - 1):
            scaled = buf[pos] * size
            pos += 1
            k = int(scaled)
            if k >= size:
                k = size - 1
            if scaled - k >= prob[k]:
                k = alias[k]
            cand = support[k]
            depth = state[cand]
            if depth < best_depth:
                best = cand
                best_depth = depth
        prior._pos = pos
        return best

    def on_completion(self, server: int) -> None:
        pass  # queue state is maintained by the caller

    def state_dict(self) -> dict:
        return {
            "backend": "pod",
            "weights": [float(w) for w in self._weights],
            "d": self._d,
            "prior": self._prior.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        self._weights = _normalize(state["weights"], None)
        self._d = int(state["d"])
        self._prior.rebuild(self._weights)
        self._prior.load_state(state["prior"])


class JoinIdleQueueRouter:
    """Join-idle-queue over the optimal prior.

    Completions push their (positive-weight) server onto an idle stack;
    arrivals pop the most recently idled server.  When the stack is
    empty — every server busy — the policy falls back to sampling the
    optimal split, so the heavy-traffic behaviour degrades gracefully
    to the static policy instead of herding onto one server.

    The per-server busy counts are kept *internally* (incremented on
    pick, decremented by :meth:`on_completion`), which makes the policy
    self-contained: it works standalone, in the flat runtime, and in a
    shard runtime that forwards completions by local index.  Stack
    entries are validated on pop (still idle, still positive weight),
    so weight changes never route to a drained server.
    """

    def __init__(
        self, weights: Sequence[float], rng: np.random.Generator
    ) -> None:
        self._weights = _normalize(weights, None)
        self._prior = _AliasPrior(rng)
        self._prior.rebuild(self._weights)
        n = self._weights.size
        self._counts = [0] * n
        self._on_stack = bytearray(n)
        self._stack: list[int] = []
        #: Picks answered by the alias prior because the idle stack was
        #: empty (every server busy) — the saturation-fallback count.
        self.fallbacks = 0
        for i in range(n):
            if self._weights[i] > 0.0:
                self._stack.append(i)
                self._on_stack[i] = 1

    @property
    def weights(self) -> np.ndarray:
        return self._weights.copy()

    @property
    def idle_servers(self) -> tuple[int, ...]:
        """Current idle-stack contents, bottom to top (for inspection)."""
        return tuple(self._stack)

    def set_weights(self, weights: Sequence[float]) -> None:
        self._weights = _normalize(weights, self._weights.size)
        self._prior.rebuild(self._weights)
        # A server revived by the new split (weight 0 -> positive) with
        # no tasks in flight is idle capacity; surface it immediately.
        for i in range(self._weights.size):
            if (
                self._weights[i] > 0.0
                and self._counts[i] == 0
                and not self._on_stack[i]
            ):
                self._stack.append(i)
                self._on_stack[i] = 1

    def pick(self, state: Sequence[int] | None = None) -> int:
        stack = self._stack
        while stack:
            i = stack.pop()
            self._on_stack[i] = 0
            if self._counts[i] == 0 and self._weights[i] > 0.0:
                self._counts[i] = 1
                return i
        # Saturation: every server is busy, so the pick degrades to the
        # static optimal split.  Counted — a high fallback rate means
        # the idle-queue signal has stopped carrying information.
        self.fallbacks += 1
        o = get_obs()
        if o.enabled:
            o.registry.counter(
                "repro_jiq_fallbacks_total",
                "JIQ picks answered by the alias prior (idle stack empty)",
            ).inc()
        i = self._prior.sample()
        self._counts[i] += 1
        return i

    def on_completion(self, server: int) -> None:
        i = int(server)
        count = self._counts[i]
        if count > 0:
            count -= 1
            self._counts[i] = count
        if count == 0 and not self._on_stack[i] and self._weights[i] > 0.0:
            self._stack.append(i)
            self._on_stack[i] = 1

    def state_dict(self) -> dict:
        return {
            "backend": "jiq",
            "weights": [float(w) for w in self._weights],
            "counts": list(self._counts),
            "stack": list(self._stack),
            "prior": self._prior.state_dict(),
            "fallbacks": int(self.fallbacks),
        }

    def load_state(self, state: dict) -> None:
        self._weights = _normalize(state["weights"], None)
        self._prior.rebuild(self._weights)
        self._prior.load_state(state["prior"])
        self.fallbacks = int(state.get("fallbacks", 0))
        self._counts = [int(c) for c in state["counts"]]
        if len(self._counts) != self._weights.size:
            raise ParameterError("in-flight counts do not match weights")
        self._stack = [int(i) for i in state["stack"]]
        self._on_stack = bytearray(self._weights.size)
        for i in self._stack:
            self._on_stack[i] = 1


# ---------------------------------------------------------------------------
# Policy registry (mirrors repro.core.solvers.register_method)
# ---------------------------------------------------------------------------

_Factory = Callable[..., RouterPolicy]


@dataclass(frozen=True)
class RouterSpec:
    """One registered routing policy.

    Attributes
    ----------
    name:
        The name accepted by ``RoutingConfig(policy=name)``.
    factory:
        ``factory(weights, rng, config) -> RouterPolicy`` building a
        fresh policy instance; ``config`` is the full
        :class:`RoutingConfig` so policies can read their own knobs.
    state_aware:
        Whether the policy's decisions depend on live queue state.
        State-aware policies make the runtime journal completion
        events so crash recovery can replay the queue-depth evolution.
    """

    name: str
    factory: _Factory
    state_aware: bool = False


_REGISTRY: dict[str, RouterSpec] = {}


def register_router(
    name: str,
    factory: _Factory,
    *,
    state_aware: bool = False,
    replace: bool = False,
) -> RouterSpec:
    """Register (or, with ``replace``, override) a routing policy.

    ``name`` becomes addressable via
    ``RuntimeConfig(routing=RoutingConfig(policy=name))``.
    """
    key = name.lower()
    if key in _REGISTRY and not replace:
        raise ParameterError(
            f"routing policy {name!r} is already registered; "
            f"pass replace=True to override"
        )
    spec = RouterSpec(name=key, factory=factory, state_aware=state_aware)
    _REGISTRY[key] = spec
    return spec


def registered_routers() -> dict[str, RouterSpec]:
    """Snapshot of the registry: ``{name: RouterSpec}``."""
    return dict(_REGISTRY)


def available_routers() -> tuple[str, ...]:
    """Sorted names accepted by ``RoutingConfig(policy=...)``."""
    return tuple(sorted(_REGISTRY))


def router_spec(policy: str) -> RouterSpec:
    """The :class:`RouterSpec` registered under ``policy`` (validating)."""
    spec = _REGISTRY.get(policy.lower())
    if spec is None:
        raise ParameterError(
            f"unknown routing policy {policy!r}; "
            f"available: {', '.join(available_routers())}"
        )
    return spec


def build_router(
    config: RoutingConfig,
    weights: Sequence[float],
    rng: np.random.Generator,
) -> RouterPolicy:
    """Build the policy named by ``config`` over ``weights``.

    The single construction funnel: the runtime, the checkpoint codec,
    and the shard dispatchers all come through here.
    """
    return router_spec(config.policy).factory(weights, rng, config)


# -- built-in policies ------------------------------------------------------


def _make_swrr(weights, rng, config) -> SmoothWeightedRoundRobinRouter:
    return SmoothWeightedRoundRobinRouter(weights)


def _make_alias(weights, rng, config) -> AliasTableRouter:
    return AliasTableRouter(weights, rng)


def _make_pod(weights, rng, config) -> OptimalPriorPowerOfDRouter:
    return OptimalPriorPowerOfDRouter(weights, rng, d=config.d)


def _make_jiq(weights, rng, config) -> JoinIdleQueueRouter:
    return JoinIdleQueueRouter(weights, rng)


register_router("swrr", _make_swrr)
register_router("wrr", _make_swrr)  # common alias for the same policy
register_router("alias", _make_alias)
register_router("pod", _make_pod, state_aware=True)
register_router("jiq", _make_jiq, state_aware=True)
