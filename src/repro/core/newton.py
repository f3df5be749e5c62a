"""Damped-Newton dual-ascent solver backend.

Every earlier backend reaches the paper's water-filling optimum by
derivative-free root-finding: nested bisection (`core/bisection.py`)
or Brent's method (`core/kkt.py`).  Yet the optimum is a KKT point of
a smooth convex program whose marginals are fully analytic
(`core/objective.py`), so both root-finding levels admit second-order
steps:

Inner problem (per server, at multiplier ``phi``)
    ``lambda'_i(phi)`` solves ``g_i(lambda) = phi`` where
    ``g_i(lambda) = (T'_i + rho'_i dT'_i/drho) / lambda'`` is the
    strictly increasing marginal cost.  Its analytic slope is

    .. math::

        g_i'(\\lambda) = \\frac{\\bar{x}_i}{m_i \\lambda'}
            \\left(2 \\frac{\\partial T'_i}{\\partial \\rho}
            + \\rho'_i \\frac{\\partial^2 T'_i}{\\partial \\rho^2}\\right)

    with the second derivative from
    :func:`repro.core.response.d2_generic_response_time_drho2`.  All
    ``n`` inner Newton iterates advance together as arrays (one batched
    kernel evaluation per sweep), each safeguarded by a per-server
    bracket: a step leaving its bracket falls back to the bracket
    midpoint, so progress is never worse than bisection while quadratic
    convergence holds near the root.

Outer problem (the dual multiplier)
    ``F(phi) = sum_i lambda'_i(phi)`` is continuous and non-decreasing;
    the budget equation ``F(phi) = lambda'`` is solved by Newton steps
    on ``phi`` using the analytic dual slope

    .. math::

        F'(\\phi) = \\sum_{i \\in \\text{free}} \\frac{1}{g_i'(\\lambda'_i(\\phi))}

    (parked and capacity-pinned servers contribute zero).  The step is
    safeguarded by the running ``(phi_lo, phi_hi)`` bracket; warm
    starts (``phi_hint`` from a neighbouring sweep point or the
    previous controller tick) typically land inside the quadratic basin
    and converge in a handful of outer iterations.

Both safeguards make the method exactly as robust as the bisection
backends — including the degenerate flat-marginal case, where ``F``
jumps across the root inside a multiplier window narrower than float
resolution and the endpoint rate vectors are interpolated
component-wise (the same repair the KKT backend applies).

One fused kernel (:func:`_sweep`) evaluates all ``n`` servers per
sweep with the scaled-recurrence / log-space math of
:mod:`repro.core.erlang` and :mod:`repro.core.response`;
:func:`p_zero_vec`, :func:`waiting_factor_vec`,
:func:`marginal_cost_vec` and :func:`marginal_cost_and_slope_vec` are
views of it.  Its phi-independent constants (:class:`ErlangConstants`)
are built once per solve.

Registered as ``method="newton"`` (warm-startable); the measured
speedups over the other backends are committed in
``BENCH_solver_scaling.json`` at the repo root.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from .bisection import DEFAULT_TOL, STABILITY_MARGIN, settle_residual
from .exceptions import ConvergenceError, ParameterError, SaturationError
from .response import Discipline
from .result import LoadDistributionResult
from .server import BladeServerGroup

__all__ = [
    "solve_newton",
    "marginal_cost_and_slope_vec",
    "marginal_cost_vec",
    "p_zero_vec",
    "waiting_factor_vec",
]

#: Inner Newton sweeps per outer iteration before declaring failure.
#: Safeguarded steps halve a bracket at worst, so ~60 sweeps resolve
#: any double-precision interval; Newton itself needs far fewer.
_MAX_INNER_SWEEPS = 120

#: Outer multiplier iterations before declaring failure.
_MAX_OUTER = 200

#: Normalizing sum ``1/p_0`` past which the kernel leaves the direct
#: formulas: they square ``p_0``, which underflows beyond ``~1e-154``.
_LOG_FRAME_AT = 1e150
#: ``log(m^m/m!)`` past which the direct formulas' ``C_m`` constants
#: overflow (``exp`` overflows at ~709.8).
_LOG_C_MAX = 700.0
#: Entries of one block of the ``(3, k, n)`` recurrence table; wide
#: groups are swept in column blocks so memory stays bounded.
_TABLE_BUDGET = 1 << 18


def _as_server_arrays(
    ms: Sequence[int], rhos: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Validate and coerce parallel (m, rho) arrays."""
    ms = np.asarray(ms, dtype=np.int64)
    rhos = np.asarray(rhos, dtype=float)
    if ms.ndim != 1 or ms.shape != rhos.shape:
        raise ParameterError(
            f"ms and rhos must be equal-length 1-D arrays, got shapes "
            f"{ms.shape} and {rhos.shape}"
        )
    if ms.size == 0:
        raise ParameterError("need at least one server")
    if np.any(ms < 1):
        raise ParameterError(f"server sizes must be >= 1, got {ms}")
    if np.any(~np.isfinite(rhos)) or np.any(rhos < 0.0):
        raise ParameterError(f"utilizations must be finite and >= 0, got {rhos}")
    if np.any(rhos >= 1.0):
        worst = float(rhos.max())
        raise SaturationError(
            f"M/M/m steady state requires rho < 1, got {worst}", rho=worst
        )
    return ms, rhos


class ErlangConstants:
    """The phi-independent per-server constants of the sweep kernel.

    Built once per solve from the blade counts; a sweep over the live
    subset of servers uses :meth:`take`.  ``log_c`` is
    ``log C_m = log(m^{m-1}/m!)`` and ``log_c1`` is ``log(m^m/m!)``.
    """

    __slots__ = ("ms", "mf", "log_c", "log_c1", "c", "c1")

    def __init__(self, ms: Sequence[int]) -> None:
        self.ms = np.asarray(ms, dtype=np.int64)
        self.mf = self.ms.astype(float)
        log_m = np.log(self.mf)
        lgam = gammaln(self.mf + 1.0)
        self.log_c = (self.mf - 1.0) * log_m - lgam
        self.log_c1 = self.mf * log_m - lgam
        with np.errstate(over="ignore"):
            self.c = np.exp(self.log_c)
            self.c1 = np.exp(self.log_c1)

    def take(self, idx: np.ndarray) -> "ErlangConstants":
        """The constants of the servers ``idx``."""
        out = object.__new__(ErlangConstants)
        for name in self.__slots__:
            setattr(out, name, getattr(self, name)[idx])
        return out


def _normalizing_sums(
    k: ErlangConstants, rho: np.ndarray
) -> tuple[np.ndarray, ...]:
    """``(T, S'_head, S''_head, L, frame)``: the Erlang head sums.

    ``p_0 = e^{-L} / T``; ``T`` holds the full normalizing sum (head
    plus tail) and the two head sums share its scale ``e^{-L}``.  The
    three term recurrences ``t_j = t_{j-1} a / j`` (``a = m rho``)
    differ only in their seeds ``1``, ``m`` and ``m^2``, so one factor
    table ``a/j`` feeds three sequential cumulative products and sums
    along the ``j`` axis, each read back at its server's stop row.
    Products and sums happen in the same order as a per-``j`` loop.

    Servers whose sum passes ``_LOG_FRAME_AT``, or whose ``C_m``
    overflows, are re-summed in log space with ``L`` the largest log
    term (``frame`` marks them, and ``L = 0`` everywhere else).
    """
    n = rho.size
    a = k.mf * rho
    total, s1, s2, shift = np.empty(n), np.empty(n), np.empty(n), np.zeros(n)
    frame = (rho > 0.0) & (k.log_c1 > _LOG_C_MAX)
    top = int(k.ms.max())
    steps = np.arange(1, top)[:, None]
    block = max(1, _TABLE_BUDGET // (3 * top))
    for lo in range(0, n, block):
        cut = slice(lo, lo + block)
        ms, mf = k.ms[cut], k.mf[cut]
        cols = np.arange(ms.size)
        t = np.empty((3, top, ms.size))
        t[0, 0], t[1, 0], t[2, 0] = 1.0, mf, mf * mf
        t[:, 1:] = a[cut] / steps
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply.accumulate(t, axis=1, out=t)
            last = t[0, ms - 1, cols]  # a^{m-1}/(m-1)!
            np.add.accumulate(t, axis=1, out=t)
            total[cut] = t[0, ms - 1, cols] + last * a[cut] / ms / (1.0 - rho[cut])
        s1[cut] = np.where(ms >= 2, t[1, np.maximum(ms - 2, 0), cols], 0.0)
        s2[cut] = np.where(ms >= 3, t[2, np.maximum(ms - 3, 0), cols], 0.0)
        frame[cut] |= (rho[cut] > 0.0) & ~(total[cut] <= _LOG_FRAME_AT)
        f = lo + np.flatnonzero(frame[cut])
        if f.size:
            total[f], s1[f], s2[f], shift[f] = _log_frame(k.ms[f], a[f], rho[f])
    return total, s1, s2, shift, frame


def _log_frame(ms: np.ndarray, a: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`_normalizing_sums` in log space, relative to the largest term.

    The terms ``a^j/j!`` are formed as ``exp(j log a - lgamma(j+1) - L)``
    with ``L`` the largest log term of ``1/p_0`` (head or tail), so no
    partial sum can overflow.
    """
    mf = ms.astype(float)
    rows = np.arange(int(ms.max()))[:, None]
    logs = rows * np.log(a) - gammaln(rows + 1.0)
    logs[rows >= ms] = -np.inf
    log_tail = mf * np.log(a) - gammaln(mf + 1.0) - np.log1p(-r)
    shift = np.maximum(logs.max(axis=0), log_tail)
    head = np.cumsum(np.exp(logs - shift), axis=0)
    cols = np.arange(ms.size)
    total = head[ms - 1, cols] + np.exp(log_tail - shift)
    s1 = np.where(ms >= 2, mf * head[np.maximum(ms - 2, 0), cols], 0.0)
    s2 = np.where(ms >= 3, mf * mf * head[np.maximum(ms - 3, 0), cols], 0.0)
    return total, s1, s2, shift


def _sweep(
    k: ErlangConstants, xbars: np.ndarray, rho: np.ndarray
) -> tuple[np.ndarray, ...]:
    """One fused kernel evaluation for all servers.

    Returns ``(p0, dp0, d2p0, w, dt, d2t)``: ``p_0`` and its first two
    ``rho``-derivatives (:func:`repro.core.erlang.dp_zero_drho`,
    :func:`~repro.core.erlang.d2p_zero_drho2`), the FCFS waiting factor
    ``W/xbar`` and the FCFS response-time derivatives
    ``dT'/drho``, ``d2T'/drho2``.  The priority discipline divides them
    by ``1 - rho''`` (see :func:`marginal_cost_and_slope_vec`).

    Direct servers use the closed forms of :mod:`repro.core.response`
    term for term.  Log-frame servers (see :func:`_normalizing_sums`)
    use ``x1 = p_0 S'`` and ``x2 = p_0 S''``, which the shared scale
    cancels out of, and form ``C_m p_0 rho^{m-j}`` in log space, so
    neither ``p_0^2`` underflow nor ``C_m`` overflow can reach them.
    """
    ms, mf = k.ms, k.mf
    total, s1, s2, shift, frame = _normalizing_sums(k, rho)
    p0 = np.exp(-shift) / total
    one = 1.0 - rho
    pos = rho > 0.0
    m1 = ms == 1
    sel = pos & ~m1
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_r = np.log(rho)
        lead1 = mf - (mf - 1.0) * rho
        tail = np.exp(k.log_c1 + (mf - 1.0) * log_r) * lead1 / one**2
        tail = np.where(m1, 1.0 / one**2, np.where(pos, tail, 0.0))
        dp0 = -p0 * p0 * (np.where(m1, 0.0, s1) + tail)
        tail1 = np.where(sel, k.c1 * rho ** (ms - 1) * lead1 / one**2, 0.0)
        tail2 = k.c1 * (
            mf * (mf - 1.0) * rho ** (ms - 2) / one
            + 2.0 * rho ** (ms - 1) * lead1 / one**3
        )
        # rho -> 0 limit of the S'' tail: c * m (m-1), nonzero only at
        # m = 2 (every other term carries a positive power of rho).
        at_zero = (rho == 0.0) & (ms == 2)
        tail2 = np.where(sel, tail2, np.where(at_zero, k.c1 * mf * (mf - 1.0), 0.0))
        sp = s1 + tail1
        spp = s2 + tail2
        d2p0 = np.where(m1, 0.0, p0 * p0 * (2.0 * p0 * sp * sp - spp))
        w = np.where(pos, p0 * np.exp(k.log_c + mf * log_r) / one**2, 0.0)
        lead = mf - (mf - 2.0) * rho
        h = rho**ms / one**2
        dh = rho ** (ms - 1) * lead / one**3
        d2h = (
            rho ** (ms - 2) * ((mf - 1.0) * lead - (mf - 2.0) * rho) / one**3
            + 3.0 * rho ** (ms - 1) * lead / one**4
        )
        dt = xbars * k.c * (
            dp0 * rho**ms / one**2 + p0 * rho ** (ms - 1) * lead / one**3
        )
        dt = np.where(pos, dt, np.where(m1, xbars, 0.0))
        d2t = xbars * k.c * (d2p0 * h + 2.0 * dp0 * dh + p0 * d2h)
        d2t = np.where(
            m1,
            2.0 * xbars / one**3,
            np.where(sel, d2t, np.where(at_zero, 2.0 * xbars, 0.0)),
        )
    if frame.any():
        f = frame
        mf, r, o, xb = mf[f], rho[f], one[f], xbars[f]
        log_r = log_r[f]
        scale = 1.0 / total[f]
        log_p0 = -shift[f] - np.log(total[f])
        e1 = np.exp(k.log_c1[f] + (mf - 1.0) * log_r - shift[f])
        e2 = np.exp(k.log_c1[f] + (mf - 2.0) * log_r - shift[f])
        x1 = scale * (s1[f] + e1 * lead1[f] / o**2)
        x2 = scale * (
            s2[f] + e2 * mf * (mf - 1.0) / o + 2.0 * e1 * lead1[f] / o**3
        )
        q0, q1, q2 = (np.exp(k.log_c[f] + (mf - j) * log_r + log_p0) for j in range(3))
        curv = 2.0 * x1 * x1 - x2
        lead = lead[f]
        dp0[f] = -p0[f] * x1
        d2p0[f] = p0[f] * curv
        w[f] = q0 / o**2
        dt[f] = xb * (q1 * lead / o**3 - q0 * x1 / o**2)
        d2t[f] = xb * (
            q0 * curv / o**2
            - 2.0 * q1 * x1 * lead / o**3
            + q2 * ((mf - 1.0) * lead - (mf - 2.0) * r) / o**3
            + 3.0 * q1 * lead / o**4
        )
    return p0, dp0, d2p0, w, dt, d2t


def p_zero_vec(ms: Sequence[int], rhos: Sequence[float]) -> np.ndarray:
    """Empty-system probabilities ``p_{i,0}`` for all servers at once.

    Batched :func:`repro.core.erlang.p_zero`: the same scaled term
    recurrence, with a log-space frame past ``1/p_0 = 1e150``, so
    thousands of blades per server neither overflow nor lose precision.
    """
    ms, rhos = _as_server_arrays(ms, rhos)
    total, _, _, shift, _ = _normalizing_sums(ErlangConstants(ms), rhos)
    return np.exp(-shift) / total


def waiting_factor_vec(ms: Sequence[int], rhos: Sequence[float]) -> np.ndarray:
    """Non-priority waiting terms ``W_i / xbar_i`` for all servers at once.

    Batched :func:`repro.core.response.waiting_factor`: the
    ``m^{m-1}/m! * rho^m`` shape factor is evaluated in log space
    (``gammaln`` instead of factorials).
    """
    ms, rhos = _as_server_arrays(ms, rhos)
    return _sweep(ErlangConstants(ms), np.ones(rhos.size), rhos)[3]


def marginal_cost_vec(
    ms: Sequence[int],
    xbars: Sequence[float],
    special_rates: Sequence[float],
    generic_rates: Sequence[float],
    total_rate: float,
    discipline: Discipline | str = Discipline.FCFS,
) -> np.ndarray:
    """Batched paper marginal costs ``dT'/d lambda'_i`` (Eq. (1) LHS).

    Evaluates :func:`repro.core.objective.marginal_cost` for every
    server in one NumPy pass; agrees with the scalar implementation to
    floating-point round-off on the stability region and raises
    :class:`~repro.core.exceptions.SaturationError` when any server is
    at or beyond ``rho_i = 1``.
    """
    if not (math.isfinite(total_rate) and total_rate > 0.0):
        raise ParameterError(f"total_rate must be > 0, got {total_rate!r}")
    xbars = np.asarray(xbars, dtype=float)
    specials = np.asarray(special_rates, dtype=float)
    lams = np.asarray(generic_rates, dtype=float)
    if np.any(lams < 0.0):
        raise ParameterError("generic rates must be >= 0")
    ms = np.asarray(ms, dtype=np.int64)
    _as_server_arrays(ms, (lams + specials) * xbars / ms)
    return marginal_cost_and_slope_vec(
        ms, xbars, specials, lams, total_rate, Discipline.coerce(discipline)
    )[0]


def marginal_cost_and_slope_vec(
    ms: np.ndarray | ErlangConstants,
    xbars: np.ndarray,
    specials: np.ndarray,
    lams: np.ndarray,
    total_rate: float,
    disc: Discipline,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched marginal costs ``g_i`` and their slopes ``g_i'``.

    ``ms`` is the blade counts, or their :class:`ErlangConstants` when
    the caller sweeps repeatedly.  One fused kernel sweep feeds the
    response time, both response-time derivatives, and hence both
    outputs:

    * ``g_i = (T'_i + rho'_i dT'_i/drho) / lambda'`` — identical to
      :func:`marginal_cost_vec`;
    * ``g_i' = (xbar_i/m_i) (2 dT'_i/drho + rho'_i d2T'_i/drho2)
      / lambda'`` — strictly positive on the stability region (``T'``
      is increasing and convex in ``rho``), which is what makes both
      Newton levels well-posed.
    """
    k = ms if isinstance(ms, ErlangConstants) else ErlangConstants(ms)
    mf = k.mf
    rho = (lams + specials) * xbars / mf
    rho_g = lams * xbars / mf
    _, _, _, w, dt, d2t = _sweep(k, xbars, rho)
    if disc is Discipline.PRIORITY:
        rest = 1.0 - specials * xbars / mf
        w = w / rest
        dt = np.where(rho > 0.0, dt / rest, dt)
        d2t = d2t / rest
    t = xbars * (1.0 + w)
    g = (t + rho_g * dt) / total_rate
    dg = (xbars / mf) * (2.0 * dt + rho_g * d2t) / total_rate
    return g, dg


def _inner_newton(
    k: ErlangConstants,
    xbars: np.ndarray,
    specials: np.ndarray,
    total_rate: float,
    phi: float | np.ndarray,
    disc: Discipline,
    tol: float,
    x0: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Safeguarded batched Newton on ``g_i(lambda) = phi``.

    All servers advance together; per-server brackets ``[lb_i, ub_i]``
    are tightened by every evaluation and any Newton step leaving its
    bracket is replaced by the bracket midpoint.  Returns the roots,
    the slopes ``g_i'`` at the roots (the outer dual ascent needs
    ``sum 1/g'``), and the number of batched kernel sweeps.

    ``phi`` may be a scalar (one multiplier for every server — the flat
    solve) or a per-server vector: the sharded coordinator evaluates
    several shards' load responses at *different* multipliers in one
    batched sweep this way (see :mod:`repro.shard.coordinator`).
    """
    x = np.clip(x0, lb, ub)
    lb = lb.copy()
    ub = ub.copy()
    phis = np.broadcast_to(np.asarray(phi, dtype=float), x.shape)
    dg_out = np.full(x.shape, np.inf)
    # A server is frozen once its marginal residual reaches evaluation
    # noise (a couple of ulps of phi — bisection cannot refine past the
    # kernel's own roundoff) or its bracket collapses below tol.
    # Freezing matters for correctness, not just speed: a converged
    # server has xn == x on the bracket boundary, which the safeguard
    # would otherwise misread as a failed step and bisect *away* from
    # the root.  Each sweep then re-evaluates only the live subset, so
    # the batched kernel shrinks as servers converge.
    noise = 8.9e-16 * np.abs(phis)
    done = (ub - lb) <= tol
    sweeps = 0
    for _ in range(_MAX_INNER_SWEEPS):
        idx = np.flatnonzero(~done)
        if idx.size == 0:
            break
        sweeps += 1
        xs = x[idx]
        g, dg = marginal_cost_and_slope_vec(
            k.take(idx), xbars[idx], specials[idx], xs, total_rate, disc
        )
        dg_out[idx] = dg
        resid = g - phis[idx]
        below = resid < 0.0
        lbs = np.where(below, xs, lb[idx])
        ubs = np.where(below, ub[idx], xs)
        frozen = (np.abs(resid) <= noise[idx]) | (ubs - lbs <= tol)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xn = xs - resid / dg
        bad = ~np.isfinite(xn) | (xn <= lbs) | (xn >= ubs)
        xn = np.where(bad, 0.5 * (lbs + ubs), xn)
        x[idx] = np.where(frozen, xs, xn)
        lb[idx] = lbs
        ub[idx] = ubs
        done[idx] = frozen
    else:  # pragma: no cover - midpoint fallback halves every bracket
        raise ConvergenceError("newton inner iteration failed to converge")
    return np.clip(x, lb, ub), dg_out, sweeps


def solve_newton(
    group: BladeServerGroup,
    total_rate: float,
    discipline: Discipline | str = Discipline.FCFS,
    tol: float = DEFAULT_TOL,
    phi_hint: float | None = None,
) -> LoadDistributionResult:
    """Optimal load distribution via damped-Newton dual ascent.

    Drop-in replacement for the bisection/KKT backends (same optimum,
    agreement asserted to <= 1e-9 by the test suite); registered as
    ``method="newton"`` in the solver registry.

    Parameters
    ----------
    tol:
        Convergence tolerance on the per-server rates and (relative to
        the total) on the budget residual.
    phi_hint:
        Optional warm start for the dual multiplier, typically the
        converged ``phi`` of a neighbouring sweep point or the previous
        controller tick (see :func:`repro.api.solve_sweep`).  A hint
        outside the feasible multiplier band — per-shard hints carried
        across drifting shard loads land there routinely — is detected
        against the precomputed band and re-anchored to the cold-start
        seed, so a stale hint costs at most one extra batched
        evaluation, never a safeguarded re-bracketing walk.
    """
    disc = Discipline.coerce(discipline)
    group.check_feasible(total_rate)
    if tol <= 0.0:
        raise ParameterError(f"tol must be > 0, got {tol}")
    ms = group.sizes.astype(np.int64)
    xbars = group.xbars.astype(float)
    specials = group.special_rates.astype(float)
    n = ms.shape[0]
    caps = group.spare_capacities
    hard_caps = np.where(caps > 0.0, (1.0 - STABILITY_MARGIN) * caps, 0.0)
    zeros = np.zeros(n)

    # Both thresholds below are phi-independent, so one batched kernel
    # evaluation each covers every outer iteration:
    #   g0   — marginal at zero load; phi <= g0 parks the server,
    #   gcap — marginal at the stability boundary; phi > gcap pins it.
    k = ErlangConstants(ms)
    g0, _ = marginal_cost_and_slope_vec(k, xbars, specials, zeros, total_rate, disc)
    gcap, _ = marginal_cost_and_slope_vec(
        k, xbars, specials, hard_caps, total_rate, disc
    )

    budget_tol = tol * max(1.0, total_rate)
    inner_sweeps = 0
    prev_rates = total_rate * np.divide(
        caps, caps.sum(), out=np.zeros(n), where=caps.sum() > 0.0
    )

    def rates_at(
        phi: float, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, float, np.ndarray]:
        """``(rates, F'(phi), rates)`` at multiplier ``phi``.

        ``lo``/``hi`` are component-wise root bounds carried over from
        rate vectors already computed at smaller/larger multipliers
        (``lambda'_i(phi)`` is non-decreasing in ``phi``).
        """
        nonlocal inner_sweeps, prev_rates
        active = (caps > 0.0) & (g0 < phi)
        if not active.any():
            return zeros.copy(), 0.0, zeros.copy()
        pinned = active & (gcap < phi)
        free = active & ~pinned
        rates = np.where(pinned, hard_caps, 0.0)
        if free.any():
            # Pad carried-over bounds by tol (the accuracy of the rates
            # they came from) and clip them to the stability region.
            lb = np.clip(np.where(free, lo - tol, 0.0), 0.0, hard_caps)
            ub = np.where(free, np.minimum(hi + tol, hard_caps), 0.0)
            lb = np.minimum(lb, ub)
            x0 = np.where(free, prev_rates, 0.0)
            roots, dg, sweeps = _inner_newton(
                k, xbars, specials, total_rate, phi, disc, tol, x0, lb, ub
            )
            inner_sweeps += sweeps
            rates = np.where(free, roots, rates)
            with np.errstate(divide="ignore"):
                fprime = float(np.where(free, 1.0 / dg, 0.0).sum())
        else:
            fprime = 0.0
        prev_rates = rates
        return rates, fprime, rates

    # The zero-load and capacity marginals bound the multiplier a
    # priori: F(phi) = 0 for phi <= min g0 (everything parked) and
    # F(phi) = sum hard_caps for phi > max gcap (everything pinned), so
    # the root lives inside the *finite* bracket (phi_floor, phi_ceil].
    # Seeding the outer safeguard with that bracket — instead of
    # (0, inf) — means a warm ``phi_hint`` that drifted outside the
    # feasible band (per-shard hints across drifting shard loads do
    # this routinely) is clamped and re-bracketed in O(1) instead of
    # spending safeguarded outer iterations walking back inside.
    live = caps > 0.0
    phi_floor = float(g0[live].min())
    phi_ceil = float(np.nextafter(gcap[live].max(), math.inf))
    phi_seed = float(np.nextafter(phi_floor, math.inf))

    # Cold start: a capacity-proportional split is feasible, and the
    # median of its marginals prices the middle of the group; an
    # *in-band* phi_hint replaces it and usually lands in the quadratic
    # basin.  A hint outside the band carries no information beyond the
    # bound it violated, and starting at the violated edge is a trap:
    # gcap diverges as 1/STABILITY_MARGIN at the stability boundary, so
    # a ceiling start degenerates into bisection across ~12 decades.
    # Stale hints therefore re-anchor to the cold seed — one batched
    # kernel evaluation, mid-band by construction.
    if (
        phi_hint is not None
        and math.isfinite(phi_hint)
        and phi_seed <= phi_hint <= phi_ceil
    ):
        phi = float(phi_hint)
    else:
        g_start, _ = marginal_cost_and_slope_vec(
            k, xbars, specials, prev_rates, total_rate, disc
        )
        phi = min(max(float(np.median(g_start[live])), phi_seed), phi_ceil)

    phi_lo = phi_floor
    phi_hi = phi_ceil
    r_lo = zeros.copy()
    r_hi = hard_caps.copy()
    f_lo = 0.0 - total_rate
    f_hi = float(hard_caps.sum()) - total_rate
    rates = prev_rates
    iterations = 0
    converged = False
    for _ in range(_MAX_OUTER):
        iterations += 1
        rates, fprime, _ = rates_at(phi, r_lo, r_hi)
        resid = float(rates.sum()) - total_rate
        if abs(resid) <= budget_tol:
            converged = True
            break
        if resid < 0.0:
            phi_lo, r_lo, f_lo = phi, rates, resid
        else:
            phi_hi, r_hi, f_hi = phi, rates, resid
        if phi_hi - phi_lo <= 1e-15 * max(phi_hi, 1.0):
            # Degenerate flat-marginal band: F(phi) jumps across the
            # budget inside a float-resolution multiplier window.  The
            # endpoint residuals straddle zero, so the component-wise
            # interpolation meets the budget to roundoff while only
            # moving the flat servers (same repair as the KKT backend).
            t = f_lo / (f_lo - f_hi)
            rates = r_lo + t * (r_hi - r_lo)
            phi = phi_lo + t * (phi_hi - phi_lo)
            converged = True
            break
        if fprime > 0.0 and math.isfinite(fprime):
            step = resid / fprime
            cand = phi - step
        else:
            cand = math.inf
        if not (math.isfinite(cand) and phi_lo < cand < phi_hi):
            # The bracket is finite from the start, so the safeguard is
            # always a bisection step — geometric when the bracket still
            # spans decades (marginals are positive but gcap diverges
            # with the stability margin, so the initial bracket can span
            # ~12 orders of magnitude; arithmetic halving would burn an
            # iteration per factor of two while the geometric step
            # halves the *exponent* range).
            if phi_lo > 0.0 and phi_hi > 100.0 * phi_lo:
                cand = math.sqrt(phi_lo * phi_hi)
            else:
                cand = 0.5 * (phi_lo + phi_hi)
        phi = float(cand)
    if not converged:
        raise ConvergenceError(
            f"solve_newton: no convergence in {_MAX_OUTER} outer iterations "
            f"(residual {resid:.3e})"
        )
    rates = settle_residual(rates, total_rate, hard_caps)
    return LoadDistributionResult(
        generic_rates=rates,
        mean_response_time=group.mean_response_time(rates, disc),
        phi=phi,
        discipline=disc,
        method="newton-dual-ascent",
        utilizations=group.utilizations(rates),
        per_server_response_times=group.per_server_response_times(rates, disc),
        iterations=iterations,
        converged=True,
        metadata={"inner_sweeps": inner_sweeps},
    )
