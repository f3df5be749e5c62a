"""Generic-task response-time models for the two queueing disciplines.

Section 3 of the paper derives, for a blade server ``S_i`` carrying a
merged stream of generic (rate ``lambda'_i``) and special (rate
``lambda''_i``) tasks, the mean response time of *generic* tasks:

Non-priority (shared FCFS queue)
    .. math::

        T'_i = \\bar{x}_i \\left(1 + p_{i,0}
               \\frac{m_i^{m_i-1}}{m_i!}
               \\frac{\\rho_i^{m_i}}{(1-\\rho_i)^2}\\right)

Priority (special tasks non-preemptively prioritized, Theorem 2)
    .. math::

        T'_i = \\bar{x}_i \\left(1 + p_{i,0}
               \\frac{m_i^{m_i-1}}{m_i!}
               \\frac{1}{1-\\rho''_i}
               \\frac{\\rho_i^{m_i}}{(1-\\rho_i)^2}\\right)

together with the analytic partial derivatives ``dT'_i/d rho_i`` needed
by the Lagrange-multiplier optimizer.  Both are implemented here, in a
numerically robust form (log-space for the ``m^{m-1}/m!`` and
``rho^m`` factors), alongside the intermediate waiting-time quantities
(``W''_i`` for special tasks, ``W'_i`` for generic tasks) from the proof
of Theorem 2.

A :class:`Discipline` enum selects between the two modes throughout the
library.
"""

from __future__ import annotations

import enum
import math

import numpy as _np

from .erlang import d2p_zero_drho2, dp_zero_drho, erlang_c, log_p_zero, p_zero
from .exceptions import ParameterError, SaturationError

__all__ = [
    "Discipline",
    "generic_response_time",
    "generic_response_time_rho",
    "d_generic_response_time_drho",
    "d2_generic_response_time_drho2",
    "special_waiting_time",
    "generic_waiting_time",
    "waiting_factor",
]


class Discipline(enum.Enum):
    """Queueing discipline for special tasks on a blade server.

    ``FCFS``
        Special tasks have no priority; generic and special tasks share
        one first-come-first-served queue (paper Section 3).
    ``PRIORITY``
        Special tasks are placed ahead of all generic tasks in the
        waiting queue, non-preemptively (paper Section 4).
    """

    FCFS = "fcfs"
    PRIORITY = "priority"

    @classmethod
    def coerce(cls, value: "Discipline | str") -> "Discipline":
        """Accept either a :class:`Discipline` or its string value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError as exc:
            raise ParameterError(
                f"unknown discipline {value!r}; expected one of "
                f"{[d.value for d in cls]}"
            ) from exc


def _validate(m: int, xbar: float, rho: float, rho_special: float) -> None:
    if (
        not isinstance(m, (int, _np.integer))
        or isinstance(m, bool)
        or m < 1
    ):
        raise ParameterError(f"m must be a positive int, got {m!r}")
    if not (math.isfinite(xbar) and xbar > 0.0):
        raise ParameterError(f"xbar must be finite and > 0, got {xbar!r}")
    if not (0.0 <= rho_special <= rho):
        raise ParameterError(
            f"need 0 <= rho_special <= rho, got rho_special={rho_special}, rho={rho}"
        )
    if rho >= 1.0:
        raise SaturationError(f"rho must be < 1, got {rho}", rho=rho)


#: Largest ``log`` that ``math.exp`` turns into a finite float.
_LOG_SHAPE_MAX = 709.0


def _log_shape(m: int, rho: float) -> float:
    """``log( m^{m-1}/m! * rho^m )`` — the shared shape factor of T'."""
    return (m - 1) * math.log(m) - math.lgamma(m + 1) + m * math.log(rho)


def waiting_factor(m: int, rho: float) -> float:
    """The non-priority waiting term ``p_0 m^{m-1}/m! rho^m/(1-rho)^2``.

    Equals ``P_q / (m (1 - rho))`` and therefore also ``W / xbar``: the
    mean waiting time expressed in units of the mean service time.
    """
    _validate(m, 1.0, rho, 0.0)
    if rho == 0.0:
        return 0.0
    log_shape = _log_shape(m, rho)
    if log_shape > _LOG_SHAPE_MAX:
        # Thousands of blades: m^{m-1}/m! rho^m overflows on its own,
        # so it meets p_0 in log space.
        return math.exp(log_p_zero(m, rho) + log_shape) / (1.0 - rho) ** 2
    return p_zero(m, rho) * math.exp(log_shape) / (1.0 - rho) ** 2


def generic_response_time_rho(
    m: int,
    xbar: float,
    rho: float,
    rho_special: float,
    discipline: Discipline | str = Discipline.FCFS,
) -> float:
    """Mean generic-task response time ``T'_i`` as a function of ``rho``.

    Parameters
    ----------
    m, xbar:
        Server size and mean service time.
    rho:
        Total utilization ``(lambda'_i + lambda''_i) xbar / m``.
    rho_special:
        Special-task utilization ``lambda''_i xbar / m``;  must satisfy
        ``0 <= rho_special <= rho < 1``.
    discipline:
        ``FCFS`` applies the Section-3 formula; ``PRIORITY`` applies
        Theorem 2's extra ``1/(1 - rho_special)`` factor.
    """
    _validate(m, xbar, rho, rho_special)
    disc = Discipline.coerce(discipline)
    w = waiting_factor(m, rho)
    if disc is Discipline.PRIORITY:
        w /= 1.0 - rho_special
    return xbar * (1.0 + w)


def generic_response_time(
    m: int,
    xbar: float,
    generic_rate: float,
    special_rate: float,
    discipline: Discipline | str = Discipline.FCFS,
) -> float:
    """Mean generic-task response time ``T'_i`` from arrival rates.

    Thin wrapper over :func:`generic_response_time_rho` that converts
    ``(lambda'_i, lambda''_i)`` into ``(rho_i, rho''_i)``.
    """
    if generic_rate < 0.0 or special_rate < 0.0:
        raise ParameterError(
            f"arrival rates must be >= 0, got generic={generic_rate}, "
            f"special={special_rate}"
        )
    rho = (generic_rate + special_rate) * xbar / m
    rho_special = special_rate * xbar / m
    return generic_response_time_rho(m, xbar, rho, rho_special, discipline)


def d_generic_response_time_drho(
    m: int,
    xbar: float,
    rho: float,
    rho_special: float,
    discipline: Discipline | str = Discipline.FCFS,
) -> float:
    """Analytic partial derivative ``dT'_i / d rho_i`` from the paper.

    .. math::

        \\frac{\\partial T'_i}{\\partial \\rho_i}
        = \\bar{x}_i \\frac{m^{m-1}}{m!} \\left[
            \\frac{\\partial p_0}{\\partial \\rho}
            \\frac{\\rho^m}{(1-\\rho)^2}
          + p_0 \\frac{\\rho^{m-1}(m - (m-2)\\rho)}{(1-\\rho)^3}
          \\right]

    with an extra ``1/(1 - rho''_i)`` under the priority discipline
    (``rho''_i`` is held constant: the optimizer only moves generic
    load).  Strictly positive for ``rho`` in (0, 1), which is what makes
    the marginal-cost bisection of the paper's Fig. 2 well-posed.
    """
    _validate(m, xbar, rho, rho_special)
    disc = Discipline.coerce(discipline)
    if rho == 0.0:
        # Limit: only the m = 1 case has a nonzero derivative at rho = 0
        # (T' = xbar/(1-rho) there, slope xbar); for m >= 2 the rho^{m-1}
        # factor kills both terms.
        return xbar if m == 1 else 0.0
    log_c = (m - 1) * math.log(m) - math.lgamma(m + 1)
    c = math.exp(log_c)
    p0 = p_zero(m, rho)
    dp0 = dp_zero_drho(m, rho)
    term1 = dp0 * rho**m / (1.0 - rho) ** 2
    term2 = p0 * rho ** (m - 1) * (m - (m - 2) * rho) / (1.0 - rho) ** 3
    out = xbar * c * (term1 + term2)
    if disc is Discipline.PRIORITY:
        out /= 1.0 - rho_special
    return out


def d2_generic_response_time_drho2(
    m: int,
    xbar: float,
    rho: float,
    rho_special: float,
    discipline: Discipline | str = Discipline.FCFS,
) -> float:
    """Analytic second derivative ``d^2 T'_i / d rho_i^2``.

    Writing ``T' = xbar (1 + C p_0(rho) h(rho))`` with
    ``C = m^{m-1}/m!`` and ``h = rho^m/(1-rho)^2``, the chain rule gives

    .. math::

        \\frac{\\partial^2 T'_i}{\\partial \\rho_i^2}
          = \\bar{x}_i C \\left( p_0'' h + 2 p_0' h' + p_0 h'' \\right),

    where ``h' = rho^{m-1}(m - (m-2) rho)/(1-rho)^3`` and

    .. math::

        h'' = \\frac{\\rho^{m-2}\\left[(m-1)(m-(m-2)\\rho)
                     - (m-2)\\rho\\right]}{(1-\\rho)^3}
            + \\frac{3 \\rho^{m-1}(m-(m-2)\\rho)}{(1-\\rho)^4} .

    An extra ``1/(1 - rho''_i)`` applies under the priority discipline
    (``rho''_i`` held constant, exactly as in
    :func:`d_generic_response_time_drho`).  Strictly positive on
    ``(0, 1)`` — ``T'`` is convex — which is what lets the
    damped-Newton backend take full second-order steps on the inner
    per-server roots and on the dual multiplier without losing the
    bracketing safeguards.  Validated against central finite differences
    of :func:`d_generic_response_time_drho` in the test suite.
    """
    _validate(m, xbar, rho, rho_special)
    disc = Discipline.coerce(discipline)
    if m == 1:
        # T' = xbar/(1-rho): the M/M/1 closed form avoids the rho^{m-2}
        # factor, which is singular to evaluate literally at m = 1.
        out = 2.0 * xbar / (1.0 - rho) ** 3
        if disc is Discipline.PRIORITY:
            out /= 1.0 - rho_special
        return out
    if rho == 0.0:
        # Limit: h''(0) = 2 only at m = 2 (every term carries rho^{m-2});
        # p_0(0) = 1 and both p_0-derivative terms vanish with h, h'.
        if m != 2:
            return 0.0
        out = 2.0 * xbar  # xbar * C * h''(0) with C = 2^{1}/2! = 1
        if disc is Discipline.PRIORITY:
            out /= 1.0 - rho_special
        return out
    log_c = (m - 1) * math.log(m) - math.lgamma(m + 1)
    c = math.exp(log_c)
    p0 = p_zero(m, rho)
    dp0 = dp_zero_drho(m, rho)
    d2p0 = d2p_zero_drho2(m, rho)
    one = 1.0 - rho
    h = rho**m / one**2
    dh = rho ** (m - 1) * (m - (m - 2) * rho) / one**3
    d2h = (
        rho ** (m - 2) * ((m - 1) * (m - (m - 2) * rho) - (m - 2) * rho) / one**3
        + 3.0 * rho ** (m - 1) * (m - (m - 2) * rho) / one**4
    )
    out = xbar * c * (d2p0 * h + 2.0 * dp0 * dh + p0 * d2h)
    if disc is Discipline.PRIORITY:
        out /= 1.0 - rho_special
    return out


def special_waiting_time(
    m: int, xbar: float, rho: float, rho_special: float
) -> float:
    """Mean waiting time ``W''_i`` of *special* tasks under priority.

    From the proof of Theorem 2:
    ``W'' = W0 / (1 - rho'') = P_q xbar / (m (1 - rho''))``.
    """
    _validate(m, xbar, rho, rho_special)
    if rho_special >= 1.0:
        raise SaturationError(
            f"special-task utilization must be < 1, got {rho_special}",
            rho=rho_special,
        )
    pq = erlang_c(m, rho)
    return pq * xbar / (m * (1.0 - rho_special))


def generic_waiting_time(
    m: int,
    xbar: float,
    rho: float,
    rho_special: float,
    discipline: Discipline | str = Discipline.FCFS,
) -> float:
    """Mean waiting time ``W'_i`` of generic tasks.

    ``FCFS``: ``W' = W = P_q xbar / (m (1 - rho))``.
    ``PRIORITY`` (Theorem 2): ``W' = W0 / ((1 - rho'')(1 - rho))``.
    """
    _validate(m, xbar, rho, rho_special)
    disc = Discipline.coerce(discipline)
    pq = erlang_c(m, rho)
    w = pq * xbar / (m * (1.0 - rho))
    if disc is Discipline.PRIORITY:
        w /= 1.0 - rho_special
    return w
