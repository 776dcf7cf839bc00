"""Statistics of large random 4-valent maps under the component-weighted
(forest) and activity-weighted (tree) Boltzmann measures.

Everything is computed exactly or to controlled precision from the series
and critical data; no random generation is involved.  Limit constants come
from the critical point tau, finite-n values from the exact specialized-u
engine, each cross-checkable against the other (the finite-n expectations
approach the limit constants as n grows).

For u < 0 the component-count slope is not defined by the underlying limit
result and is refused; the activity constant kappa_u extends to u >= -1.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from mpmath import mpf

from .critical import quartic_critical_point
from .exact import Q
from .fast import conv_trunc, quartic_series
from .hyp import DEFAULT_PREC, Precision, phi_numeric, rat_to_mpf, theta_coeff

BOUNDARY = Q(1, 27)


def _density(weight, um, tau, prec: Precision):
    """weight Phi(tau) / (tau - u Phi(tau)), the limit of E[count]/n for
    the count whose weight is u (components) or 1 + u (active edges)."""
    phi = phi_numeric("phi", tau, prec, "boundary")
    return weight * phi / (tau - um * phi)


def component_slope(u, prec: Precision = DEFAULT_PREC) -> float:
    """Limit of E[number of forest components]/n, u > 0 only."""
    if u <= 0:
        raise ValueError("the component-count law is established for u > 0 only")
    with prec.ctx():
        um = mpf(u)
        return float(_density(um, um, quartic_critical_point(um, prec)[1], prec))


def kappa(u, prec: Precision = DEFAULT_PREC) -> float:
    """Limit of E[internally active edges]/n, u >= -1.

    kappa_u = (1+u) Phi(tau) / (tau - u Phi(tau)) with tau = 1/27 for
    u <= 0; it vanishes at u = -1 and is smooth (but not analytic) at 0.
    """
    if u < -1:
        raise ValueError("u must be >= -1")
    with prec.ctx():
        um = mpf(u)
        return float(_density(1 + um, um, quartic_critical_point(um, prec)[1], prec))


def kappa_smooth_reference(u, prec: Precision = DEFAULT_PREC) -> float:
    """The analytic continuation of the u <= 0 branch, (1+u) Phi(1/27) /
    (1/27 - u Phi(1/27)); kappa - this is exponentially small at 0+."""
    with prec.ctx():
        um = mpf(u)
        return float(_density(1 + um, um, mpf(1) / 27, prec))


def kappa_transition_gap(u, prec: Precision = DEFAULT_PREC):
    """kappa_u minus its analytic u <= 0 continuation, as an mpf.

    For u > 0 this gap is exponentially small, of the order of the
    distance 1/27 - tau itself: it must be formed at working precision
    (float64 would round it to zero well before u reaches 0.1)."""
    with prec.ctx():
        um = mpf(u)
        tau = quartic_critical_point(um, prec)[1]
        return abs(_density(1 + um, um, tau, prec) - _density(1 + um, um, mpf(1) / 27, prec))


def s_limit_law(u, k_max: int, prec: Precision = DEFAULT_PREC) -> List[float]:
    """Limit law of the root-component size, u > 0:

        P(S = k) = 4 (3k)! / ((k-1)! k! (k+1)!) tau^k / theta'(tau).
    """
    if u <= 0:
        raise ValueError("the root-component law is established for u > 0 only")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    with prec.ctx():
        um = mpf(u)
        tau = quartic_critical_point(um, prec)[1]
        tp = phi_numeric("theta_prime", tau, prec, "boundary")
        out = []
        for k in range(1, k_max + 1):
            c = (
                Q(math.factorial(3 * k) * 4)
                / Q(math.factorial(k - 1) * math.factorial(k) * math.factorial(k + 1))
            )
            out.append(float(rat_to_mpf(c) * tau ** k / tp))
        return out


# ---------------------------------------------------------------------------
# finite-n quantities from the exact engine
# ---------------------------------------------------------------------------

def s_limit_law_tail_bound(u, k_max: int, prec: Precision = DEFAULT_PREC) -> float:
    """Bound on the probability mass beyond k_max.

    The term ratio (3k+1)(3k+2)(3k+3)/(k(k+1)(k+2)) tau stays below
    q = 27 tau < 1, so the tail after P(k_max) is at most
    P(k_max) q/(1-q)."""
    with prec.ctx():
        um = mpf(u)
        tau = quartic_critical_point(um, prec)[1]
        q = 27 * tau
        last = s_limit_law(u, k_max, prec)[-1]
        return float(last * q / (1 - q))


def finite_n_expectations(u, n_values: Sequence[int]) -> List[dict]:
    """Exact finite-n expectations under both measures.

    E_c[C_n] - 1 = u [z^(n-1)] F''_zu / [z^(n-1)] F'  (forest components)
    E_i[I_n] = (u+1) [z^(n-1)] F''_zu / [z^(n-1)] F'  (active edges)

    Both come from one series pipeline; their exact ratio (u+1)/u is an
    identity, asserted here.
    """
    u = Q(u)
    if u == 0:
        raise ValueError("u = 0 degenerates (single component, zero ratio)")
    order = max(n_values)
    ser = quartic_series(u, order)
    fzu, fprime = ser["fzu"], ser["fprime"]
    rows = []
    for n in n_values:
        ratio = fzu[n - 1] / fprime[n - 1]
        e_c = u * ratio + 1
        e_i = (u + 1) * ratio
        if u * ratio * (1 + 1 / u) != e_i:
            raise AssertionError("measure-change identity failed")
        rows.append(
            {"n": n, "E_components": e_c, "E_active": e_i,
             "E_active_over_n": float(Q(e_i) / n)}
        )
    return rows


def finite_n_root_size(u, n: int, k_max: int) -> List[float]:
    """Exact P(S_n = k) for k = 1..k_max from coefficient extraction:

        P(S_n = k) = theta_{k+1} [z^(n-1)] R^(k+1) / [z^(n-1)] theta(R).
    """
    u = Q(u)
    ser = quartic_series(u, n)
    R, fprime = ser["R"], ser["fprime"]
    out = []
    rk = list(R)  # R^1
    for k in range(1, k_max + 1):
        rk = conv_trunc(rk, R, n - 1)  # R^(k+1)
        p = theta_coeff(k + 1) * rk[n - 1] / fprime[n - 1]
        out.append(float(Q(p)))
    return out

