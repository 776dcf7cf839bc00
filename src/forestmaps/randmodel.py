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

from typing import List, Sequence

from .critical import quartic_critical_point
from .exact import Q, scaled, weight_scale
from .fast import _dot, conv_trunc, quartic_fzu, quartic_series
from .hyp import DEFAULT_PREC, Precision, as_mpf, rat_to_mpf
from .trees import table_column


def _density(weight, um, point):
    """weight Phi(tau) / (tau - u Phi(tau)) at a critical point (rho, tau,
    phi_family(tau)), the limit of E[count]/n for the count whose weight
    is u (components) or 1 + u (active edges).  The point of u = 0 is the
    u <= 0 branch, tau = 1/27."""
    _, tau, family = point
    return weight * family[0] / (tau - um * family[0])


def component_slope(u, prec: Precision = DEFAULT_PREC) -> float:
    """Limit of E[number of forest components]/n, u > 0 only."""
    if u <= 0:
        raise ValueError("the component-count law is established for u > 0 only")
    with prec.ctx():
        um = as_mpf(u)
        return float(_density(um, um, quartic_critical_point(um, prec)))


def kappa(u, prec: Precision = DEFAULT_PREC) -> float:
    """Limit of E[internally active edges]/n, u >= -1.

    kappa_u = (1+u) Phi(tau) / (tau - u Phi(tau)) with tau = 1/27 for
    u <= 0; it vanishes at u = -1 and is smooth (but not analytic) at 0.
    """
    if u < -1:
        raise ValueError("u must be >= -1")
    with prec.ctx():
        um = as_mpf(u)
        return float(_density(1 + um, um, quartic_critical_point(um, prec)))


def kappa_transition_gap(u, prec: Precision = DEFAULT_PREC):
    """kappa_u minus its analytic u <= 0 continuation, as an mpf.

    For u > 0 this gap is exponentially small, of the order of the
    distance 1/27 - tau itself: it must be formed at working precision
    (float64 would round it to zero well before u reaches 0.1)."""
    with prec.ctx():
        um = as_mpf(u)
        return abs(_density(1 + um, um, quartic_critical_point(um, prec))
                   - _density(1 + um, um, quartic_critical_point(0, prec)))


def s_limit_law(u, k_max: int, prec: Precision = DEFAULT_PREC) -> List[float]:
    """Limit law of the root-component size, u > 0:

        P(S = k) = (k+1) theta_{k+1} tau^k / theta'(tau)
                 = 4 (3k)! / ((k-1)! k! (k+1)!) tau^k / theta'(tau).
    """
    if u <= 0:
        raise ValueError("the root-component law is established for u > 0 only")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    theta = table_column("theta", 4, k_max + 1)
    with prec.ctx():
        _, tau, family = quartic_critical_point(as_mpf(u), prec)
        return [float(rat_to_mpf((k + 1) * theta[k + 1]) * tau ** k / family[4])
                for k in range(1, k_max + 1)]


# ---------------------------------------------------------------------------
# finite-n quantities from the exact engine
# ---------------------------------------------------------------------------

def s_limit_law_tail_bound(u, k_max: int, prec: Precision = DEFAULT_PREC) -> float:
    """Bound on the probability mass beyond k_max.

    The term ratio (3k+1)(3k+2)(3k+3)/(k(k+1)(k+2)) tau stays below
    q = 27 tau < 1, so the tail after P(k_max) is at most
    P(k_max) q/(1-q).  1 - q, which cancels as u -> 0+, is read as
    6 f / Phi''(tau) with f = 1 + Phi(tau)/tau (Phi'' = 6f/(1 - 27x))."""
    with prec.ctx():
        _, tau, family = quartic_critical_point(as_mpf(u), prec)
        last = s_limit_law(u, k_max, prec)[-1]
        return float(last * 27 * tau * family[2] / (6 * (1 + family[0] / tau)))


def _refuse_small_n(n_values: Sequence[int]) -> None:
    """A ValueError for any n < 3: no map has fewer than 3 faces, so
    [z^(n-1)] F', the denominator of the finite-n quantities, is 0 there."""
    small = [n for n in n_values if n < 3]
    if small:
        raise ValueError("n must be >= 3 (no map has fewer than 3 faces), got %s"
                         % ", ".join(map(str, small)))


def finite_n_expectations(u, n_values: Sequence[int], series=None) -> List[dict]:
    """Exact finite-n expectations under both measures.

    E_c[C_n] - 1 = u [z^(n-1)] F''_zu / [z^(n-1)] F'  (forest components)
    E_i[I_n] = (u+1) [z^(n-1)] F''_zu / [z^(n-1)] F'  (active edges)

    Both come from one series pipeline, quartic_series(u, max(n_values)),
    built here unless the caller passes it as `series`, and F''_zu from it;
    their exact ratio (u+1)/u is an identity, asserted here.
    """
    u = Q(u)
    if u == 0:
        raise ValueError("u = 0 degenerates (single component, zero ratio)")
    _refuse_small_n(n_values)
    ser = series or quartic_series(u, max(n_values))
    fzu, fprime = quartic_fzu(ser, u), ser["fprime"]
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


def finite_n_root_size(u, n: int, k_max: int, series=None) -> List[float]:
    """Exact P(S_n = k) for k = 1..k_max from coefficient extraction:

        P(S_n = k) = theta_{k+1} [z^(n-1)] R^(k+1) / [z^(n-1)] theta(R),

    from quartic_series(u, n), built here unless the caller passes it as
    `series`.  Only the powers below R^(k_max+1) are convolved, on the ints
    R_j s^j at the scale s of :func:`~forestmaps.exact.weight_scale`; of
    each R^(k+1) one coefficient is taken, as a dot.
    """
    _refuse_small_n([n])
    ser = series or quartic_series(u, n)
    s = weight_scale(u, 4)[2]
    R, fprime = scaled(ser["R"][:n], s), ser["fprime"]
    theta = table_column("theta", 4, k_max + 1)
    out = []
    rk = R  # R^k, k = 1
    for k in range(1, k_max + 1):
        top = _dot(rk, R[::-1])  # [z^(n-1)] R^(k+1), times s^(n-1)
        out.append(float(Q(theta[k + 1]) * Q(top, s ** (n - 1)) / fprime[n - 1]))
        if k < k_max:
            rk = conv_trunc(rk, R, n - 1)  # R^(k+1)
    return out
