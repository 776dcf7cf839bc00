"""Coefficient asymptotics and singular-behaviour probes.

Quantitative asymptotic checks are only honest where convergence is fast
enough to observe at desk scale:

* u = 0 (quartic): coefficients are explicit, Stirling-rate convergence;
* u > 0 (quartic): the n^(-5/2) law is approached polynomially, so only the
  monotone shrinking of the deviation is asserted;
* u < 0: the n^-3 (ln n)^-2 law converges logarithmically and is not
  reproducible; instead the generating function itself is probed near its
  radius, where F''(z) + 4/u ~ C / ln(1 - z/rho) with C = 72 sqrt(3) pi
  rho / u^2.  The probe reports a certified-style truncation tail bound
  (geometric majorant from the observed monotone coefficient decay).

High-order series come from the float engines of :mod:`forestmaps.fast`,
rescaled by the radius so the probe point is q = z/rho; every probe run
re-validates the float coefficients against the exact engine on a prefix.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import mpmath
import numpy as np
from mpmath import mpf

from .critical import (
    REGIMES,
    asymptotic_constant,
    cubic_expansion_data,
    quartic_affine_rho,
    quartic_critical_point,
)
from .exact import Q
from .fast import (
    cubic_fprime_coeffs,
    cubic_fprime_float,
    quartic_fseries_float,
    quartic_series,
)
from .hyp import DEFAULT_PREC, Precision, as_mpf, rat_to_mpf
from .trees import quartic_mullin_coeff

# Each probe checks its float64 engine against the exact one on a prefix of
# this many coefficients.  The log probe's F'' has order - 1 coefficients
# and the beta fit's F' order + 1, so each probe needs a least order.
LOG_PROBE_PREFIX, BETA_FIT_PREFIX = 150, 120
MIN_ORDER = {"log-probe": LOG_PROBE_PREFIX + 1, "beta-fit": BETA_FIT_PREFIX - 1}


def coefficient_asymptotic_check(
    p: int, u, n_list: Sequence[int], prec: Precision = DEFAULT_PREC
) -> List[dict]:
    """Ratios f_n rho^n / (c_u n^-a (ln n)^-b) for the quartic family.

    The acceptance logic on these tables checks the monotone approach of
    the ratio toward 1, not closeness: convergence is slow except at u = 0.
    The laws hold for u >= -1; a smaller u raises ValueError.
    """
    if p != 4:
        raise ValueError(
            "ratio tables need the explicit constant c_u, which is exposed "
            "only for p = 4"
        )
    u = Q(u)
    if u < -1:
        raise ValueError("u must be >= -1")
    n_max = max(n_list)
    with prec.ctx():
        rho = quartic_critical_point(u, prec)[0]
        c_u = asymptotic_constant(4, u, prec)
        a, b = REGIMES[(u > 0) - (u < 0)][2]
        if u == 0:
            f = {n: quartic_mullin_coeff(4, n) for n in n_list}
        else:
            ser = quartic_series(u, n_max)
            f = {n: ser["f"][n] for n in n_list}
        rows = []
        for n in n_list:
            fn = rat_to_mpf(Q(f[n]))
            pred = c_u * rho ** (-n) * mpf(n) ** (-a)
            if b:
                pred *= mpf(math.log(n)) ** (-b)
            rows.append({"n": n, "f_n": f[n], "ratio": float(fn / pred)})
        return rows


def _prefix_rel_err(approx: np.ndarray, exact: Sequence, s: float) -> float:
    """Largest relative gap between approx[n] and exact[n] s^n over
    2 <= n < len(exact); a float engine that drifts past 1e-8 is refused."""
    rel = 0.0
    for n in range(2, len(exact)):
        ex = float(Q(exact[n])) * s ** n
        if ex != 0:
            rel = max(rel, abs(approx[n] - ex) / abs(ex))
    if rel > 1e-8:
        raise AssertionError("float engine drifted from the exact prefix: %.2e" % rel)
    return rel


def _tail_bound(coeffs: np.ndarray, q: float, start: int) -> float:
    """Geometric tail majorant past index `start` for a positive series with
    eventually nonincreasing rescaled coefficients.

    Monotone decay of coeffs over its observed tail window is a premise;
    the caller asserts it (it holds for the probed second-derivative
    series, whose rescaled coefficients decay like 1/(n ln^2 n))."""
    c = float(coeffs[start])
    return c * q ** (start + 1) / (1.0 - q)


def log_singularity_probe(
    u,
    z_fracs: Sequence[float] = (0.9, 0.99, 0.999),
    prec: Precision = DEFAULT_PREC,
    order: Optional[int] = None,
    tol: float = 1e-6,
    constant: float = 72.0,
) -> dict:
    """Compare F''(z) + 4/u against constant*sqrt(3) pi rho / (u^2 ln(1-z/rho)).

    u must be a rational in [-1, 0).  Each probe row reports both sides,
    their relative deviation (expected to shrink as z -> rho since the
    neglected correction is O(1/ln^2)), and a truncation tail bound, which
    must come out below `tol` or the call refuses with a required-order
    estimate.  `constant` exists for negative controls (72 is the true
    prefactor).
    """
    u = Q(u)
    if not (-1 <= u < 0):
        raise ValueError("the logarithmic regime needs u in [-1, 0)")
    s = float(quartic_critical_point(u, prec)[0])
    uf = float(u)
    qmax = max(z_fracs)
    if order is None:
        # aim the geometric factor q^N at tol with margin, then verify
        order = int(max(4000, math.log(tol / 50.0) / math.log(qmax) * 1.15))
    for attempt in range(3):
        bundle = quartic_fseries_float(uf, order, s)
        g = bundle["fsecond"]
        m = len(g) - 1
        window = g[m // 2 : m + 1]
        monotone = bool(np.all(np.diff(window) <= window[:-1] * 1e-9))
        bounds = {frac: _tail_bound(g, frac, m) for frac in z_fracs}
        if monotone and max(bounds.values()) < tol:
            break
        order *= 2
    else:
        raise ValueError(
            "truncation tail bound %.2e exceeds tol=%.0e; about %d terms "
            "would be needed" % (max(bounds.values()), tol,
                                 int(math.log(tol / 50.0) / math.log(qmax) * 1.3))
        )
    # validate the float engine against the exact one on a prefix
    fp_exact = quartic_series(u, LOG_PROBE_PREFIX + 2)["fprime"]
    rel = _prefix_rel_err(g, [Q(fp_exact[n + 1]) * (n + 1)
                              for n in range(LOG_PROBE_PREFIX)], s)
    ub = 1.0 / uf
    c_num = constant * math.sqrt(3.0) * math.pi * ub * ub * s
    rows = []
    powers = np.arange(len(g))
    for frac in z_fracs:
        lhs = float(np.dot(g, np.power(frac, powers))) + 4.0 * ub
        rhs = c_num / math.log(1.0 - frac)
        rows.append(
            {
                "z_frac": frac,
                "lhs": lhs,
                "rhs": rhs,
                "deviation": abs(lhs - rhs) / abs(rhs),
                "tail_bound": bounds[frac],
            }
        )
    return {
        "u": float(u),
        "rho": s,
        "order": order,
        "prefix_rel_err": rel,
        "rows": rows,
    }


def cubic_beta_fit(
    u,
    z_fracs: Sequence[float] = (0.9, 0.93, 0.96, 0.98, 0.99),
    order: int = 4000,
    prec: Precision = DEFAULT_PREC,
) -> dict:
    """Fit the log-correction coefficient of the cubic expansion at u < 0.

    F'(z) = F'(rho) + alpha (rho - z) + beta (rho - z)/ln(rho - z) (1+o(1));
    alpha and F'(rho) come from the closed critical data, beta is estimated
    pointwise and by least squares and compared with its closed form.
    """
    u = Q(u)
    if not (-1 <= u < 0):
        raise ValueError("the expansion applies for u in [-1, 0)")
    data = cubic_expansion_data(u, prec)
    s = float(data["rho"])
    fprime_rho = float(data["fprime_rho"])
    alpha = float(data["alpha"])
    beta_closed = float(data["beta"])
    fp = cubic_fprime_float(float(u), order, s)
    fp_exact = cubic_fprime_coeffs(u, BETA_FIT_PREFIX)
    rel = _prefix_rel_err(fp, fp_exact[:BETA_FIT_PREFIX], s)
    powers = np.arange(len(fp))
    rows = []
    ys = []
    design = []
    for frac in z_fracs:
        val = float(np.dot(fp, np.power(frac, powers)))
        gap = s * (1.0 - frac)
        resid = val - fprime_rho - alpha * gap
        beta_pt = resid * math.log(gap) / gap
        rows.append({"z_frac": frac, "fprime": val, "beta_pointwise": beta_pt})
        ys.append(val - fprime_rho)
        design.append([gap, gap / math.log(gap)])
    coef, *_ = np.linalg.lstsq(np.array(design), np.array(ys), rcond=None)
    return {
        "u": float(u),
        "rho": s,
        "alpha_closed": alpha,
        "alpha_lsq": float(coef[0]),
        "beta_closed": beta_closed,
        "beta_lsq": float(coef[1]),
        "beta_rows": rows,
        "prefix_rel_err": rel,
    }


def transition_digits(u) -> int:
    """Working digits that resolve a gap of the size of exp(-2 pi/(sqrt(3)
    u)) at u > 0 as the difference of two values of the size of 1."""
    return int(2 * math.pi / (math.sqrt(3) * u) / math.log(10) * 1.6) + 40


def quartic_smoothness_gap(u: float = 0.05, prec: Optional[Precision] = None) -> dict:
    """|rho_u - affine law| at small u > 0; bounded by exp(-2 pi/(sqrt(3) u)).

    The gap is doubly exponentially small, so the working precision is
    scaled with 1/u (:func:`transition_digits`) unless an explicit context
    is passed.
    """
    if u <= 0:
        raise ValueError("the smoothness gap is measured at u > 0")
    if prec is None:
        prec = Precision(transition_digits(u))
    with prec.ctx():
        um = as_mpf(u)
        rho, tau, _ = quartic_critical_point(um, prec)
        affine = quartic_affine_rho(um)
        bound = mpmath.exp(-2 * mpmath.pi / (mpmath.sqrt(3) * um))
        tau_gap = mpf(1) / 27 - tau
        tau_pred = mpmath.exp(-2 * mpmath.pi * (1 + 1 / um) / mpmath.sqrt(3))
        return {
            "u": float(u),
            "gap": float(abs(rho - affine)),
            "bound": float(bound),
            "tau_gap": float(tau_gap),
            "tau_gap_predicted": float(tau_pred),
        }
