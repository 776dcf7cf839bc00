"""High-order series engines for a specialized (numeric) weight u.

The sweep solver in :mod:`forestmaps.solver` costs O(order^4); these engines
reach orders in the thousands by turning the defining equations into
coefficient recurrences:

* quartic (p = 4): R = z + u Phi(R) implies the closed second-order equation
      R (27R - 1) R'' + 6 R'^3 ((1+u) R - z) = 0,
  obtained by eliminating Phi via its hypergeometric ODE.  With R_1 = 1 and
  R_2 = 3u this pins the series and yields an O(order^2) recurrence.

* cubic (p = 3): the pair (R, S) satisfies the rational system
      D R' = R (48z - 1 + 16(u+1)R + 2(3+u)S - 8(u+1)S^2)
      D S' = -2 (3z + (u-3)R - 12zS + 4(u+1)RS)
      D    = 36z^2 + (24z - 1 + 24uz)R + 4(u+1)RS - 4(u+1)^2 RS^2 + 4(u+1)^2 R^2
  which again gives an O(order^2) recurrence from R_1 = 1, S_1 = 2u.

Each recurrence, and each series helper, is written once over numpy arrays
whose entry n holds the z^n coefficient times s^n.  The field follows the
scale s: the exact entry points pass a rational u with s = Q(1) and run on
``object`` arrays of rationals, returning lists; the ``*_float`` entry points
pass a float u with s a float (typically the radius of convergence, so that
the dynamic range stays tame) and run on float64 arrays.  Both recurrences
are validated against the sweep solver in the test suite, and the float runs
against the exact ones on a shared prefix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .exact import Q

# ---------------------------------------------------------------------------
# series helpers (entry n is the z^n coefficient times s^n)
# ---------------------------------------------------------------------------


def _zeros(s, n: int) -> np.ndarray:
    """n zeros in the field of the scale s: float64 for a float s, an
    ``object`` array of rationals for s = Q(1)."""
    return np.full(n, s * 0)


def conv_trunc(a: Sequence, b: Sequence, n: int) -> np.ndarray:
    """Coefficients 0..n of the product of two coefficient arrays (float64
    arrays, or arrays or lists of rationals)."""
    a, b = np.asarray(a), np.asarray(b)
    out = []
    for k in range(n + 1):
        lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
        out.append(a[lo : hi + 1].dot(b[k - hi : k - lo + 1][::-1]))
    return np.array(out)


def _recip(a: np.ndarray, n: int) -> np.ndarray:
    """Reciprocal of a series with a[0] != 0, through index n."""
    if a[0] == 0:
        raise ZeroDivisionError("the reciprocal needs a nonzero constant term")
    inv0 = 1 / a[0]
    out = np.empty_like(a, shape=n + 1)
    out[0] = inv0
    for k in range(1, n + 1):
        j = min(k, len(a) - 1)
        out[k] = -inv0 * a[1 : j + 1].dot(out[k - j : k][::-1])
    return out


def _diff(a: np.ndarray, s) -> np.ndarray:
    """Derivative: one entry shorter than a."""
    return np.arange(1, len(a)) * a[1:] / s


def _integrate(a: np.ndarray, s) -> np.ndarray:
    """Antiderivative with zero constant term: one entry longer than a."""
    out = _zeros(s, len(a) + 1)
    out[1:] = a * s / np.arange(1, len(a) + 1)
    return out


# ---------------------------------------------------------------------------
# the recurrences
# ---------------------------------------------------------------------------


def _quartic_r(u, order: int, s) -> np.ndarray:
    """R_n s^n, n = 0..order, for R = z + u Phi(R) at p = 4."""
    if order < 1:
        raise ValueError("order must be >= 1")
    R = _zeros(s, order + 1)
    R[1] = s
    if order >= 2:
        R[2] = 3 * u * s * s
    if order < 3:
        return R
    up1 = 1 + u
    # Rp = R', B2 = R'^2, C = R'^3, rpp = R'', R2 = R^2, P = 27 R^2 - R and
    # L = (1+u) R - z, each extended by one entry per step
    Rp, B2, C, rpp = (_zeros(s, order) for _ in range(4))
    R2, P, L = (_zeros(s, order + 1) for _ in range(3))
    Rp[0] = B2[0] = C[0] = R[1] / s
    Rp[1] = 2 * R[2] / s
    B2[1] = 2 * Rp[1]
    C[1] = 3 * Rp[1]
    rpp[0] = 2 * R[2] / (s * s)
    R2[2] = R[1] * R[1]
    P[1] = -s
    P[2] = 27 * R2[2] - R[2]
    L[1] = u * s
    L[2] = up1 * R[2]
    for n in range(2, order):
        if n >= 3:
            R2[n] = R[1:n].dot(R[n - 1 : 0 : -1])
            P[n] = 27 * R2[n] - R[n]
            L[n] = up1 * R[n]
            Rp[n - 1] = n * R[n] / s
            B2[n - 1] = Rp[0:n].dot(Rp[n - 1 :: -1])
            C[n - 1] = B2[0:n].dot(Rp[n - 1 :: -1])
            rpp[n - 2] = n * (n - 1) * R[n] / (s * s)
        known = P[2 : n + 1].dot(rpp[n - 2 :: -1])
        known += 6 * L[1 : n + 1].dot(C[n - 1 :: -1])
        R[n + 1] = s * known / (n * (n + 1))
    return R


def _quartic_bundle(R: np.ndarray, u, s) -> dict:
    """W = Phi(R), V = Phi'(R), F' and F''_zu from R (needs u != 0).

    R runs through z^order; W through z^order, the rest through
    z^(order-1)."""
    m = len(R) - 2
    z = _zeros(s, len(R))
    z[1] = s
    W = (R - z) / u
    Rp = _diff(R, s)
    # Phi'(R) = (1 - 1/R') / u
    V = -_recip(Rp, m) / u
    V[0] += 1 / u
    # theta(R) = (2 (27R - 1) V - 42 W + 12 R) / 3
    t1 = conv_trunc(27 * R, V, m)
    fprime = (2 * (t1 - V[: m + 1]) - 42 * W[: m + 1] + 12 * R[: m + 1]) / 3
    # theta'(R) = 4V - 4 W/R ; W/R = (W shifted) * 1/(R shifted)
    w_over_r = conv_trunc(W[1:], _recip(R[1:], m), m)
    theta_p = 4 * V[: m + 1] - 4 * w_over_r
    # F''_zu = W * theta'(R) * R'
    fzu = conv_trunc(conv_trunc(W, theta_p, m), Rp, m)
    return {"R": R, "W": W, "V": V, "fprime": fprime, "fzu": fzu}


def _cubic_rs(u, order: int, s):
    """(R_n s^n, S_n s^n), n = 0..order, for p = 3."""
    if order < 1:
        raise ValueError("order must be >= 1")
    R, S, R2, RS, S2, RS2, D, A = (_zeros(s, order + 1) for _ in range(8))
    # (j+1) R_{j+1} and (j+1) S_{j+1}: R' and S' before the division by s
    dR, dS = _zeros(s, order), _zeros(s, order)
    zero = R[0]
    up1 = 1 + u
    R[1] = s
    S[1] = 2 * u * s
    # A = 48z - 1 + 16(u+1)R + 2(3+u)S - 8(u+1)S^2; D_1 and A_0 never enter
    A[1] = (48 + 16 * up1 + 2 * (3 + u) * 2 * u) * s
    for m in range(2, order + 1):
        # extend the products to index m (uses entries < m only)
        R2[m] = R[1:m].dot(R[m - 1 : 0 : -1])
        RS[m] = R[1:m].dot(S[m - 1 : 0 : -1])
        S2[m] = S[1:m].dot(S[m - 1 : 0 : -1])
        if m >= 3:
            RS2[m] = R[1 : m - 1].dot(S2[m - 1 : 1 : -1])
        dk = (
            (36 * s * s if m == 2 else zero)
            + 24 * up1 * s * R[m - 1]
            + 4 * up1 * RS[m]
            - 4 * up1 * up1 * RS2[m]
            + 4 * up1 * up1 * R2[m]
        )
        if m >= 3:
            known_dr = D[2:m].dot(dR[m - 2 : 0 : -1]) / s + dk
            known_ds = D[2:m].dot(dS[m - 2 : 0 : -1]) / s
        else:
            known_dr, known_ds = dk, zero
        known_ra = R[1:m].dot(A[m - 1 : 0 : -1])
        R[m] = (known_dr - known_ra) / m
        D[m] = dk - R[m]
        b = (u - 3) * R[m] - 12 * s * S[m - 1] + 4 * up1 * RS[m]
        known_ds += D[m] * S[1] / s
        S[m] = (known_ds + 2 * b) / m
        A[m] = 16 * up1 * R[m] + 2 * (3 + u) * S[m] - 8 * up1 * S2[m]
        dR[m - 1] = m * R[m]
        dS[m - 1] = m * S[m]
    return R, S


def _cubic_fprime(R: np.ndarray, S: np.ndarray, u, s) -> np.ndarray:
    """F' = (2z + S - 2R - S^2)/u - (2R + S^2) for p = 3 (needs u != 0)."""
    z = _zeros(s, len(R))
    z[1] = s
    core = 2 * R + conv_trunc(S, S, len(S) - 1)
    return (2 * z + S - core) / u - core


# ---------------------------------------------------------------------------
# exact entry points: rational u, lists of rationals indexed by z-power
# ---------------------------------------------------------------------------


def quartic_r_coeffs(u, order: int) -> list:
    """Exact coefficients R_0..R_order of R = z + u Phi(R) for p = 4."""
    return _quartic_r(Q(u), order, Q(1)).tolist()


def quartic_series(u, order: int) -> dict:
    """Exact quartic bundle: R, W = Phi(R), V = Phi'(R), F', F, F''_zu.

    All entries are coefficient lists; R, W and F run through z^order, the
    others through z^(order-1).  The bundle divides by u; at u = 0 the
    closed spanning-tree forms apply instead, R = z, and every entry runs
    through z^order.
    """
    u, one = Q(u), Q(1)
    # through the public entry point, so per-function tracing sees it
    R = np.array(quartic_r_coeffs(u, order), dtype=object)
    if u == 0:
        from .trees import phi_theta_tables

        tabs = phi_theta_tables(4, order)
        W = np.array(tabs["phi_x"], dtype=object)
        fprime = np.array(tabs["theta_x"], dtype=object)
        theta_p = np.append(_diff(fprime, one), Q(0))
        ser = {
            "R": R,
            "W": W,
            "V": np.append(_diff(W, one), Q(0)),
            "fprime": fprime,
            "fzu": conv_trunc(W, theta_p, order),
        }
    else:
        ser = _quartic_bundle(R, u, one)
    ser["f"] = _integrate(ser["fprime"], one)[: order + 1]
    return {k: v.tolist() for k, v in ser.items()}


def cubic_rs_coeffs(u, order: int):
    """Exact coefficients of (R, S) for p = 3 via the rational-derivative
    recurrence; returns two lists indexed by z-power."""
    R, S = _cubic_rs(Q(u), order, Q(1))
    return R.tolist(), S.tolist()


def cubic_fprime_coeffs(u, order: int) -> list:
    """Exact F' coefficients for p = 3 through z^order."""
    u = Q(u)
    if u == 0:
        from .trees import quartic_mullin_coeff

        return [quartic_mullin_coeff(3, n + 1) * (n + 1) for n in range(order + 1)]
    R, S = (np.array(c, dtype=object) for c in cubic_rs_coeffs(u, order))
    return _cubic_fprime(R, S, u, Q(1)).tolist()


# ---------------------------------------------------------------------------
# float entry points: float64 arrays, entry n rescaled by scale**n
# ---------------------------------------------------------------------------


def quartic_fseries_float(u: float, order: int, scale: float) -> dict:
    """Float quartic bundle (rescaled): R, W, V, F', F'', F''_zu arrays.

    Entry [n] of each array is the true z^n coefficient times scale^n.
    Valid through index order-1 for F' and order-2 for F''.
    """
    u, s = float(u), float(scale)
    ser = _quartic_bundle(_quartic_r(u, order, s), u, s)
    ser["fsecond"] = _diff(ser["fprime"], s)
    ser["scale"] = s
    return ser


def cubic_fprime_float(u: float, order: int, scale: float) -> np.ndarray:
    """Rescaled F' coefficients for p = 3 (float engine)."""
    u, s = float(u), float(scale)
    R, S = _cubic_rs(u, order, s)
    return _cubic_fprime(R, S, u, s)
