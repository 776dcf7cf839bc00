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
whose entry n holds the z^n coefficient times s^n, for a weight u = a/b.
The exact entry points take a rational u in lowest terms (b > 0) and run on
``object`` arrays of Python ints: the quartic engines at s = b, the cubic
ones at s = b^2.  The coefficients are integer polynomials in u, so at these
scales every stored entry is an integer; the quartic ODE is multiplied
through by b (R'' and (1+u)R - z are stored times b), the only place where
s = b leaves a fraction.  Each division goes through `_div`, which raises
ArithmeticError on a nonzero remainder, and entry n becomes the rational
X_n / s^n only in the returned lists.  The ``*_float`` entry points pass
a = u, b = 1.0 and a float s (typically the radius of convergence, so that
the dynamic range stays tame) and run on float64 arrays; there every factor
and divisor b is exactly 1.0 and leaves the float result unchanged.  Both
recurrences are validated against the sweep solver in the test suite, and
the float runs against the exact ones on a shared prefix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .exact import Q, exact_div, scaled, unscaled

# ---------------------------------------------------------------------------
# series helpers (entry n is the z^n coefficient times s^n)
# ---------------------------------------------------------------------------


def _div(x, d):
    """x / d.  Over ``object`` arrays of Python ints the quotient must be
    exact: a nonzero remainder raises ArithmeticError, as it does for int
    scalars in :func:`~forestmaps.exact.exact_div`.  Over floats this is
    plain true division."""
    if isinstance(x, (float, np.floating)) or isinstance(d, (float, np.floating)) or (
        isinstance(x, np.ndarray) and x.dtype.kind == "f"
    ):
        return x / d
    if not isinstance(x, np.ndarray) and not isinstance(d, np.ndarray):
        return exact_div(x, d)
    q = x // d
    if np.any(q * d != x):
        raise ArithmeticError("inexact division by %s" % (d,))
    return q


def _zeros(s, n: int) -> np.ndarray:
    """n zeros in the field of the scale s: float64 for a float s, an
    ``object`` array of Python ints for an int s."""
    return np.zeros(n, dtype=float if isinstance(s, float) else object)


def _scaled(coeffs: Sequence, s: int) -> np.ndarray:
    """Rationals c_n as an ``object`` array of the ints c_n s^n."""
    return np.array(scaled(coeffs, s), dtype=object)


def conv_trunc(a: Sequence, b: Sequence, n: int) -> np.ndarray:
    """Coefficients 0..n of the product of two coefficient arrays (float64
    arrays, or ``object`` arrays or lists of ints or rationals)."""
    a, b = np.asarray(a), np.asarray(b)
    out = []
    for k in range(n + 1):
        lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
        out.append(a[lo : hi + 1].dot(b[k - hi : k - lo + 1][::-1]))
    return np.array(out, dtype=np.result_type(a, b))


def _recip(a: np.ndarray, n: int) -> np.ndarray:
    """Reciprocal of a series with a[0] != 0 (a[0] = +-1 over ints),
    through index n."""
    if a[0] == 0:
        raise ZeroDivisionError("the reciprocal needs a nonzero constant term")
    inv0 = _div(1, a[0])
    out = np.empty_like(a, shape=n + 1)
    out[0] = inv0
    for k in range(1, n + 1):
        j = min(k, len(a) - 1)
        out[k] = -inv0 * a[1 : j + 1].dot(out[k - j : k][::-1])
    return out


def _diff(a: np.ndarray, s) -> np.ndarray:
    """Derivative: one entry shorter than a."""
    return _div(np.arange(1, len(a)) * a[1:], s)


def _integrate(a: np.ndarray, s) -> np.ndarray:
    """Antiderivative with zero constant term: one entry longer than a."""
    out = _zeros(s, len(a) + 1)
    out[1:] = _div(a * s, np.arange(1, len(a) + 1))
    return out


# ---------------------------------------------------------------------------
# the recurrences, at u = a/b (b = 1.0 over floats)
# ---------------------------------------------------------------------------


def _quartic_r(a, b, order: int, s) -> np.ndarray:
    """R_n s^n, n = 0..order, for R = z + u Phi(R) at p = 4."""
    if order < 1:
        raise ValueError("order must be >= 1")
    R = _zeros(s, order + 1)
    R[1] = s
    if order >= 2:
        R[2] = _div(3 * a * s * s, b)
    if order < 3:
        return R
    up1 = a + b  # (1+u) b
    # Rp = R', B2 = R'^2, C = R'^3, rpp = b R'', R2 = R^2, P = 27 R^2 - R and
    # L = b ((1+u) R - z), each extended by one entry per step
    Rp, B2, C, rpp = (_zeros(s, order) for _ in range(4))
    R2, P, L = (_zeros(s, order + 1) for _ in range(3))
    Rp[0] = B2[0] = C[0] = _div(R[1], s)
    Rp[1] = _div(2 * R[2], s)
    B2[1] = 2 * Rp[1]
    C[1] = 3 * Rp[1]
    rpp[0] = _div(2 * R[2] * b, s * s)
    R2[2] = R[1] * R[1]
    P[1] = -s
    P[2] = 27 * R2[2] - R[2]
    L[1] = a * s
    L[2] = up1 * R[2]
    for n in range(2, order):
        if n >= 3:
            R2[n] = R[1:n].dot(R[n - 1 : 0 : -1])
            P[n] = 27 * R2[n] - R[n]
            L[n] = up1 * R[n]
            Rp[n - 1] = _div(n * R[n], s)
            B2[n - 1] = Rp[0:n].dot(Rp[n - 1 :: -1])
            C[n - 1] = B2[0:n].dot(Rp[n - 1 :: -1])
            rpp[n - 2] = _div(n * (n - 1) * R[n] * b, s * s)
        # b times the known part of the ODE at z^(n-1)
        known = P[2 : n + 1].dot(rpp[n - 2 :: -1])
        known += 6 * L[1 : n + 1].dot(C[n - 1 :: -1])
        R[n + 1] = _div(s * known, n * (n + 1) * b)
    return R


def _quartic_bundle(R: np.ndarray, a, b, s) -> dict:
    """W = Phi(R), V = Phi'(R) and F' from R (needs u != 0).

    R runs through z^order; W through z^order, the rest through
    z^(order-1)."""
    m = len(R) - 2
    z = _zeros(s, len(R))
    z[1] = s
    W = _div((R - z) * b, a)
    # Phi'(R) = (1 - 1/R') / u, whose constant term is 0
    V = _zeros(s, m + 1)
    V[1:] = _div(-_recip(_diff(R, s), m)[1:] * b, a)
    # theta(R) = (2 (27R - 1) V - 42 W + 12 R) / 3
    t1 = conv_trunc(27 * R, V, m)
    fprime = _div(2 * (t1 - V) - 42 * W[: m + 1] + 12 * R[: m + 1], 3)
    return {"R": R, "W": W, "V": V, "fprime": fprime}


def _quartic_fzu(ser: dict, b, s) -> np.ndarray:
    """F''_zu = W theta'(R) R' from the bundle, through z^(order-1)."""
    R, W, V = ser["R"], ser["W"], ser["V"]
    m = len(V) - 1
    # theta'(R) = 4V - 4 W/R ; W/R = (W shifted) * 1/(R shifted).  The
    # shifted R is b times a series with unit constant term
    w_over_r = _div(conv_trunc(W[1:], _recip(_div(R[1:], b), m), m), b)
    theta_p = 4 * V - 4 * w_over_r
    return conv_trunc(conv_trunc(W, theta_p, m), _diff(R, s), m)


def _cubic_rs(a, b, order: int, s):
    """(R_n s^n, S_n s^n), n = 0..order, for p = 3."""
    if order < 1:
        raise ValueError("order must be >= 1")
    R, S, R2, RS, S2, RS2, D, A = (_zeros(s, order + 1) for _ in range(8))
    # (j+1) R_{j+1} and (j+1) S_{j+1}: R' and S' before the division by s
    dR, dS = _zeros(s, order), _zeros(s, order)
    zero = R[0]
    up1, b2 = a + b, b * b  # up1 = (1+u) b
    R[1] = s
    S[1] = _div(2 * a * s, b)
    # A = 48z - 1 + 16(u+1)R + 2(3+u)S - 8(u+1)S^2; D_1 and A_0 never enter
    A[1] = _div((48 * b2 + 16 * up1 * b + 2 * (3 * b + a) * 2 * a) * s, b2)
    for m in range(2, order + 1):
        # extend the products to index m (uses entries < m only)
        R2[m] = R[1:m].dot(R[m - 1 : 0 : -1])
        RS[m] = R[1:m].dot(S[m - 1 : 0 : -1])
        S2[m] = S[1:m].dot(S[m - 1 : 0 : -1])
        if m >= 3:
            RS2[m] = R[1 : m - 1].dot(S2[m - 1 : 1 : -1])
        dk = _div(
            (36 * s * s * b2 if m == 2 else zero)
            + 24 * up1 * b * s * R[m - 1]
            + 4 * up1 * b * RS[m]
            - 4 * up1 * up1 * RS2[m]
            + 4 * up1 * up1 * R2[m],
            b2,
        )
        if m >= 3:
            known_dr = _div(D[2:m].dot(dR[m - 2 : 0 : -1]), s) + dk
            known_ds = _div(D[2:m].dot(dS[m - 2 : 0 : -1]), s)
        else:
            known_dr, known_ds = dk, zero
        known_ra = R[1:m].dot(A[m - 1 : 0 : -1])
        R[m] = _div(known_dr - known_ra, m)
        D[m] = dk - R[m]
        bm = _div((a - 3 * b) * R[m] - 12 * b * s * S[m - 1] + 4 * up1 * RS[m], b)
        known_ds += _div(D[m] * S[1], s)
        S[m] = _div(known_ds + 2 * bm, m)
        A[m] = _div(16 * up1 * R[m] + 2 * (3 * b + a) * S[m] - 8 * up1 * S2[m], b)
        dR[m - 1] = m * R[m]
        dS[m - 1] = m * S[m]
    return R, S


def _cubic_fprime(R: np.ndarray, S: np.ndarray, a, b, s) -> np.ndarray:
    """F' = (2z + S - 2R - S^2)/u - (2R + S^2) for p = 3 (needs u != 0)."""
    z = _zeros(s, len(R))
    z[1] = s
    core = 2 * R + conv_trunc(S, S, len(S) - 1)
    return _div((2 * z + S - core) * b, a) - core


# ---------------------------------------------------------------------------
# exact entry points: rational u, lists of rationals indexed by z-power
# ---------------------------------------------------------------------------


def _ratio(u):
    """(a, b) with u = a/b in lowest terms and b > 0."""
    u = Q(u)
    return u.numerator, u.denominator


def quartic_r_coeffs(u, order: int) -> list:
    """Exact coefficients R_0..R_order of R = z + u Phi(R) for p = 4."""
    a, b = _ratio(u)
    return unscaled(_quartic_r(a, b, order, b), b)


def quartic_series(u, order: int) -> dict:
    """Exact quartic bundle: R, W = Phi(R), V = Phi'(R), F', F, F''_zu.

    All entries are coefficient lists; R, W and F run through z^order, the
    others through z^(order-1).  The bundle divides by u; at u = 0 the
    closed spanning-tree forms apply instead, R = z, and every entry runs
    through z^order.
    """
    a, b = _ratio(u)
    # through the public entry point, so per-function tracing sees it
    R = _scaled(quartic_r_coeffs(u, order), b)
    if a == 0:
        from .trees import phi_theta_tables

        tabs = phi_theta_tables(4, order)
        W = _scaled(tabs["phi_x"], 1)
        fprime = _scaled(tabs["theta_x"], 1)
        theta_p = np.append(_diff(fprime, 1), 0)
        ser = {
            "R": R,
            "W": W,
            "V": np.append(_diff(W, 1), 0),
            "fprime": fprime,
            "fzu": conv_trunc(W, theta_p, order),
        }
    else:
        ser = _quartic_bundle(R, a, b, b)
        ser["fzu"] = _quartic_fzu(ser, b, b)
    ser["f"] = _integrate(ser["fprime"], b)[: order + 1]
    return {k: unscaled(v, b) for k, v in ser.items()}


def cubic_rs_coeffs(u, order: int):
    """Exact coefficients of (R, S) for p = 3 via the rational-derivative
    recurrence; returns two lists indexed by z-power."""
    a, b = _ratio(u)
    R, S = _cubic_rs(a, b, order, b * b)
    return unscaled(R, b * b), unscaled(S, b * b)


def cubic_fprime_coeffs(u, order: int) -> list:
    """Exact F' coefficients for p = 3 through z^order."""
    a, b = _ratio(u)
    if a == 0:
        from .trees import quartic_mullin_coeff

        return [quartic_mullin_coeff(3, n + 1) * (n + 1) for n in range(order + 1)]
    R, S = (_scaled(c, b * b) for c in cubic_rs_coeffs(u, order))
    return unscaled(_cubic_fprime(R, S, a, b, b * b), b * b)


# ---------------------------------------------------------------------------
# float entry points: float64 arrays, entry n rescaled by scale**n
# ---------------------------------------------------------------------------


def _require_finite(arrays, order: int, s: float) -> None:
    """Refuse float coefficients that left float64: past the radius the
    rescaled entries grow geometrically and turn into inf and NaN."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(
            "float coefficients are not finite at order %d and scale %r; "
            "the scale must not exceed the radius" % (order, s))


def quartic_fseries_float(u: float, order: int, scale: float) -> dict:
    """Float quartic bundle (rescaled): R, W, V, F' and F'' arrays.

    Entry [n] of each array is the true z^n coefficient times scale^n.
    Valid through index order-1 for F' and order-2 for F''.  Raises
    ValueError when an entry is not finite.
    """
    u, s = float(u), float(scale)
    ser = _quartic_bundle(_quartic_r(u, 1.0, order, s), u, 1.0, s)
    ser["fsecond"] = _diff(ser["fprime"], s)
    _require_finite(ser.values(), order, s)
    ser["scale"] = s
    return ser


def cubic_fprime_float(u: float, order: int, scale: float) -> np.ndarray:
    """Rescaled F' coefficients for p = 3 (float engine); raises
    ValueError when an entry is not finite."""
    u, s = float(u), float(scale)
    R, S = _cubic_rs(u, 1.0, order, s)
    fp = _cubic_fprime(R, S, u, 1.0, s)
    _require_finite((fp,), order, s)
    return fp
