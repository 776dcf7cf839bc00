"""High-order series engines for a specialized (numeric) weight u.

The online solver in :mod:`forestmaps.solver` costs O(order^3) ring
operations; these engines reach orders in the thousands by turning the
defining equations into coefficient recurrences:

* quartic (p = 4): R = z + u Phi(R) implies the closed second-order equation
      R (27R - 1) R'' + 6 R'^3 ((1+u) R - z) = 0,
  obtained by eliminating Phi via its hypergeometric ODE.  With R_1 = 1 and
  R_2 = 3u this pins the series and yields an O(order^2) recurrence.

* cubic (p = 3): the pair (R, S) satisfies the rational system
      D R' = R (48z - 1 + 16(u+1)R + 2(3+u)S - 8(u+1)S^2)
      D S' = -2 (3z + (u-3)R - 12zS + 4(u+1)RS)
      D    = 36z^2 + (24z - 1 + 24uz)R + 4(u+1)RS - 4(u+1)^2 RS^2 + 4(u+1)^2 R^2
  which again gives an O(order^2) recurrence from R_1 = 1, S_1 = 2u.

Each recurrence, and each series helper, is written once over sequences
whose entry n holds the z^n coefficient times s^n, for a weight u = a/b.
The exact entry points take a rational u and run on lists of Python ints
at the (a, b, s) of :func:`~forestmaps.exact.weight_scale`, where every
stored entry is an integer; the quartic ODE is multiplied through by b
(R'' and (1+u)R - z are stored times b), the only place where s = b
leaves a fraction.  Each division goes through `_div`, which raises
ArithmeticError on a nonzero remainder, and entry n becomes the rational
X_n / s^n only in the returned lists.  The same recurrences run over
integer polynomials in u at a = u (``UP_U``), b = s = 1, on lists of
:class:`~forestmaps.upoly.UPoly`, with every division exact in Z[u].  The
``*_float`` entry points pass a = u, b = 1.0 and a float s (typically the
radius of convergence, so that the dynamic range stays tame) and run on
float64 numpy arrays; there every factor and divisor b is exactly 1.0 and
leaves the float result unchanged.
An ``np.longdouble`` scale runs the same code in extended precision.

Only a few primitives see the container: `_vec` builds one, `_dot` and
`conv_trunc` form products, `_div` divides, `_map` applies an entrywise
formula (once per entry on lists, once on whole arrays) and `_Mirror`
keeps a series back to front.  The list primitives also serve
:class:`~forestmaps.series.ZSeries`, whose product, derivative and
antiderivative call `conv_trunc`, `_diff` and `_integrate` on its tuples.
Each recurrence step takes dots of one series against another run
backwards; the backward operand is a forward slice of the mirror, so numpy
passes both to BLAS without copying them.  The O(n) steps (derivatives, W,
V, F') are whole-array expressions over floats, each with the roundings of
the entrywise formula.  Both recurrences are validated against the online
solver in the test suite, the float runs against the exact ones on a shared
prefix and against extended-precision runs over their full length.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .exact import exact_div, scaled, unscaled, weight_scale
from .upoly import UPoly

# ---------------------------------------------------------------------------
# series helpers (entry n is the z^n coefficient times s^n)
# ---------------------------------------------------------------------------


def _vec(s, values) -> Sequence:
    """values in the container of the scale s: a list for an int s, else a
    numpy array of the scale's type (float64 for a float s, extended
    precision for an ``np.longdouble`` one)."""
    if isinstance(s, int):
        return list(values)
    import numpy as np

    return np.array(values, dtype=type(s))


def _dot(x: Sequence, y: Sequence):
    """sum x[i] y[i]: an exact sum on lists, numpy's dot on arrays.  The
    recurrences pass both as forward slices (a reversed one is read from a
    `_Mirror`), which numpy hands to BLAS without a copy."""
    if isinstance(x, list):
        return sum(map(mul, x, y))
    return x.dot(y)


_EXACT = (int, UPoly)
_LISTS = (list, tuple)  # a tuple is the coefficients of a ZSeries


def _div(x, d):
    """x / d.  Between exact operands, ints and integer polynomials in u,
    this is :func:`~forestmaps.exact.exact_div`: a nonzero remainder
    raises ArithmeticError.  Otherwise (a float operand, or an array) it
    is plain true division, entrywise on an array."""
    # exact types, not isinstance: numpy scalars would walk a long MRO
    if type(x) in _EXACT and type(d) in _EXACT:
        return exact_div(x, d)
    return x / d


def _map(f, *seqs) -> Sequence:
    """f entry by entry over sequences of one length: on lists (or tuples)
    the list of f at each index, on arrays f once on the whole arrays, whose
    arithmetic (and `_div`) numpy then does entrywise with the same
    roundings."""
    if isinstance(seqs[0], _LISTS):
        return list(map(f, *seqs))
    return f(*seqs)


class _Mirror:
    """A series kept a second time, back to front, in a buffer of its own.

    ``m[i:j]`` is x[i:j] reversed (x[j-1], ..., x[i]) as a forward slice of
    that buffer.  A recurrence step convolves one series with another run
    backwards; numpy copies a negative-stride operand before each dot, a
    forward one it hands to BLAS as it is.  The recurrences write each entry
    to both, ``x[k] = m[k] = value``."""

    __slots__ = ("buf", "end")

    def __init__(self, x: Sequence, s):
        self.buf = _vec(s, x[::-1])
        self.end = len(x)  # x[k] is buf[end - 1 - k]

    def __getitem__(self, k: slice) -> Sequence:
        return self.buf[self.end - k.stop : self.end - k.start]

    def __setitem__(self, k: int, value) -> None:
        self.buf[self.end - 1 - k] = value


def conv_trunc(a: Sequence, b: Sequence, n: int) -> Sequence:
    """Coefficients 0..n of the product of two coefficient sequences, in
    their container.  On lists or tuples (of ints, rationals or UPolys)
    each operand is trimmed to the span of its nonzero entries, each
    coefficient with terms is one exact dot and the others are the ring's
    zero ``a[0] * 0``, all in a list; on arrays it is one ``np.convolve``."""
    if isinstance(a, _LISTS):
        a, b = list(a[: n + 1]), list(b[: n + 1])
        out = [a[0] * 0 if a else 0] * (n + 1)
        ia = [i for i, x in enumerate(a) if x]
        ib = [j for j, y in enumerate(b) if y]
        if ia and ib:
            la, ha, lb, hb = ia[0], ia[-1], ib[0], ib[-1]
            for k in range(la + lb, min(n, ha + hb) + 1):
                lo, hi = max(la, k - hb), min(ha, k - lb)
                out[k] = _dot(a[lo : hi + 1], b[k - hi : k - lo + 1][::-1])
        return out
    import numpy as np

    def padded(v):
        out = np.zeros(n + 2, dtype=v.dtype)
        out[: min(len(v), n + 1)] = v[: n + 1]
        return out

    # The trailing zero of each operand keeps coefficients 0..n in the part
    # of the full product where the overlap grows, which numpy computes as
    # one dot per coefficient, a[0..k] against b[k..0]: the order of the
    # terms in the list loop above, which also skips the terms outside each
    # operand's nonzero span.
    return np.convolve(padded(a), padded(b))[: n + 1]


def _recip(a: Sequence, n: int, s) -> Sequence:
    """Reciprocal of a series with a[0] != 0 (a[0] = +-1 over ints),
    through index n."""
    if a[0] == 0:
        raise ZeroDivisionError("the reciprocal needs a nonzero constant term")
    inv0 = _div(1, a[0])
    out = _vec(s, [inv0] * (n + 1))
    back = _Mirror(out, s)
    for k in range(1, n + 1):
        j = min(k, len(a) - 1)
        out[k] = back[k] = -inv0 * _dot(a[1 : j + 1], back[k - j : k])
    return out


def _z(s, n: int) -> Sequence:
    """The series z through index n - 1 (n >= 2): the single entry s, at 1."""
    return _vec(s, [0, s] + [0] * (n - 2))


def _diff(a: Sequence, s) -> Sequence:
    """Derivative: one entry shorter than a.  At s = 1 nothing is divided,
    so the entries may be polynomials with rational coefficients."""
    d = _map(mul, _vec(s, range(1, len(a))), a[1:])
    return d if s == 1 else _map(lambda x: _div(x, s), d)


def _integrate(a: Sequence, s) -> Sequence:
    """Antiderivative with zero constant term: one entry longer than a."""
    out = _vec(s, [0] * (len(a) + 1))
    out[1:] = _map(lambda x, k: _div(x * s, k), a, _vec(s, range(1, len(a) + 1)))
    return out


# ---------------------------------------------------------------------------
# the recurrences, at u = a/b (b = 1.0 over floats)
# ---------------------------------------------------------------------------


def _quartic_r(a, b, order: int, s) -> Sequence:
    """R_n s^n, n = 0..order, for R = z + u Phi(R) at p = 4."""
    if order < 1:
        raise ValueError("order must be >= 1")
    R = _vec(s, [0] * (order + 1))
    R[1] = s
    if order >= 2:
        R[2] = _div(3 * a * s * s, b)
    if order < 3:
        return R
    up1 = a + b  # (1+u) b
    # Rp = R', B2 = R'^2, C = R'^3, rpp = b R'', R2 = R^2, P = 27 R^2 - R and
    # L = b ((1+u) R - z), each extended by one entry per step
    Rp, B2, C, rpp = (_vec(s, [0] * order) for _ in range(4))
    R2, P, L = (_vec(s, [0] * (order + 1)) for _ in range(3))
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
    # the factors that the products below run backwards
    Rm, Rpm, Cm, rppm = (_Mirror(x, s) for x in (R, Rp, C, rpp))
    for n in range(2, order):
        if n >= 3:
            R2[n] = _dot(R[1:n], Rm[1:n])
            P[n] = 27 * R2[n] - R[n]
            L[n] = up1 * R[n]
            Rp[n - 1] = Rpm[n - 1] = _div(n * R[n], s)
            B2[n - 1] = _dot(Rp[0:n], Rpm[0:n])
            C[n - 1] = Cm[n - 1] = _dot(B2[0:n], Rpm[0:n])
            rpp[n - 2] = rppm[n - 2] = _div(n * (n - 1) * R[n] * b, s * s)
        # b times the known part of the ODE at z^(n-1)
        known = _dot(P[2 : n + 1], rppm[0 : n - 1])
        known += 6 * _dot(L[1 : n + 1], Cm[0:n])
        R[n + 1] = Rm[n + 1] = _div(s * known, n * (n + 1) * b)
    return R


def _quartic_bundle(R: Sequence, a, b, s) -> dict:
    """W = Phi(R), V = Phi'(R) and F' from R (needs u != 0).

    R runs through z^order; W through z^order, the rest through
    z^(order-1)."""
    m = len(R) - 2
    # W = (R - z) / u
    W = _map(lambda r, z: _div((r - z) * b, a), R, _z(s, len(R)))
    # Phi'(R) = (1 - 1/R') / u, whose constant term is 0
    V = _recip(_diff(R, s), m, s)
    V[1:] = _map(lambda x: _div(-x * b, a), V[1:])
    V[0] = 0
    # theta(R) = (2 (27R - 1) V - 42 W + 12 R) / 3
    t1 = conv_trunc(_map(lambda r: 27 * r, R), V, m)
    fprime = _map(lambda t, v, w, r: _div(2 * (t - v) - 42 * w + 12 * r, 3),
                  t1, V, W[: m + 1], R[: m + 1])
    return {"R": R, "W": W, "V": V, "fprime": fprime}


def _quartic_fzu(ser: dict, b, s) -> Sequence:
    """F''_zu = W theta'(R) R' from the bundle, through z^(order-1)."""
    R, W, V = ser["R"], ser["W"], ser["V"]
    m = len(V) - 1
    # theta'(R) = 4V - 4 W/R ; W/R = (W shifted) * 1/(R shifted).  The
    # shifted R is b times a series with unit constant term
    w_over_r = conv_trunc(W[1:], _recip(_map(lambda r: _div(r, b), R[1:]), m, s), m)
    theta_p = _map(lambda v, x: 4 * v - 4 * _div(x, b), V, w_over_r)
    return conv_trunc(conv_trunc(W, theta_p, m), _diff(R, s), m)


def _cubic_rs(a, b, order: int, s):
    """(R_n s^n, S_n s^n), n = 0..order, for p = 3."""
    if order < 1:
        raise ValueError("order must be >= 1")
    R, S, R2, RS, S2, RS2, D, A = (_vec(s, [0] * (order + 1)) for _ in range(8))
    # (j+1) R_{j+1} and (j+1) S_{j+1}: R' and S' before the division by s
    dR, dS = _vec(s, [0] * order), _vec(s, [0] * order)
    zero = R[0]
    up1, b2 = a + b, b * b  # up1 = (1+u) b
    R[1] = s
    S[1] = _div(2 * a * s, b)
    # A = 48z - 1 + 16(u+1)R + 2(3+u)S - 8(u+1)S^2; D_1 and A_0 never enter
    A[1] = _div((48 * b2 + 16 * up1 * b + 2 * (3 * b + a) * 2 * a) * s, b2)
    # the factors that the products below run backwards
    Rm, Sm, S2m, dRm, dSm, Am = (_Mirror(x, s) for x in (R, S, S2, dR, dS, A))
    for m in range(2, order + 1):
        # extend the products to index m (uses entries < m only)
        R2[m] = _dot(R[1:m], Rm[1:m])
        RS[m] = _dot(R[1:m], Sm[1:m])
        S2[m] = S2m[m] = _dot(S[1:m], Sm[1:m])
        if m >= 3:
            RS2[m] = _dot(R[1 : m - 1], S2m[2:m])
        dk = _div(
            (36 * s * s * b2 if m == 2 else zero)
            + 24 * up1 * b * s * R[m - 1]
            + 4 * up1 * b * RS[m]
            - 4 * up1 * up1 * RS2[m]
            + 4 * up1 * up1 * R2[m],
            b2,
        )
        if m >= 3:
            known_dr = _div(_dot(D[2:m], dRm[1 : m - 1]), s) + dk
            known_ds = _div(_dot(D[2:m], dSm[1 : m - 1]), s)
        else:
            known_dr, known_ds = dk, zero
        known_ra = _dot(R[1:m], Am[1:m])
        R[m] = Rm[m] = _div(known_dr - known_ra, m)
        D[m] = dk - R[m]
        bm = _div((a - 3 * b) * R[m] - 12 * b * s * S[m - 1] + 4 * up1 * RS[m], b)
        known_ds += _div(D[m] * S[1], s)
        S[m] = Sm[m] = _div(known_ds + 2 * bm, m)
        A[m] = Am[m] = _div(16 * up1 * R[m] + 2 * (3 * b + a) * S[m] - 8 * up1 * S2[m], b)
        dR[m - 1] = dRm[m - 1] = m * R[m]
        dS[m - 1] = dSm[m - 1] = m * S[m]
    return R, S


def _cubic_fprime(R: Sequence, S: Sequence, a, b, s) -> Sequence:
    """F' = (2z + S - 2R - S^2)/u - (2R + S^2) for p = 3 (needs u != 0),
    the grouping of 2z/u + S/u - (1 + 1/u)(2R + S^2) that divides by u
    term by term."""
    core = _map(lambda r, q: 2 * r + q, R, conv_trunc(S, S, len(S) - 1))
    return _map(lambda z, x, c: _div((2 * z + x - c) * b, a) - c, _z(s, len(S)), S, core)


# ---------------------------------------------------------------------------
# exact entry points: rational u, lists of rationals indexed by z-power
# ---------------------------------------------------------------------------


def quartic_r_coeffs(u, order: int) -> list:
    """Exact coefficients R_0..R_order of R = z + u Phi(R) for p = 4."""
    a, b, s = weight_scale(u, 4)
    return unscaled(_quartic_r(a, b, order, s), s)


def quartic_series(u, order: int) -> dict:
    """Exact quartic bundle: R, W = Phi(R), V = Phi'(R), F' and F.

    All entries are coefficient lists; R, W and F run through z^order, the
    others through z^(order-1).  The bundle divides by u; at u = 0 the
    closed spanning-tree forms apply instead, R = z, and every entry runs
    through z^order.  F''_zu is built from it by :func:`quartic_fzu`.
    """
    a, b, s = weight_scale(u, 4)
    # through the public entry point, so per-function tracing sees it
    R = scaled(quartic_r_coeffs(u, order), s)
    if a == 0:
        from .trees import phi_theta_tables

        tabs = phi_theta_tables(4, order)
        W = scaled(tabs["phi_x"], s)
        ser = {"R": R, "W": W, "V": _diff(W, s) + [0], "fprime": scaled(tabs["theta_x"], s)}
    else:
        ser = _quartic_bundle(R, a, b, s)
    ser["f"] = _integrate(ser["fprime"], s)[: order + 1]
    return {k: unscaled(v, s) for k, v in ser.items()}


def quartic_fzu(series: dict, u) -> list:
    """Exact F''_zu = d/du F' from the bundle ``quartic_series(u, order)``.

    A coefficient list through z^(order-1), or through z^order at u = 0,
    where F''_zu = W theta'(R) R' reduces to W times F''."""
    a, b, s = weight_scale(u, 4)
    if a == 0:
        W, fprime = (scaled(series[k], s) for k in ("W", "fprime"))
        return unscaled(conv_trunc(W, _diff(fprime, s) + [0], len(W) - 1), s)
    return unscaled(_quartic_fzu({k: scaled(series[k], s) for k in ("R", "W", "V")}, b, s), s)


def cubic_rs_coeffs(u, order: int):
    """Exact coefficients of (R, S) for p = 3 via the rational-derivative
    recurrence; returns two lists indexed by z-power."""
    a, b, s = weight_scale(u, 3)
    R, S = _cubic_rs(a, b, order, s)
    return unscaled(R, s), unscaled(S, s)


def cubic_fprime_coeffs(u, order: int) -> list:
    """Exact F' coefficients for p = 3 through z^order."""
    a, b, s = weight_scale(u, 3)
    if a == 0:
        from .trees import quartic_mullin_coeff

        return [quartic_mullin_coeff(3, n + 1) * (n + 1) for n in range(order + 1)]
    R, S = (scaled(c, s) for c in cubic_rs_coeffs(u, order))
    return unscaled(_cubic_fprime(R, S, a, b, s), s)


# ---------------------------------------------------------------------------
# float entry points: float64 arrays, entry n rescaled by scale**n
# ---------------------------------------------------------------------------


def _require_finite(arrays, order: int, s: float) -> None:
    """Refuse float coefficients that left float64: past the radius the
    rescaled entries grow geometrically and turn into inf and NaN."""
    import numpy as np

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


def cubic_fprime_float(u: float, order: int, scale: float):
    """Rescaled F' coefficients for p = 3 (float engine), a float64 array;
    raises ValueError when an entry is not finite."""
    u, s = float(u), float(scale)
    R, S = _cubic_rs(u, 1.0, order, s)
    fp = _cubic_fprime(R, S, u, 1.0, s)
    _require_finite((fp,), order, s)
    return fp
