"""High-order series engines for a specialized (numeric) weight u.

The online solver in :mod:`forestmaps.solver` costs O(order^3) ring
operations; these engines reach orders in the thousands by turning the
defining equations into coefficient recurrences.  Both run in the unknowns
W = Phi(R, S) that u multiplies in R = z + u Phi1 and S = u Phi2, so R and
S come from products, nothing is divided by u, and u = 0 (R = z, S = 0:
the spanning trees) is an ordinary point:

* quartic (p = 4): W = Phi(R), R = z + u W.  Eliminating Phi'' through the
  hypergeometric ODE of Phi gives, divided by u,
      R (27R - 1) W'' + 6 R'^3 (z + (1+u) W) = 0,   z + (1+u) W = R + W,
  which at u = 0 is the ODE of Phi itself.  With W_0 = W_1 = 0 its
  coefficient at z^(n-1) fixes W_n: an O(order^2) recurrence.

* cubic (p = 3): W1 = (R - z)/u = O(z^2) and W2 = S/u = 2z + ..., with
  R = z + u W1 and S = u W2, satisfy
      D W1' + E1 = 0,   D W2' + 2 E2 = 0,
      D  = 36z^2 + (24z - 1 + 24uz) R + 4(u+1) RS - 4(u+1)^2 RS^2
           + 4(u+1)^2 R^2
      E1 = 4(u+4) z^2 + 4(u+1)(u-3)(R+z) W1 + 24(u-1) z W1 + 2(u-1) R W2
           + 4u(1-u^2) R W2^2
      E2 = z + (u-3) W1 + 4(u-2) z W2 + 4u(u+1) W1 W2
  which again gives an O(order^2) recurrence; R^2 is read as z R + u R W1.

From W the bundles follow by products and series quotients: at p = 4
V = Phi'(R) = W'/R' and F' = theta(R) = (2(27R - 1) V - 42 W + 12 R)/3, at
p = 3 F' = W2 - 2 W1 - u W2^2 - (2R + S^2).

Each recurrence, and each series helper, is written once over sequences
whose entry n holds the z^n coefficient times s^n, for a weight u = a/b.
The exact entry points take a rational u and run on lists of Python ints
at the (a, b, s) of :func:`~forestmaps.exact.weight_scale`, where every
stored entry is an integer; a product with u multiplies by a and divides
by b.  Each division goes through `_div`, which raises
ArithmeticError on a nonzero remainder, and entry n becomes the rational
X_n / s^n only in the returned lists.  The
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
passes both to BLAS without copying them.  The O(n) steps (derivatives and
F') are whole-array expressions over floats, each with the roundings of the
entrywise formula.  Both recurrences are validated against the online
solver in the test suite, the float runs against the exact ones on a shared
prefix and against extended-precision runs over their full length.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import Sequence

from .exact import exact_div, scaled, unscaled, weight_scale

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


_LISTS = (list, tuple)  # a tuple is the coefficients of a ZSeries


def _div(x, d):
    """x / d.  Between ints this is :func:`~forestmaps.exact.exact_div`: a
    nonzero remainder raises ArithmeticError.  Otherwise (a rational or
    float operand, or an array) it is plain true division, entrywise on an
    array."""
    # exact types, not isinstance: numpy scalars would walk a long MRO
    if type(x) is int and type(d) is int:
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


def _quotient(x: Sequence, d: Sequence, n: int, s) -> Sequence:
    """The series x / d through index n, for d[0] != 0, by one triangular
    solve: q_k = (x_k - sum_{j>=1} d_j q_{k-j}) / d_0, each an exact
    division over ints."""
    if d[0] == 0:
        raise ZeroDivisionError("the quotient needs a divisor with a nonzero constant term")
    q = _vec(s, [0] * (n + 1))
    back = _Mirror(q, s)
    for k in range(n + 1):
        j = min(k, len(d) - 1)
        q[k] = back[k] = _div(x[k] - _dot(d[1 : j + 1], back[k - j : k]), d[0])
    return q


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


def _quartic(a, b, order: int, s):
    """(R_n s^n, W_n s^n), n = 0..order, for W = Phi(R), R = z + u W at p = 4."""
    if order < 1:
        raise ValueError("order must be >= 1")
    # P = R (27R - 1) and L = z + (1+u) W = W + R, through index n - 1 at step
    # n; Rp = R', B2 = R'^2 and C = R'^3 through n - 2; wpp = W'' through n - 3
    R, W, R2, P, L = (_vec(s, [0] * (order + 1)) for _ in range(5))
    Rp, B2, C, wpp = (_vec(s, [0] * order) for _ in range(4))
    R[1] = s
    # the factors that the products below run backwards
    Rm, Rpm, Cm, wppm = (_Mirror(x, s) for x in (R, Rp, C, wpp))
    for n in range(2, order + 1):
        k = n - 1
        R2[k] = _dot(R[1:k], Rm[1:k])
        P[k] = 27 * R2[k] - R[k]
        L[k] = W[k] + R[k]
        Rp[k - 1] = Rpm[k - 1] = _div(k * R[k], s)
        B2[k - 1] = _dot(Rp[0:k], Rpm[0:k])
        C[k - 1] = Cm[k - 1] = _dot(B2[0:k], Rpm[0:k])
        if k >= 2:
            wpp[k - 2] = wppm[k - 2] = _div(k * (k - 1) * W[k], s * s)
        # the ODE at z^(n-1), whose P_1 = -1 term is -n (n-1) W_n
        known = _dot(P[2:n], wppm[0 : n - 2]) + 6 * _dot(L[1:n], Cm[0 : n - 1])
        W[n] = _div(s * known, n * (n - 1))
        R[n] = Rm[n] = _div(a * W[n], b)
    return R, W


def _quartic_bundle(R: Sequence, W: Sequence, s) -> dict:
    """V = Phi'(R) = W'/R' and F' = theta(R) from R and W = Phi(R).

    R and W run through z^order, V and F' through z^(order-1)."""
    m = len(R) - 2
    V = _quotient(_diff(W, s), _diff(R, s), m, s)
    # theta(R) = (2 (27R - 1) V - 42 W + 12 R) / 3
    t1 = conv_trunc(_map(lambda r: 27 * r, R), V, m)
    fprime = _map(lambda t, v, w, r: _div(2 * (t - v) - 42 * w + 12 * r, 3),
                  t1, V, W[: m + 1], R[: m + 1])
    return {"R": R, "W": W, "V": V, "fprime": fprime}


def _quartic_fzu(ser: dict, s) -> Sequence:
    """F''_zu = W theta'(R) R' from the bundle, through z^(order-1)."""
    R, W, V = ser["R"], ser["W"], ser["V"]
    m = len(V) - 1
    # theta'(R) = 4V - 4 W/R, where W/R is the quotient of W and R shifted
    # down by one index
    theta_p = _map(lambda v, x: 4 * (v - x), V, _quotient(W[1:], R[1:], m, s))
    return conv_trunc(conv_trunc(W, theta_p, m), _diff(R, s), m)


def _cubic(a, b, order: int, s):
    """(R, S, W1, W2), entries X_n s^n, n = 0..order, for p = 3, with
    R = z + u W1 and S = u W2."""
    if order < 1:
        raise ValueError("order must be >= 1")
    R, S, W1, W2, RW1, RW2, Q, RQ, W12, D = (_vec(s, [0] * (order + 1)) for _ in range(10))
    # (j+1) W1_{j+1} and (j+1) W2_{j+1}: W1' and W2' before the division by s
    dW1, dW2 = _vec(s, [0] * order), _vec(s, [0] * order)
    up1, am1, b2 = a + b, a - b, b * b  # up1 = (1+u) b, am1 = (u-1) b
    R[1] = s
    S[1] = _div(2 * a * s, b)
    W2[1] = dW2[0] = 2 * s
    D[1] = -s
    # the factors that the products below run backwards
    Rm, W1m, W2m, Qm, dW1m, dW2m = (_Mirror(x, s) for x in (R, W1, W2, Q, dW1, dW2))
    for m in range(2, order + 1):
        # the products at index m (entries < m only): R W1, R W2, Q = W2^2,
        # R Q and W1 W2
        RW1[m] = _dot(R[1:m], W1m[1:m])
        RW2[m] = _dot(R[1:m], W2m[1:m])
        Q[m] = Qm[m] = _dot(W2[1:m], W2m[1:m])
        RQ[m] = _dot(R[1 : m - 1], Qm[2:m])
        W12[m] = _dot(W1[2:m], W2m[1 : m - 1])
        zr, zw1 = s * R[m - 1], s * W1[m - 1]
        # b^3 E1
        e1 = (4 * (a + 4 * b) * b2 * s * s if m == 2 else 0) \
            + 4 * up1 * (a - 3 * b) * b * (RW1[m] + zw1) + 24 * am1 * b2 * zw1 \
            + 2 * am1 * b2 * RW2[m] - 4 * a * am1 * up1 * RQ[m]
        W1[m] = W1m[m] = _div(_div(_dot(D[2:m], dW1m[1 : m - 1]), s) + _div(e1, b2 * b), m)
        R[m] = Rm[m] = _div(a * W1[m], b)
        # b^4 D_m with R^2 = z R + u R W1, RS = u R W2 and R S^2 = u^2 R Q
        d = (36 * b2 * b2 * s * s if m == 2 else 0) + 4 * up1 * b2 * (6 * b + up1) * zr \
            + 4 * up1 * (up1 * a * b * RW1[m] + a * b2 * RW2[m] - up1 * a * a * RQ[m])
        D[m] = _div(d, b2 * b2) - R[m]
        # b^2 E2
        e2 = (a - 3 * b) * b * W1[m] + 4 * (a - 2 * b) * b * s * W2[m - 1] + 4 * a * up1 * W12[m]
        W2[m] = W2m[m] = _div(_div(_dot(D[2 : m + 1], dW2m[0 : m - 1]), s) + 2 * _div(e2, b2), m)
        S[m] = _div(a * W2[m], b)
        dW1[m - 1] = dW1m[m - 1] = m * W1[m]
        dW2[m - 1] = dW2m[m - 1] = m * W2[m]
    return R, S, W1, W2


def _cubic_fprime(W1: Sequence, W2: Sequence, a, b, s) -> Sequence:
    """F' = W2 - 2 W1 - u W2^2 - (2R + S^2) for p = 3, with R = z + u W1
    and S = u W2: W2 - 2z - 2(1+u) W1 - u(1+u) W2^2."""
    up1 = a + b
    q = conv_trunc(W2, W2, len(W2) - 1)
    return _map(lambda z, w1, w2, q: w2 - 2 * z - _div(2 * up1 * w1, b) - _div(a * up1 * q, b * b),
                _z(s, len(W2)), W1, W2, q)


# ---------------------------------------------------------------------------
# exact entry points: rational u, lists of rationals indexed by z-power
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _quartic_run(u, order: int) -> tuple:
    """The scaled (R, W) of the exact quartic recurrence at the rational u,
    as tuples.  The last run is kept: :func:`quartic_series` takes R from
    :func:`quartic_r_coeffs`, which per-function tracing sees, and W from
    the same run."""
    a, b, s = weight_scale(u, 4)
    return tuple(map(tuple, _quartic(a, b, order, s)))


def quartic_r_coeffs(u, order: int) -> list:
    """Exact coefficients R_0..R_order of R = z + u Phi(R) for p = 4."""
    return unscaled(_quartic_run(u, order)[0], weight_scale(u, 4)[2])


def quartic_series(u, order: int) -> dict:
    """Exact quartic bundle: R, W = Phi(R), V = Phi'(R), F' and F.

    All entries are coefficient lists; R, W and F run through z^order, the
    others through z^(order-1), at u = 0 as at every other u.  F''_zu is
    built from it by :func:`quartic_fzu`.
    """
    s = weight_scale(u, 4)[2]
    R = scaled(quartic_r_coeffs(u, order), s)
    ser = _quartic_bundle(R, _quartic_run(u, order)[1], s)
    ser["f"] = _integrate(ser["fprime"], s)
    return {k: unscaled(v, s) for k, v in ser.items()}


def quartic_fzu(series: dict, u) -> list:
    """Exact F''_zu = d/du F' from the bundle ``quartic_series(u, order)``,
    a coefficient list through z^(order-1)."""
    s = weight_scale(u, 4)[2]
    return unscaled(_quartic_fzu({k: scaled(series[k], s) for k in ("R", "W", "V")}, s), s)


def cubic_rs_coeffs(u, order: int):
    """Exact coefficients of (R, S) for p = 3 via the rational-derivative
    recurrence; returns two lists indexed by z-power."""
    a, b, s = weight_scale(u, 3)
    R, S, _, _ = _cubic(a, b, order, s)
    return unscaled(R, s), unscaled(S, s)


def cubic_fprime_coeffs(u, order: int) -> list:
    """Exact F' coefficients for p = 3 through z^order."""
    a, b, s = weight_scale(u, 3)
    _, _, W1, W2 = _cubic(a, b, order, s)
    return unscaled(_cubic_fprime(W1, W2, a, b, s), s)


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
    ser = _quartic_bundle(*_quartic(u, 1.0, order, s), s)
    ser["fsecond"] = _diff(ser["fprime"], s)
    _require_finite(ser.values(), order, s)
    ser["scale"] = s
    return ser


def cubic_fprime_float(u: float, order: int, scale: float):
    """Rescaled F' coefficients for p = 3 (float engine), a float64 array;
    raises ValueError when an entry is not finite."""
    u, s = float(u), float(scale)
    fp = _cubic_fprime(*_cubic(u, 1.0, order, s)[2:], u, 1.0, s)
    _require_finite((fp,), order, s)
    return fp
