"""Order-by-order solution of the implicit map/forest series system.

The pair (R, S) is the unique power-series solution with zero constant term
of

    R = z + u * Phi1(R, S),      S = u * Phi2(R, S),

where Phi1, Phi2 are the tree-weighted doubly hypergeometric tables of
:mod:`forestmaps.trees`.  One fixed-point sweep (R updated first from the
previous S, then S from the current R) gains exactly one z-order, so the
solver runs exactly `order` sweeps, each truncated at the order it is about
to secure; no convergence test is needed.  The sweep is the same for every
p: for even p, Phi2 has no y-free entry and S stays the zero series.  The
series S~ = u Phi2(z, S~) is the same sweep with the empty table in place of
Phi1, so that R stays z.

Every substitution of series into a table goes through
:func:`compose_biv`: Phi1, Phi2 and theta, the inner sums of G and H, and
the univariate outer series of the closed quartic forms, passed as
one-column tables.  Where Y is the zero series it reads only the j = 0
column, so even p costs no bivariate work.

The generating function of forested maps follows as F' = theta(R, S) with
F(0) = 0, the leaf-rooted variant as G' = (1 + 1/u) S, and the
root-edge-outside variant H from its closed expression.  G and H divide by
u only through

    W1 = (R - z)/u = Phi1(R, S),      W2 = S/u = Phi2(R, S),

two exact divisions at u != 0.  At u = 0 the system sits at the regular
point R = z, S = 0 (the spanning-tree case), where W1 and W2 are the
compositions themselves, read from the j = 0 columns; no u = 0 series goes
through symbolic u.

Every solve runs in one exact domain, at a weight u = a/b, where entry n of
a series holds its z^n coefficient times s^n:

* u specialized to an exact rational a/b (lowest terms, b > 0): the z^n
  coefficients of R, S, S~, F, G and H are integer polynomials in u of
  degree below 2n for p = 3 and below n for p >= 4, so the entries are
  Python ints at s = b^2 for p = 3 and s = b for p >= 4 (s = 1 at an
  integral u);
* symbolic u: a = u, the polynomial ``UP_U``, and b = s = 1, so the
  entries are the coefficients themselves, integer polynomials in u.

Multiplying by u multiplies by a and divides by b, dividing by u multiplies
by b and divides by a, and the antiderivative's entry n is s X_{n-1} / n.
Each of these divisions goes through :func:`~forestmaps.exact.exact_div`
and raises ArithmeticError on a nonzero remainder, over Z and over Z[u]
alike.  The public functions take and return rationals (ints where
integral) or polynomials: they scale once on entry and unscale once on
exit.

The public entry points keep u as an argument (``None`` or ``"symbolic"``
is symbolic).  Symbolic solves are quartic in the order and are refused
above MAX_SYMBOLIC_ORDER with :class:`SymbolicOrderError`; use a
specialized u (or :mod:`forestmaps.fast`) for long series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .exact import Q, canon, exact_div, scaled, unscaled
from .series import ZSeries
from .trees import g_inner_table, h_inner_table, lambda_series, phi_theta_tables
from .upoly import UP_U, UPoly

MAX_SYMBOLIC_ORDER = 60


@dataclass
class SolverOutput:
    p: int
    order: int
    u: object  # UP_U for symbolic mode, exact rational otherwise
    R: ZSeries
    S: ZSeries
    S_tilde: ZSeries
    F: ZSeries
    Fprime: ZSeries
    G: Optional[ZSeries]
    H: ZSeries


class SymbolicOrderError(ValueError):
    """A symbolic-u solve above MAX_SYMBOLIC_ORDER was asked for."""


def _mode(u_mode):
    """The weight u as a ring element: the polynomial u for None or
    "symbolic", otherwise the canonical exact value (an int when u is
    integral)."""
    if u_mode is None or u_mode == "symbolic":
        return UP_U
    return canon(u_mode)


def _z_series(order, u):
    """The series z, with entries in the ring of u."""
    zero = u * 0
    return ZSeries.z(order, zero, zero + 1)


class _Domain:
    """The entries of a solve at u = a/b: entry n holds the z^n coefficient
    times s^n.  A rational u is taken in lowest terms (b > 0), with s = b^2
    for p = 3 and s = b for p >= 4; symbolic u is a = u, b = s = 1.
    Symbolic solves above MAX_SYMBOLIC_ORDER are refused here."""

    def __init__(self, p: int, u_mode, order: int):
        self.p = p
        u = _mode(u_mode)
        if isinstance(u, UPoly):
            if order > MAX_SYMBOLIC_ORDER:
                raise SymbolicOrderError(
                    "symbolic u is limited to order %d (cost grows quartically); "
                    "specialize u for longer series" % MAX_SYMBOLIC_ORDER)
            self.a, self.b = u, 1
        else:
            self.a, self.b = u.numerator, u.denominator
        self.s = self.b ** 2 if p == 3 else self.b
        self.zero = self.a * 0

    def z(self, order: int) -> ZSeries:
        return ZSeries.z(order, self.zero, self.zero + self.s)

    def times_u(self, series: ZSeries) -> ZSeries:
        """Multiply by a, then divide exactly by b (at b = 1 there is
        nothing to divide)."""
        a, b = self.a, self.b
        if b == 1:
            return series.scale(a)
        return ZSeries([exact_div(a * c, b) for c in series.coeffs], series.order)

    def div_u(self, series: ZSeries) -> ZSeries:
        """Divide by u (u != 0): multiply by b, then divide exactly by a
        (ArithmeticError on a remainder)."""
        a, b = self.a, self.b
        return ZSeries([exact_div(b * c, a) for c in series.coeffs], series.order)

    def w(self, R: ZSeries, S: ZSeries):
        """(W1, W2) = ((R - z)/u, S/u), which equal (Phi1(R, S), Phi2(R, S)):
        the two divisions at u != 0; at u = 0, where R = z and S = 0, the
        compositions themselves, which read only the j = 0 columns."""
        order = min(R.order, S.order)
        if self.a == 0:
            tables = phi_theta_tables(self.p, order)
            return (compose_biv(tables["phi1"], R, S, order),
                    compose_biv(tables["phi2"], R, S, order))
        return self.div_u(R - self.z(order)), self.div_u(S)

    def integrate(self, series: ZSeries) -> ZSeries:
        return series.integrate(self.s)

    def load(self, series: ZSeries) -> ZSeries:
        """Coefficients x_n as the entries x_n s^n: rationals as ints
        (ArithmeticError where one is not), polynomials as they are."""
        if isinstance(self.a, UPoly):
            return series
        return ZSeries(scaled(series.coeffs, self.s), series.order, 0)

    def unload(self, series: ZSeries) -> ZSeries:
        """Entries X_n as the coefficients X_n / s^n (ints where integral)."""
        if self.s == 1:
            return series
        return ZSeries([c.numerator if c.denominator == 1 else c
                        for c in unscaled(series.coeffs, self.s)], series.order)


def compose_biv(table, x_series: ZSeries, y_series: ZSeries, order: int) -> ZSeries:
    """The table sum c_{ij} X^i Y^j evaluated on truncated series.

    This is the one routine that substitutes series into a table: the tree
    tables of :mod:`forestmaps.trees`, and any univariate outer series
    sum c_k X^k given as the one-column table {(k, 0): c_k} with the zero
    series as Y.  X and Y must have zero constant term; the result is
    truncated at n = min(order, X.order, Y.order), so only the entries with
    i + j <= n enter.  The powers X^i are built once, each product starting
    at valuation i; the columns A_j = sum_i c_{ij} X^i are summed from them
    and combined by Horner in Y, A_0 + Y (A_1 + Y (A_2 + ...)).  When Y is
    the zero series only the j = 0 column is kept, which is how the sweep
    runs at even p, where S = 0.
    """
    zero = x_series.zero_coeff
    if x_series.valuation() == 0 or y_series.valuation() == 0:
        raise ValueError("bivariate composition needs zero constant terms")
    n = min(order, x_series.order, y_series.order)
    y_zero = y_series.is_zero()
    by_j: dict = {}
    for (i, j), c in table.items():
        if i + j <= n and not (y_zero and j):
            by_j.setdefault(j, []).append((i, c))
    if not by_j:
        return ZSeries.zero(n, zero)
    # powers of X up to the largest needed i
    max_i = max(i for terms in by_j.values() for i, _ in terms)
    x = x_series.truncate(n)
    xpow = [ZSeries.const(zero + 1, n, zero), x]
    while len(xpow) <= max_i:
        xpow.append(xpow[-1] * x)
    a_j = {}
    for j, terms in by_j.items():
        acc = ZSeries.zero(n, zero)
        for i, c in terms:
            acc = acc + xpow[i].scale(c)
        a_j[j] = acc
    jmax = max(a_j)
    acc = a_j[jmax]
    for j in range(jmax - 1, -1, -1):
        acc = acc * y_series
        if j in a_j:
            acc = acc + a_j[j]
    return acc


def _compose_column(coeffs, x_series: ZSeries, order: int) -> ZSeries:
    """The univariate series sum c_k X^k, as the one-column table
    {(k, 0): c_k} under :func:`compose_biv`."""
    column = {(k, 0): c for k, c in enumerate(coeffs) if c}
    return compose_biv(column, x_series, ZSeries.zero(order, x_series.zero_coeff), order)


def solve_rs(p: int, order: int, u_mode=None):
    """Solve the defining system for (R, S) through z^order.

    `u_mode` is None (symbolic) or an exact rational.  Every p runs the
    same sweep; for even p, Phi2 has no y-free entry, so S comes out as
    the zero series and Phi1(R, S) reads only the j = 0 column.
    """
    dom = _Domain(p, u_mode, order)
    R, S = _sweep_rs(p, order, dom)
    return dom.unload(R), dom.unload(S)


def _sweep_rs(p: int, order: int, dom, phi1=None):
    """(R, S) through z^order in the coefficient mode `dom`; `phi1`
    replaces the table of Phi1 (the empty table keeps R = z)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    tables = phi_theta_tables(p, order)
    if phi1 is None:
        phi1 = tables["phi1"]
    zero = dom.zero
    z = dom.z(order)
    R = ZSeries.zero(order, zero)
    S = ZSeries.zero(order, zero)

    def pad(series):
        return ZSeries(list(series.coeffs), order, zero)

    for k in range(1, order + 1):
        Sk = S.truncate(k)
        R = pad(z.truncate(k) + dom.times_u(compose_biv(phi1, R.truncate(k), Sk, k)))
        phi2 = compose_biv(tables["phi2"], R.truncate(k), Sk, k)
        S = pad(dom.times_u(phi2))
    return R, S


def _rs(p: int, order: int, dom, rs):
    """The (R, S) a caller passed, in the mode `dom`, or a fresh solve."""
    if rs is None:
        return _sweep_rs(p, order, dom)
    return dom.load(rs[0]), dom.load(rs[1])


def solve_s_tilde(p: int, order: int, u_mode=None) -> ZSeries:
    """The series defined by S~ = u * Phi2(z, S~), S~(0) = 0.

    This is S with every R occurrence replaced by z: the (R, S) sweep with
    the empty table in place of Phi1, so R stays z.  For even p it
    vanishes identically.
    """
    dom = _Domain(p, u_mode, order)
    return dom.unload(_sweep_rs(p, order, dom, phi1={})[1])


def residual_rs(p: int, R: ZSeries, S: ZSeries, u_mode=None):
    """Residuals (R - z - u Phi1(R,S), S - u Phi2(R,S)); both must vanish."""
    u = _mode(u_mode)
    order = min(R.order, S.order)
    tables = phi_theta_tables(p, order)
    z = _z_series(order, u)
    phi1 = compose_biv(tables["phi1"], R, S, order)
    phi2 = compose_biv(tables["phi2"], R, S, order)
    return (R - z - phi1.scale(u), S - phi2.scale(u))


def series_f(p: int, order: int, u_mode=None, rs=None):
    """(F, F') with F' = theta(R, S) and F(0, u) = 0.

    F is exact through z^order, F' through z^(order-1).  For p = 3 the
    shortcut F' = 2 z/u + S/u - (1 + 1/u)(2R + S^2) is asserted against the
    theta-composition, exactly.
    """
    if order < 3:
        raise ValueError("order must be >= 3 (smallest maps have 3 faces)")
    dom = _Domain(p, u_mode, order)
    tables = phi_theta_tables(p, order)
    R, S = _rs(p, order, dom, rs)
    fprime = compose_biv(tables["theta"], R, S, order)
    if p == 3 and dom.a != 0:
        # F' = 2z/u + S/u - (1 + 1/u)(2R + S^2); only the grouped
        # combination (2z + S - 2R - S^2)/u is u-divisible term by term.
        z = dom.z(order)
        core = R.scale(2) + S * S
        shortcut = dom.div_u(z.scale(2) + S - core) - core
        if shortcut != fprime:
            raise AssertionError("cubic F' shortcut disagrees with theta(R, S)")
    f = dom.integrate(fprime).truncate(order)
    return dom.unload(f), dom.unload(fprime)


def series_f_explicit_quartic(order: int, u_mode=None, rs=None) -> ZSeries:
    """The closed 4-valent form F = Psi(R), Psi = int theta - u int theta*Phi'.

    An independent route to F (no integration of the composed series); it
    must agree exactly with :func:`series_f` at p = 4.
    """
    u = _mode(u_mode)
    tables = phi_theta_tables(4, order)
    # x-series over Q, so that the antiderivatives divide as rationals
    theta = ZSeries(tables["theta_x"], order - 1).map_coeffs(Q)
    phi_prime = ZSeries(tables["phi_x"], order).differentiate()
    outer = theta.integrate() - (theta * phi_prime).integrate().scale(u)
    R = rs[0] if rs is not None else solve_rs(4, order, u_mode)[0]
    return _compose_column(outer.coeffs, R, order)


def series_g(order: int, u_mode=None, rs=None):
    """Series of leaf-rooted (quasi-cubic) forested maps, p = 3 only.

    With W2 = S/u, both the closed expression
        G = (1 + 1/u) (zS - u * sum t_{2i+j-1} trinom(i-2,i,j) R^i S^j)
          = (zS - u * inner) + (z W2 - inner)
    and integration of G' = S + W2 are computed; they must agree.
    """
    dom = _Domain(3, u_mode, order)
    R, S = _rs(3, order, dom, rs)
    _, w2 = dom.w(R, S)
    inner = compose_biv(g_inner_table(3, order), R, S, order)
    z = dom.z(order)
    g = (z * S - dom.times_u(inner)) + (z * w2 - inner)
    if g != dom.integrate(S + w2).truncate(order):
        raise AssertionError("closed G expression disagrees with integral of (1+1/u) S")
    return dom.unload(g)


def series_h(p: int, order: int, u_mode=None, rs=None):
    """Series of forested maps whose root edge is outside the forest.

        H = zR/u + z S^2/u - z^2/u - 2 S * sum t_{2i+j-1} trinom(i-2,i,j) R^i S^j
            - sum t_{2i+j-2} trinom(i-3,i,j) R^i S^j,

    whose first three terms are z W1 + z S W2.  Empty inner sums at low
    truncation orders contribute 0.  For even p, S = 0 and H' = 2 W1; the
    integral of that expression is asserted against the closed form.
    """
    if order < 3:
        raise ValueError("order must be >= 3")
    dom = _Domain(p, u_mode, order)
    R, S = _rs(p, order, dom, rs)
    w1, w2 = dom.w(R, S)
    z = dom.z(order)
    h = z * w1 + z * (S * w2)
    h = h - (compose_biv(g_inner_table(p, order), R, S, order) * S).scale(2)
    h = h - compose_biv(h_inner_table(p, order), R, S, order)
    if p % 2 == 0 and dom.integrate(w1.scale(2)).truncate(order) != h:
        raise AssertionError("even-p H' = 2(R-z)/u integral disagrees with H")
    return dom.unload(h)


def quartic_h_via_lambda(order: int, u_mode=None, rs=None) -> ZSeries:
    """H = z W1 - Lambda(R) for p = 4, W1 = (R - z)/u; cross-route for
    series_h."""
    dom = _Domain(4, u_mode, order)
    R = dom.load(rs[0]) if rs is not None else _sweep_rs(4, order, dom)[0]
    w1, _ = dom.w(R, ZSeries.zero(order, dom.zero))
    lam = _compose_column(lambda_series(order), R, order)
    return dom.unload(dom.z(order) * w1 - lam)


def solve(p: int, order: int, u_mode=None) -> SolverOutput:
    """Solve everything: R, S, S~, F, F', G (p = 3), H."""
    u = _mode(u_mode)
    R, S = solve_rs(p, order, u_mode)
    st = solve_s_tilde(p, order, u_mode)
    f, fprime = series_f(p, order, u_mode, rs=(R, S))
    g = None
    if p == 3:
        g = series_g(order, u_mode, rs=(R, S))
    h = series_h(p, order, u_mode, rs=(R, S))
    return SolverOutput(
        p=p, order=order, u=u, R=R, S=S, S_tilde=st, F=f, Fprime=fprime, G=g, H=h
    )
