"""Order-by-order solution of the implicit map/forest series system.

The pair (R, S) is the unique power-series solution with zero constant term
of

    R = z + u * Phi1(R, S),      S = u * Phi2(R, S),

where Phi1, Phi2 are the tree-weighted doubly hypergeometric tables of
:mod:`forestmaps.trees`.  One fixed-point sweep (R updated first from the
previous S, then S from the current R) gains exactly one z-order, so the
solver runs exactly `order` sweeps, each truncated at the order it is about
to secure; no convergence test is needed.

The generating function of forested maps follows as F' = theta(R, S) with
F(0) = 0, the leaf-rooted variant as G' = (1 + 1/u) S, and the
root-edge-outside variant H from its closed expression.

Two coefficient modes share this implementation: symbolic u (UPoly
coefficients) and u specialized to an exact rational.  Symbolic mode is
quartic in the order and is refused above MAX_SYMBOLIC_ORDER; use the
specialized mode (or :mod:`forestmaps.fast`) for long series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .exact import Q, canon
from .series import ZSeries
from .trees import g_inner_table, h_inner_table, lambda_series, phi_theta_tables
from .upoly import UP_U, UPoly

MAX_SYMBOLIC_ORDER = 60


@dataclass
class SolverOutput:
    p: int
    order: int
    u: Optional[object]  # None for symbolic mode, exact rational otherwise
    R: ZSeries
    S: ZSeries
    S_tilde: ZSeries
    F: ZSeries
    Fprime: ZSeries
    G: Optional[ZSeries]
    H: ZSeries


def _mode(u_mode):
    """Normalize the u parameter: None means symbolic, otherwise the
    canonical exact value (an int when u is integral)."""
    if u_mode is None or u_mode == "symbolic":
        return None
    return canon(u_mode)


def _u_factor(u):
    return UP_U if u is None else u


def _zero_coeff(u):
    return UPoly() if u is None else 0


def _z_series(order, u):
    if u is None:
        return ZSeries.z(order, UPoly(), UPoly((1,)))
    return ZSeries.z(order, 0, 1)


def compose_biv(table, x_series: ZSeries, y_series: ZSeries, order: int) -> ZSeries:
    """Evaluate a bivariate table sum c_{ij} X^i Y^j on truncated series.

    X and Y must have zero constant term; the table is assumed truncated at
    total degree <= order, which matches an order-correct substitution.
    Grouped as Horner in Y over precomputed polynomials in X.
    """
    zero = x_series.zero_coeff
    if x_series.valuation() == 0 or y_series.valuation() == 0:
        raise ValueError("bivariate composition needs zero constant terms")
    n = min(order, x_series.order, y_series.order)
    by_j: dict = {}
    for (i, j), c in table.items():
        if i + j <= n:
            by_j.setdefault(j, []).append((i, c))
    if not by_j:
        return ZSeries.zero(n, zero)
    # powers of X up to the largest needed i
    max_i = max((i for terms in by_j.values() for i, _ in terms), default=0)
    xpow = [ZSeries.const(zero + 1, n, zero)]
    for _ in range(max_i):
        xpow.append((xpow[-1] * x_series).truncate(n) if len(xpow) > 1 else x_series.truncate(n))
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


def solve_rs(p: int, order: int, u_mode=None, force_bivariate: bool = False):
    """Solve the defining system for (R, S) through z^order.

    `u_mode` is None (symbolic) or an exact rational.  For even p the
    second series vanishes identically and the univariate simplification is
    used unless `force_bivariate` asks for the full system (the two must
    agree; that equality is a test).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    u = _mode(u_mode)
    if u is None and order > MAX_SYMBOLIC_ORDER:
        raise ValueError(
            "symbolic-u solves are limited to order %d; specialize u for long series"
            % MAX_SYMBOLIC_ORDER
        )
    tables = phi_theta_tables(p, order)
    zero = _zero_coeff(u)
    ufac = _u_factor(u)
    z = _z_series(order, u)
    R = ZSeries.zero(order, zero)
    S = ZSeries.zero(order, zero)
    even = p % 2 == 0 and not force_bivariate

    def pad(series):
        return ZSeries(list(series.coeffs), order, zero)

    for k in range(1, order + 1):
        Rk, Sk = R.truncate(k), S.truncate(k)
        if even:
            phi1 = Rk.compose_outer(tables["phi_x"])
        else:
            phi1 = compose_biv(tables["phi1"], Rk, Sk, k)
        R = pad(z.truncate(k) + phi1.scale(ufac))
        if not even:
            phi2 = compose_biv(tables["phi2"], R.truncate(k), Sk, k)
            S = pad(phi2.scale(ufac))
    return R, S


def solve_s_tilde(p: int, order: int, u_mode=None) -> ZSeries:
    """The series defined by S~ = u * Phi2(z, S~), S~(0) = 0.

    Structurally this is S with every R occurrence replaced by z, so for
    even p it vanishes identically.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    u = _mode(u_mode)
    zero = _zero_coeff(u)
    if p % 2 == 0:
        return ZSeries.zero(order, zero)
    if u is None and order > MAX_SYMBOLIC_ORDER:
        raise ValueError("symbolic-u solves are limited to order %d" % MAX_SYMBOLIC_ORDER)
    tables = phi_theta_tables(p, order)
    ufac = _u_factor(u)
    z = _z_series(order, u)
    st = ZSeries.zero(order, zero)
    for k in range(1, order + 1):
        stk = compose_biv(tables["phi2"], z.truncate(k), st.truncate(k), k).scale(ufac)
        st = ZSeries(list(stk.coeffs), order, zero)
    return st


def residual_rs(p: int, R: ZSeries, S: ZSeries, u_mode=None):
    """Residuals (R - z - u Phi1(R,S), S - u Phi2(R,S)); both must vanish."""
    u = _mode(u_mode)
    order = min(R.order, S.order)
    tables = phi_theta_tables(p, order)
    ufac = _u_factor(u)
    z = _z_series(order, u)
    if p % 2 == 0 and S.is_zero():
        phi1 = R.compose_outer(tables["phi_x"])
    else:
        phi1 = compose_biv(tables["phi1"], R, S, order)
    phi2 = compose_biv(tables["phi2"], R, S, order)
    return (R - z - phi1.scale(ufac), S - phi2.scale(ufac))


def _div_u(series: ZSeries, u, power: int = 1) -> ZSeries:
    """Divide by u**power: exact polynomial division (symbolic) or scalar."""
    if u is None:
        return series.divide_by_u(power)
    if u == 0:
        raise ZeroDivisionError("cannot divide by u at u = 0; use symbolic mode")
    return series.scale(Q(1) / u ** power)


def series_f(p: int, order: int, u_mode=None, rs=None):
    """(F, F') with F' = theta(R, S) and F(0, u) = 0.

    F is exact through z^order, F' through z^(order-1).  For p = 3 the
    shortcut F' = 2 z/u + S/u - (1 + 1/u)(2R + S^2) is asserted against the
    theta-composition, exactly.
    """
    if order < 3:
        raise ValueError("order must be >= 3 (smallest maps have 3 faces)")
    u = _mode(u_mode)
    tables = phi_theta_tables(p, order)
    R, S = rs if rs is not None else solve_rs(p, order, u_mode)
    if p % 2 == 0:
        fprime = R.compose_outer(tables["theta_x"])
    else:
        fprime = compose_biv(tables["theta"], R, S, order)
    if p == 3 and not (u is not None and u == 0):
        # F' = 2z/u + S/u - (1 + 1/u)(2R + S^2); only the grouped
        # combination (2z + S - 2R - S^2)/u is u-divisible term by term.
        z = _z_series(order, u)
        core = R.scale(2) + S * S
        shortcut = _div_u(z.scale(2) + S - core, u) - core
        if shortcut != fprime:
            raise AssertionError("cubic F' shortcut disagrees with theta(R, S)")
    f = fprime.integrate().truncate(order)
    return f, fprime


def series_f_explicit_quartic(order: int, u_mode=None, rs=None) -> ZSeries:
    """The closed 4-valent form F = Psi(R), Psi = int theta - u int theta*Phi'.

    An independent route to F (no integration of the composed series); it
    must agree exactly with :func:`series_f` at p = 4.
    """
    u = _mode(u_mode)
    tables = phi_theta_tables(4, order)
    theta = tables["theta_x"]
    phi = tables["phi_x"]
    phi_prime = [phi[i + 1] * (i + 1) for i in range(order)] + [0]
    # polynomial (in x) products and antiderivatives, truncated at x^order
    tphi = [0] * (order + 1)
    for i, a in enumerate(theta):
        if a == 0:
            continue
        for j in range(order + 1 - i):
            if phi_prime[j] != 0:
                tphi[i + j] += a * phi_prime[j]
    psi1 = [0] + [theta[i] * Q(1, i + 1) for i in range(order)]
    psi2 = [0] + [tphi[i] * Q(1, i + 1) for i in range(order)]
    if u is None:
        outer = [UPoly((psi1[k],)) - UP_U * psi2[k] for k in range(order + 1)]
    else:
        outer = [psi1[k] - u * psi2[k] for k in range(order + 1)]
    R = rs[0] if rs is not None else solve_rs(4, order, u_mode)[0]
    return R.compose_outer(outer)


def series_g(order: int, u_mode=None, rs=None):
    """Series of leaf-rooted (quasi-cubic) forested maps, p = 3 only.

    Both the closed expression
        G = (1 + 1/u) (zS - u * sum t_{2i+j-1} trinom(i-2,i,j) R^i S^j)
    and integration of G' = (1 + 1/u) S are computed; they must agree.
    """
    u = _mode(u_mode)
    if u is not None and u == 0:
        # G(z, 0) is a genuine limit; go through the symbolic series.
        g = series_g(order, None, rs=None)
        return g.specialize_u(0)
    R, S = rs if rs is not None else solve_rs(3, order, u_mode)
    inner = compose_biv(g_inner_table(3, order), R, S, order)
    z = _z_series(order, u)
    ufac = _u_factor(u)
    expr = z * S - inner.scale(ufac)
    g = expr + _div_u(expr, u)
    g_from_integral = (S + _div_u(S, u)).integrate().truncate(order)
    if g != g_from_integral:
        raise AssertionError("closed G expression disagrees with integral of (1+1/u) S")
    return g


def series_h(p: int, order: int, u_mode=None, rs=None):
    """Series of forested maps whose root edge is outside the forest.

        H = zR/u + z S^2/u - z^2/u - 2 S * sum t_{2i+j-1} trinom(i-2,i,j) R^i S^j
            - sum t_{2i+j-2} trinom(i-3,i,j) R^i S^j

    Empty inner sums at low truncation orders contribute 0.  For even p,
    S = 0 and H' = 2 (R - z)/u; the integral of that expression is asserted
    against the closed form.
    """
    if order < 3:
        raise ValueError("order must be >= 3")
    u = _mode(u_mode)
    if u is not None and u == 0:
        h = series_h(p, order, None, rs=None)
        return h.specialize_u(0)
    R, S = rs if rs is not None else solve_rs(p, order, u_mode)
    z = _z_series(order, u)
    # (zR + zS^2 - z^2) is divisible by u because R - z and S are
    core = z * (R - z) + z * (S * S)
    h = _div_u(core, u)
    h = h - (compose_biv(g_inner_table(p, order), R, S, order) * S).scale(2)
    h = h - compose_biv(h_inner_table(p, order), R, S, order)
    if p % 2 == 0:
        hp = _div_u((R - z).scale(2), u)
        if hp.integrate().truncate(order) != h:
            raise AssertionError("even-p H' = 2(R-z)/u integral disagrees with H")
    return h


def quartic_h_via_lambda(order: int, u_mode=None, rs=None) -> ZSeries:
    """H = zR/u - z^2/u - Lambda(R) for p = 4; cross-route for series_h."""
    u = _mode(u_mode)
    R = rs[0] if rs is not None else solve_rs(4, order, u_mode)[0]
    z = _z_series(order, u)
    lam = lambda_series(order)
    if u is None:
        lam_outer = [UPoly((c,)) for c in lam]
    else:
        lam_outer = lam
    return _div_u(z * (R - z), u) - R.compose_outer(lam_outer)


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
