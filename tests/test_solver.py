"""The implicit solver against printed expansions and internal identities."""

from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forestmaps import solver
from forestmaps.deverify import perturb
from forestmaps.exact import Q
from forestmaps.series import ZSeries
from forestmaps.solver import (
    _Domain,
    _sweep_rs,
    compose_biv,
    quartic_h_via_lambda,
    residual_rs,
    series_f,
    series_f_explicit_quartic,
    series_g,
    series_h,
    solve,
    solve_rs,
    solve_s_tilde,
)
from forestmaps.trees import phi_theta_tables
from forestmaps.upoly import UPoly


def upoly(*coeffs):
    return UPoly([Q(c) for c in coeffs])


def test_quartic_r_expansion():
    R, S = solve_rs(4, 3)
    assert R.coeff(1) == upoly(1)
    assert R.coeff(2) == upoly(0, 3)          # 3u
    assert R.coeff(3) == upoly(0, 30, 18)     # 6u(3u+5)
    assert S.is_zero()


def test_cubic_r_expansion():
    R, _ = solve_rs(3, 3)
    assert R.coeff(2) == upoly(0, 6, 4)                 # 2u(2u+3)
    assert R.coeff(3) == upoly(0, 140, 252, 168, 40)    # 4u(35+63u+42u^2+10u^3)


def test_u_zero_collapse():
    for p in (3, 4, 5):
        R, S = solve_rs(p, 6, 0)
        assert R == ZSeries.z(6)
        assert S.is_zero()


def test_system_residuals_vanish():
    for p in (3, 4, 5, 6):
        R, S = solve_rs(p, 12)
        r1, r2 = residual_rs(p, R, S)
        assert r1.is_zero() and r2.is_zero(), p
        # Phi2 has no y-free entry at even p, so the sweep keeps S at 0
        assert S.is_zero() == (p % 2 == 0), p


# coefficient kinds of the two modes and of rational tables: (entries, zero)
KINDS = {
    "int": (st.integers(-9, 9), 0),
    "Fraction": (st.fractions(-5, 5, max_denominator=6).map(Q), Q(0)),
    "UPoly": (st.lists(st.fractions(-3, 3, max_denominator=4), max_size=3).map(UPoly),
              UPoly()),
}


@st.composite
def compose_cases(draw):
    """(table, X, Y, order) in one coefficient kind; Y is the zero series
    in about half of the cases, and about half of the tables have a constant
    term."""
    entry, zero = KINDS[draw(st.sampled_from(sorted(KINDS)))]

    def series():
        n = draw(st.integers(0, 6))
        return ZSeries([zero] + draw(st.lists(entry, min_size=n, max_size=n)), n, zero)

    x = series()
    y = ZSeries.zero(draw(st.integers(0, 6)), zero) if draw(st.booleans()) else series()
    keys = st.tuples(st.integers(0, 5), st.integers(0, 5))
    table = draw(st.dictionaries(keys, entry, max_size=8))
    if draw(st.booleans()):
        table[(0, 0)] = draw(entry)
    return table, x, y, draw(st.integers(0, 6))


def _termwise(table, x, y, n):
    """sum c_ij X^i Y^j through z^n by explicit repeated products, with every
    entry of the table (those of i + j > n vanish through z^n)."""
    zero = x.zero_coeff
    total = ZSeries.zero(n, zero)
    for (i, j), c in table.items():
        term = ZSeries.const(zero + 1, n, zero)
        for factor in [x] * i + [y] * j:
            term = term * factor
        total = total + term.scale(c)
    return total


@settings(max_examples=200, deadline=None)
@given(compose_cases())
def test_compose_biv_matches_termwise_products(case):
    table, x, y, order = case
    n = min(order, x.order, y.order)
    got = compose_biv(table, x, y, order)
    assert got.order == n
    assert got.coeffs == _termwise(table, x, y, n).coeffs


def test_compose_biv_reads_only_the_first_column_at_zero_y():
    class Unread:
        def __rmul__(self, other):
            raise AssertionError("an entry with j > 0 was read")

    x = ZSeries.z(5, 0, 1)
    got = compose_biv({(1, 0): 2, (0, 1): Unread(), (2, 2): Unread()}, x,
                      ZSeries.zero(5, 0), 5)
    assert got.coeffs == (0, 2, 0, 0, 0, 0)
    with pytest.raises(ValueError):  # Y with a constant term
        compose_biv({(1, 0): 2}, x, ZSeries([1, 1], 5, 0), 5)


def test_specialize_before_equals_after():
    u0 = Q(5, 7)
    for p in (3, 4):
        out = solve(p, 12)
        spec = solve(p, 12, u0)
        for a, b in (
            (out.R, spec.R), (out.S, spec.S), (out.S_tilde, spec.S_tilde),
            (out.F, spec.F), (out.H, spec.H),
        ):
            assert a.specialize_u(u0) == b
        if p == 3:
            assert out.G.specialize_u(u0) == spec.G


SOLVED = ("R", "S", "S_tilde", "F", "Fprime", "G", "H")


@cache
def _symbolic_solve(p, order):
    return solve(p, order)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([3, 4, 5, 6]), order=st.integers(3, 10),
       a=st.integers(-10**6, 10**6).filter(bool), b=st.integers(1, 10**6))
@example(p=3, order=10, a=-1, b=1)
@example(p=4, order=10, a=-1, b=1)
@example(p=5, order=10, a=-1, b=1)
@example(p=6, order=10, a=-1, b=1)
def test_rational_solve_is_the_symbolic_solve_specialized(p, order, a, b):
    # the scaled-int sweep against the UPoly sweep evaluated at u = a/b
    u = Q(a, b)
    symbolic, spec = _symbolic_solve(p, order), solve(p, order, u)
    for name in SOLVED:
        ref = getattr(symbolic, name)
        if ref is None:
            assert getattr(spec, name) is None
        else:
            assert ref.specialize_u(u) == getattr(spec, name), name


def test_corrupted_scaled_operand_is_refused():
    # one scaled entry off by one leaves a remainder at the next exact division
    u = Q(47, 89)
    dom = _Domain(3, u, 10)
    R, S = _sweep_rs(3, 10, dom)
    phi2 = phi_theta_tables(3, 10)["phi2"]
    dom.times_u(compose_biv(phi2, R, S, 10))
    with pytest.raises(ArithmeticError):  # the S update of the last sweep step
        dom.times_u(compose_biv(phi2, perturb(R, 10, 1), S, 10))
    dom.div_u(S)
    with pytest.raises(ArithmeticError):
        dom.div_u(perturb(S, 5, 1))
    # through the public entry points: X_n + 1 is x_n + 1/s^n
    rs = solve_rs(3, 10, u)
    with pytest.raises(ArithmeticError):  # the /u of the cubic F' shortcut
        series_f(3, 10, u, rs=(perturb(rs[0], 6, Q(1, 89 ** 12)), rs[1]))
    u = Q(-5, 9)
    R4 = solve_rs(4, 12, u)[0]
    with pytest.raises(ArithmeticError):  # the /u of H's z(R - z)
        series_h(4, 12, u, rs=(perturb(R4, 7, Q(1, 9 ** 7)), ZSeries.zero(12, 0)))
    with pytest.raises(ArithmeticError):
        quartic_h_via_lambda(12, u, rs=(perturb(R4, 7, Q(1, 9 ** 7)),))


def test_corrupted_symbolic_operand_is_refused():
    # the symbolic twin of the u = 3/7 refusal: a bumped R gives F a
    # coefficient outside Z[u] (1272/5 + 216u + 54u^2 at z^5)
    R, S = solve_rs(4, 8)
    with pytest.raises(ArithmeticError, match="inexact division by 5"):
        series_f(4, 8, rs=(perturb(R, 3, upoly(1)), S))
    R, S = solve_rs(4, 8, Q(3, 7))
    with pytest.raises(ArithmeticError, match="inexact division by 5"):
        series_f(4, 8, Q(3, 7), rs=(perturb(R, 3, 1), S))
    R, S = solve_rs(3, 8)
    with pytest.raises(ArithmeticError):  # the /u of the cubic F' shortcut
        series_f(3, 8, rs=(perturb(R, 4, 1), S))


def test_forest_series_printed_coefficients():
    f, _ = series_f(3, 4)
    assert f.coeff(3) == upoly(6, 4)
    assert f.coeff(4) == upoly(140, 234, 144, 32)
    assert f.coeff(0).is_zero()  # F(0, u) = 0


def test_quartic_explicit_form_matches():
    assert series_f_explicit_quartic(6) == series_f(4, 6)[0]
    assert series_f_explicit_quartic(10, Q(1)) == series_f(4, 10, Q(1))[0]
    assert series_f_explicit_quartic(8, Q(0)) == series_f(4, 8, Q(0))[0]


def test_quasi_cubic_series():
    g = series_g(5)
    assert g.coeff(0).is_zero() and g.coeff(1).is_zero()
    assert g.coeff(2) == upoly(1, 1)  # the unique 2-face map, forests {} / {bridge}
    gp = g.differentiate()
    # [z] G'(z, 0) = 2 (the u -> 0 limit of (1 + 1/u) S)
    assert gp.coeff(1).coeff(0) == 2


def test_root_edge_outside_series():
    h3 = series_h(3, 4)
    assert h3.coeff(3) == upoly(4, 4)
    h4 = series_h(4, 4)
    assert h4.coeff(3) == upoly(2)
    assert quartic_h_via_lambda(4) == h4
    assert h4.coeff(0).is_zero()


def test_even_h_prime_shortcut():
    # checked internally by series_h; do it explicitly once more at p=6
    out = solve(6, 8)
    z = ZSeries.z(8, UPoly(), UPoly((1,)))
    hp = (out.R - z).scale(Q(2)).divide_by_u()
    assert hp.integrate().truncate(8) == out.H


def test_s_tilde_is_s_with_r_replaced_by_z():
    # run the sweep with the first equation's table emptied: R stays z and
    # the second unknown becomes S~ by construction
    order = 8
    for p, u in ((3, None), (5, None), (3, Q(-3, 7))):
        tabs = phi_theta_tables(p, order)
        weight = UPoly.u() if u is None else u
        zero = weight * 0
        z = ZSeries.z(order, zero, zero + 1)
        st = ZSeries.zero(order, zero)
        for k in range(1, order + 1):
            stk = compose_biv(tabs["phi2"], z.truncate(k), st.truncate(k), k) \
                .scale(weight)
            st = ZSeries(list(stk.coeffs), order, zero)
        assert st == solve_s_tilde(p, order, u), (p, u)


def test_u_zero_builds_no_symbolic_domain(monkeypatch):
    # at u = 0 the series divided by u are Phi1(z, 0) and Phi2(z, 0): no
    # symbolic solve is needed, whatever the symbolic order limit
    order = 12
    g_ref = series_g(order).specialize_u(0)
    h_ref = {p: series_h(p, order).specialize_u(0) for p in (3, 4, 5, 6)}
    monkeypatch.setattr(solver, "MAX_SYMBOLIC_ORDER", 0)
    assert series_g(order, 0) == g_ref
    for p, ref in h_ref.items():
        assert series_h(p, order, 0) == ref, p
    assert quartic_h_via_lambda(order, 0) == series_h(4, order, 0)


def test_s_tilde_even_p_vanishes():
    assert solve_s_tilde(4, 6).is_zero()


def test_mu_expansion_printed_terms():
    out = solve(3, 4)
    z = ZSeries.z(4, UPoly(), UPoly((1,)))
    r_mu = (out.R - z).divide_by_u().to_mu()
    assert r_mu.coeff(2) == upoly(2, 4)          # 2(2mu+1)
    assert r_mu.coeff(3) == upoly(16, 36, 48, 40)
    s_mu = out.S.divide_by_u().to_mu()
    assert s_mu.coeff(1) == upoly(2)
    assert s_mu.coeff(2) == upoly(6, 12, 12)     # 6(2mu^2+2mu+1)
    st_mu = out.S_tilde.divide_by_u().to_mu()
    assert st_mu.coeff(2) == upoly(10, 16, 4)    # 2(2mu^2+8mu+5)
    const = ZSeries.const(UPoly((7,)), 3, UPoly())
    assert const.to_mu() == const  # u-free series unchanged


def test_mu_divisibility_guard():
    out = solve(3, 4)
    with pytest.raises(ArithmeticError):
        out.R.divide_by_u()  # R itself is not divisible by u (R = z + ...)


def test_symbolic_order_guard():
    with pytest.raises(ValueError):
        solve_rs(3, 61)
