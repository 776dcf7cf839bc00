"""The implicit solver against printed expansions and internal identities."""

from functools import cache
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forestmaps import solver
from forestmaps.deverify import perturb
from forestmaps.exact import Q, exact_div
from forestmaps.series import ZSeries
from forestmaps.solver import (
    _Domain,
    _exact,
    _mode,
    _sweep_rs,
    compose_biv,
    solve,
    solve_rs,
    solve_s_tilde,
)
from forestmaps.trees import (g_inner_table, h_inner_table, lambda_series, phi_theta_tables,
                              table_column)
from forestmaps.upoly import UP_U, UPoly


def upoly(*coeffs):
    return UPoly([Q(c) for c in coeffs])


_SWEEP = solver._sweep_rs


def _bump_r(monkeypatch, n, amount):
    """Make each (R, S) sweep of the solver return R with entry n raised by
    `amount`, and W1 = Phi1(R, S), W2 = Phi2(R, S) composed from it: a
    corrupted solution that the rest of the solve must refuse.  The S~
    sweep runs as it is."""
    def bumped(p, order, dom, phi1=None):
        R, S, w1, w2 = _SWEEP(p, order, dom, phi1)
        if phi1 is None:
            R = ZSeries([c + amount * (i == n) for i, c in enumerate(R.coeffs)], order, 0)
            tables = phi_theta_tables(p, order)
            w1, w2 = (compose_biv(tables[t], R, S, order) for t in ("phi1", "phi2"))
        return R, S, w1, w2

    monkeypatch.setattr(solver, "_sweep_rs", bumped)


def _compose_column(coeffs, x_series: ZSeries, order: int) -> ZSeries:
    """The series sum c_k X^k, as the one-column table {(k, 0): c_k}."""
    column = {(k, 0): c for k, c in enumerate(coeffs) if c}
    return compose_biv(column, x_series, ZSeries.zero(order, x_series.zero_coeff), order)


def residual_rs(p: int, R: ZSeries, S: ZSeries, u_mode=None):
    """Residuals (R - z - u Phi1(R,S), S - u Phi2(R,S)); both must vanish."""
    u, order = _mode(u_mode), min(R.order, S.order)
    tables = phi_theta_tables(p, order)
    phi1, phi2 = (compose_biv(tables[name], R, S, order) for name in ("phi1", "phi2"))
    return (R - ZSeries.z(order, u * 0) - phi1.scale(u), S - phi2.scale(u))


def series_f_explicit_quartic(order: int, u_mode=None) -> ZSeries:
    """The closed 4-valent form F = Psi(R), Psi = int theta - u int theta*Phi'.

    An independent route to F (no integration of the composed series); it
    must agree exactly with the F of :func:`solve` at p = 4.
    """
    u = _mode(u_mode)
    # x-series over Q, so that the antiderivatives divide as rationals
    theta = ZSeries(table_column("theta", 4, order), order - 1).map_coeffs(Q)
    phi_prime = ZSeries(table_column("phi1", 4, order), order).differentiate()
    outer = theta.integrate() - (theta * phi_prime).integrate().scale(u)
    return _compose_column(outer.coeffs, solve_rs(4, order, u_mode)[0], order)


def quartic_h_via_lambda(order: int, u_mode=None) -> ZSeries:
    """H = z W1 - Lambda(R) for p = 4, W1 = (R - z)/u = Phi1(R): a route to
    the H of :func:`solve` that shares only its (R, S) sweep."""
    def run(dom):
        R, _, w1, _ = solver._sweep_rs(4, order, dom)
        plus, minus = dom.z(order) * w1, _compose_column(lambda_series(order), R, order)
        dom.bound(plus, minus)
        return {"H": plus - minus}

    return _exact(4, order, u_mode, run)["H"]


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


def test_solve_builds_only_the_named_series():
    out = solve(3, 6, names=("W2", "H"))
    assert [name for name in solver.SERIES if getattr(out, name) is not None] == ["W2", "H"]
    assert solve(4, 6).G is None  # G is the p = 3 series
    for names, missing in ((("G",), "G"), (("H", "X"), "X")):
        with pytest.raises(ValueError, match="no series %s at p = 4" % missing):
            solve(4, 6, names=names)


@cache
def _symbolic_solve(p, order):
    return solve(p, order)


RATIONAL_U = st.builds(Q, st.integers(-10**6, 10**6), st.integers(1, 10**6))


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([3, 4, 5, 6]), order=st.integers(3, 12),
       u=st.sampled_from([None, 0]) | RATIONAL_U, data=st.data())
def test_any_subset_of_names_is_the_full_solve(p, order, u, data):
    # a request of a few series returns what the request of all of them
    # does; at symbolic u the digit width k depends on what is asked
    names = [name for name in solver.SERIES if p == 3 or name != "G"]
    subset = data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    full = _symbolic_solve(p, order) if u is None else solve(p, order, u)
    out = solve(p, order, u, tuple(subset))
    for name in solver.SERIES:
        got, ref = getattr(out, name), getattr(full, name)
        if name in subset:
            assert got.order == ref.order and got.coeffs == ref.coeffs, name
        else:
            assert got is None, name


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
    for name in solver.SERIES:
        ref = getattr(symbolic, name)
        if ref is None:
            assert getattr(spec, name) is None
        else:
            assert ref.specialize_u(u) == getattr(spec, name), name


def test_corrupted_scaled_operand_is_refused(monkeypatch):
    # one scaled entry off by one leaves a remainder at the next exact division
    u = Q(47, 89)
    dom = _Domain(3, u)
    R, S, _, _ = _sweep_rs(3, 10, dom)
    phi2 = phi_theta_tables(3, 10)["phi2"]
    dom.times_u(compose_biv(phi2, R, S, 10))
    with pytest.raises(ArithmeticError):  # the S update of the last sweep step
        dom.times_u(compose_biv(phi2, perturb(R, 10, 1), S, 10))
    # through solve, from a sweep whose R entry is off by one: X_n + 1 is
    # x_n + 1/s^n
    h = solve(4, 12, Q(-5, 9), ("H",)).H
    _bump_r(monkeypatch, 6, 1)
    with pytest.raises(AssertionError, match="cubic F' shortcut"):
        solve(3, 10, u, ("F",))
    _bump_r(monkeypatch, 7, 1)
    with pytest.raises(ArithmeticError, match="inexact division by 11"):
        solve(4, 12, Q(-5, 9), ("H",))  # the antiderivative of H' = 2 W1
    # the Lambda route has no check of its own: it parts from the H of solve
    assert quartic_h_via_lambda(12, Q(-5, 9)) != h


def test_corrupted_symbolic_operand_is_refused(monkeypatch):
    # the symbolic twin of the u = 3/7 refusal: a bumped R gives F a
    # coefficient outside Z[u] (1272/5 + 216u + 54u^2 at z^5)
    _bump_r(monkeypatch, 3, 1)
    with pytest.raises(ArithmeticError, match="inexact division by 5"):
        solve(4, 8, None, ("F",))
    _bump_r(monkeypatch, 3, 7 ** 3)  # x_3 + 1 at u = 3/7, where s = 7
    with pytest.raises(ArithmeticError, match="inexact division by 5"):
        solve(4, 8, Q(3, 7), ("F",))
    _bump_r(monkeypatch, 4, 1)
    for u in (None, 0):  # the cubic F' shortcut against theta(R, S)
        with pytest.raises(AssertionError, match="cubic F' shortcut"):
            solve(3, 8, u, ("F",))


def test_forest_series_printed_coefficients():
    f = solve(3, 4, names=("F",)).F
    assert f.coeff(3) == upoly(6, 4)
    assert f.coeff(4) == upoly(140, 234, 144, 32)
    assert f.coeff(0).is_zero()  # F(0, u) = 0


def test_quartic_explicit_form_matches():
    for order, u in ((6, None), (10, Q(1)), (8, Q(0))):
        assert series_f_explicit_quartic(order, u) == solve(4, order, u, ("F",)).F


def test_quasi_cubic_series():
    g = solve(3, 5, names=("G",)).G
    assert g.coeff(0).is_zero() and g.coeff(1).is_zero()
    assert g.coeff(2) == upoly(1, 1)  # the unique 2-face map, forests {} / {bridge}
    gp = g.differentiate()
    # [z] G'(z, 0) = 2 (the u -> 0 limit of (1 + 1/u) S)
    assert gp.coeff(1).coeff(0) == 2


def test_root_edge_outside_series():
    h3 = solve(3, 4, names=("H",)).H
    assert h3.coeff(3) == upoly(4, 4)
    h4 = solve(4, 4, names=("H",)).H
    assert h4.coeff(3) == upoly(2)
    assert quartic_h_via_lambda(4) == h4
    assert h4.coeff(0).is_zero()


def test_even_h_prime_shortcut():
    # checked inside solve; do it explicitly once more at p=6
    out = solve(6, 8, names=("W1", "H"))
    assert out.H.differentiate() == out.W1.scale(2) and out.H.coeff(0).is_zero()


def _reference_rs(p, order, u, phi1=None):
    """(R, S) through z^order by the fixed-point sweep, in the coefficients
    themselves: at each order k both tables are composed again on the
    truncations at k, R first, then S.  `phi1` replaces Phi1 as in the
    solver.  Each sweep gains one z-order, at O(order^4) ring operations."""
    tabs = phi_theta_tables(p, order)
    phi1 = tabs["phi1"] if phi1 is None else phi1
    weight = UPoly.u() if u is None else u
    zero = weight * 0
    z = ZSeries.z(order, zero, zero + 1)
    R = S = ZSeries.zero(order, zero)
    for k in range(1, order + 1):
        Rk = z.truncate(k) + compose_biv(phi1, R.truncate(k), S.truncate(k), k).scale(weight)
        Sk = compose_biv(tabs["phi2"], Rk, S.truncate(k), k).scale(weight)
        R, S = (ZSeries(list(x.coeffs), order, zero) for x in (Rk, Sk))
    return R, S


def test_s_tilde_is_s_with_r_replaced_by_z():
    # the sweep with the first equation's table emptied: R stays z and the
    # second unknown becomes S~ by construction
    order = 8
    for p, u in ((3, None), (5, None), (3, Q(-3, 7))):
        R, s_tilde = _reference_rs(p, order, u, phi1={})
        assert R == ZSeries.z(order) and s_tilde == solve_s_tilde(p, order, u), (p, u)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([3, 4, 5, 6]), order=st.integers(1, 12),
       u=st.sampled_from([None, 0]) | RATIONAL_U)
def test_online_solve_is_the_reference_sweep(p, order, u):
    # (R, S), and S~ (the sweep with R = z)
    got = solve_rs(p, order, u) + (solve_s_tilde(p, order, u),)
    ref = _reference_rs(p, order, u) + _reference_rs(p, order, u, phi1={})[1:]
    for a, b in zip(got, ref):
        assert a.order == b.order == order and a.coeffs == b.coeffs, (a, b)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([3, 4, 5, 6]), order=st.integers(1, 12),
       u=st.sampled_from([None, 0]) | RATIONAL_U)
@example(p=3, order=12, u=None)
@example(p=4, order=12, u=0)
def test_sweep_keeps_the_series_divided_by_u(p, order, u):
    # W1, W2 of the (R, S) sweep and W~ of the S~ sweep, multiplied by u,
    # are R - z, S and S~; at u = 0, where R = z and S = S~ = 0, they are
    # Phi1(R, S), Phi2(R, S) and Phi2(z, 0) composed again
    out = solve(p, order, u, ("R", "S", "W1", "W2", "S_tilde", "W_tilde"))
    weight = solver._mode(u)
    z = ZSeries.z(order, weight * 0, weight * 0 + 1)
    for w, x in ((out.W1, out.R - z), (out.W2, out.S), (out.W_tilde, out.S_tilde)):
        assert w.order == order and w.scale(weight) == x
    # the S~ sweep, with Phi1 emptied, keeps R = z and W1 = 0
    dom = _Domain(p, 1 if u is None else u)
    r_tilde, _, w1_tilde, _ = _sweep_rs(p, order, dom, phi1={})
    assert r_tilde == dom.z(order) and w1_tilde.is_zero()
    if weight == 0:
        tables = phi_theta_tables(p, order)
        assert out.W1 == compose_biv(tables["phi1"], out.R, out.S, order)
        assert out.W2 == out.W_tilde == compose_biv(tables["phi2"], out.R, out.S, order)


def _integrate_zu(series):
    """The antiderivative over Z[u]: each u-coefficient of X_{n-1} divided
    exactly by n."""
    return ZSeries([UPoly()] + [UPoly([exact_div(c, n) for c in x.coeffs])
                                for n, x in enumerate(series.coeffs, 1)],
                   series.order + 1, UPoly())


@cache
def _reference_series(p, order):
    """Every series of solver.SERIES that exists at (p, order), over Z[u],
    the way the solver formed them before it ran at u = 1 and u = 2^k: the
    online sweep over UPoly entries (a = u, b = s = 1), the compositions
    over UPoly, and each antiderivative dividing every u-coefficient."""
    dom = SimpleNamespace(z=lambda n: ZSeries.z(n, UPoly(), UPoly((1,))),
                          mul_u=lambda c: c * UP_U)
    sweeps = _sweep_rs(p, order, dom) + _sweep_rs(p, order, dom, phi1={})[1::2]
    R, S, W1, W2, S_tilde, W_tilde = (x.map_coeffs(lambda c: UPoly() + c) for x in sweeps)
    out = dict(R=R, S=S, W1=W1, W2=W2, S_tilde=S_tilde, W_tilde=W_tilde)
    z, tables = dom.z(order), phi_theta_tables(p, order)
    inner = compose_biv(g_inner_table(p, order), R, S, order)
    if p == 3:
        out["G"] = (z * S - inner.scale(UP_U)) + (z * W2 - inner)
    if order >= 3:
        fprime = compose_biv(tables["theta"], R, S, order)
        out.update(Fprime=fprime, F=_integrate_zu(fprime).truncate(order))
        out["H"] = z * W1 + z * (S * W2) - (inner * S).scale(2) \
            - compose_biv(h_inner_table(p, order), R, S, order)
    return out


@settings(max_examples=20, deadline=None)
@given(p=st.sampled_from([3, 4, 5, 6]), order=st.integers(1, 24))
@example(p=3, order=24)
@example(p=4, order=24)
def test_kronecker_solve_is_the_zu_solve(p, order):
    ref = _reference_series(p, order)
    out = solve(p, order, None, tuple(ref))
    for name in solver.SERIES:
        got = getattr(out, name)
        if name not in ref:
            assert got is None
            continue
        assert got.order == ref[name].order and got.coeffs == ref[name].coeffs, name
        assert all(type(c) is UPoly for c in got.coeffs), name
    if p == 4 and order >= 3:
        assert quartic_h_via_lambda(order).coeffs == ref["H"].coeffs


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_too_narrow_digits_fail_the_u_one_check(monkeypatch, p):
    # a digit width below the bit length of the largest u-coefficient wraps
    # a digit, which the comparison with the u = 1 solve catches
    names = ("R", "S", "W1", "W2", "S_tilde", "W_tilde")
    ref = _reference_series(p, 12)
    top = max(abs(c) for name in names for x in ref[name].coeffs for c in x.coeffs)
    monkeypatch.setattr(solver, "_digit_width", lambda bounds: top.bit_length() - 1)
    with pytest.raises(ArithmeticError, match="exceeds the digit width"):
        solve(p, 12, None, names)


def test_symbolic_sweeps_run_on_ints(monkeypatch):
    # one sweep at u = 1 and one at u = 2^k for each of (R, S) and S~
    sweeps = []
    sweep = solver._sweep_rs

    def spy(*args, **kwargs):
        sweeps.append(sweep(*args, **kwargs))
        return sweeps[-1]

    monkeypatch.setattr(solver, "_sweep_rs", spy)
    for p in (3, 4):
        solve(p, 10)
    assert len(sweeps) == 8
    assert all(type(c) is int for out in sweeps for x in out for c in x.coeffs)


def test_online_order_is_enforced():
    # a (1, 0) entry of Phi1 would read R_n, a (0, 1) entry S_n, while
    # forming them
    dom = _Domain(3, Q(2, 3))
    for phi1 in ({(1, 0): 1}, {(0, 1): 1}):
        with pytest.raises(ValueError, match="before it is set"):
            _sweep_rs(3, 6, dom, phi1)


def test_u_zero_builds_no_symbolic_domain(monkeypatch):
    # at u = 0 the series divided by u are Phi1(z, 0) and Phi2(z, 0): no
    # symbolic solve is needed, whatever the symbolic order limit
    order = 12
    g_ref = solve(3, order, names=("G",)).G.specialize_u(0)
    h_ref = {p: solve(p, order, names=("H",)).H.specialize_u(0) for p in (3, 4, 5, 6)}
    monkeypatch.setattr(solver, "MAX_SYMBOLIC_ORDER", 0)
    assert solve(3, order, 0, ("G",)).G == g_ref
    for p, ref in h_ref.items():
        assert solve(p, order, 0, ("H",)).H == ref, p
    assert quartic_h_via_lambda(order, 0) == h_ref[4]


def test_s_tilde_even_p_vanishes():
    assert solve_s_tilde(4, 6).is_zero()


def test_mu_expansion_printed_terms():
    out = solve(3, 4)
    r_mu = out.W1.to_mu()
    assert r_mu.coeff(2) == upoly(2, 4)          # 2(2mu+1)
    assert r_mu.coeff(3) == upoly(16, 36, 48, 40)
    s_mu = out.W2.to_mu()
    assert s_mu.coeff(1) == upoly(2)
    assert s_mu.coeff(2) == upoly(6, 12, 12)     # 6(2mu^2+2mu+1)
    st_mu = out.W_tilde.to_mu()
    assert st_mu.coeff(2) == upoly(10, 16, 4)    # 2(2mu^2+8mu+5)
    const = ZSeries.const(UPoly((7,)), 3, UPoly())
    assert const.to_mu() == const  # u-free series unchanged


def test_symbolic_order_guard():
    with pytest.raises(ValueError):
        solve_rs(3, 61)
