"""Exact arithmetic layer: polynomials in u and truncated series in z."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from forestmaps.exact import Q, exact_div, rat_from_str, rat_to_str
from forestmaps.fast import conv_trunc
from forestmaps.series import ZSeries
from forestmaps.solver import compose_biv
from forestmaps.upoly import UP_U, UPoly


def rand_upoly(rng, deg=3):
    return UPoly([Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg + 1)])


def rand_series(rng, order=5, zero_const=False):
    coeffs = [rand_upoly(rng) for _ in range(order + 1)]
    if zero_const:
        coeffs[0] = UPoly()
    return ZSeries(coeffs, order)


def test_rational_serialization_roundtrip():
    for s in ("3", "-7/3", "0", "1/2"):
        assert rat_to_str(rat_from_str(s)) == s
    assert rat_to_str(Q(10, 4)) == "5/2"


def test_rat_from_str_accepts_decimals_and_refuses_non_finite():
    assert rat_from_str("0.25") == Q(1, 4)
    assert rat_from_str(" -1.5e-2 ") == Q(-3, 200)
    assert rat_from_str("6/4") == Q(3, 2)
    for junk in ("nan", "inf", "-inf", "1/2/3", "", "u"):
        with pytest.raises(ValueError):
            rat_from_str(junk)
    with pytest.raises(ZeroDivisionError):
        rat_from_str("1/0")


rationals = st.fractions().map(Q)


@given(rationals)
def test_rat_string_roundtrip(q):
    assert rat_from_str(rat_to_str(q)) == q


@given(st.lists(rationals, max_size=8))
def test_upoly_string_roundtrip(coeffs):
    p = UPoly(coeffs)
    assert UPoly(p.to_strs()) == p  # the constructor parses 'p/q' strings


def test_upoly_canonical_and_degree():
    assert UPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert UPoly().degree is None
    assert UPoly((0,)).degree is None
    assert UPoly((5,)).degree == 0
    assert UP_U.degree == 1


def test_upoly_mu_roundtrip_and_division():
    rng = random.Random(7)
    for _ in range(30):
        p = rand_upoly(rng, 5)
        assert p.to_mu().from_mu() == p
    # no exact solve divides a polynomial: symbolic u runs in ints
    for d in (UP_U ** 2, 3):
        with pytest.raises(TypeError):
            exact_div(UPoly((0, 0, 3)), d)


def test_ring_axioms_on_random_series():
    rng = random.Random(42)
    for _ in range(10):
        a, b, c = (rand_series(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a - a == ZSeries.zero(a.order, UPoly())


def test_monomial_products():
    z = ZSeries.z(4)
    assert (z * z).coeff(2) == 1 and (z * z).coeff(3) == 0
    one_plus = ZSeries([Q(1), Q(1)], 4)
    one_minus = ZSeries([Q(1), Q(-1)], 4)
    prod = one_plus * one_minus
    assert prod.coeff(0) == 1 and prod.coeff(1) == 0 and prod.coeff(2) == -1


def test_truncation_is_min_of_operands():
    a = ZSeries([Q(1)] * 7, 6)
    b = ZSeries([Q(1)] * 4, 3)
    assert (a * b).order == 3
    assert (a + b).order == 3
    with pytest.raises(ValueError):
        b.truncate(5)


def _outer(coeffs, inner):
    """sum_k coeffs[k] inner^k, as the one-column table {(k, 0)} with Y = 0."""
    column = {(k, 0): c for k, c in enumerate(coeffs)}
    return compose_biv(column, inner, ZSeries.zero(inner.order, inner.zero_coeff), inner.order)


def test_compose_basics():
    inner = ZSeries([Q(0), Q(1), Q(1)], 4)  # z + z^2
    sq = _outer([Q(0), Q(0), Q(1)], inner)  # x^2
    assert [sq.coeff(i) for i in range(5)] == [0, 0, 1, 2, 1]
    ident = _outer([Q(0), Q(1)], inner)
    assert ident == inner
    const = ZSeries([Q(1), Q(1)], 3)
    with pytest.raises(ValueError):
        _outer([Q(0), Q(1)], const)


def test_compose_associativity():
    # compose(f, compose(g, h)) == compose(compose(f, g) as coefficients, h)
    rng = random.Random(3)
    for _ in range(6):
        f = rand_series(rng, 5)
        g = rand_series(rng, 5, zero_const=True)
        h = rand_series(rng, 5, zero_const=True)
        gh = _outer(g.coeffs, h)
        left = _outer(f.coeffs, gh)
        fg = _outer(f.coeffs, g)
        right = _outer(fg.coeffs, h)
        assert left == right


def test_phi_self_product_against_termwise_expansion():
    # (3x^2 + 30x^3 + 420x^4)^2 starts 9x^4 + 180x^5 + ... ; compare the
    # generic convolution against an independent term-by-term expansion
    from forestmaps.trees import table_column

    coeffs = table_column("phi1", 4, 8)
    phi = ZSeries(coeffs, 8)
    prod = phi * phi
    for n in range(9):
        direct = sum(coeffs[i] * coeffs[n - i] for i in range(n + 1))
        assert prod.coeff(n) == direct
    assert prod.coeff(4) == 9


def test_phi_composed_with_r():
    # [z^2] Phi(R) = 3, [z^3] Phi(R) = 18u + 30 for the quartic system
    from forestmaps.solver import solve_rs
    from forestmaps.trees import table_column

    R, _ = solve_rs(4, 3)
    comp = _outer([UPoly((c,)) for c in table_column("phi1", 4, 3)], R)
    assert comp.coeff(2) == UPoly((3,))
    assert comp.coeff(3) == UPoly((30, 18))


def test_series_are_unhashable():
    # equality reads only the shorter order, so no hash could agree with it
    a, b = ZSeries([0, 1], 1), ZSeries([0, 1, 5], 2)
    assert a == b
    for series in (a, b):
        with pytest.raises(TypeError):
            hash(series)


def test_calculus_shift_and_scale():
    z = ZSeries.z(5)
    z3 = z * z * z
    assert z3.differentiate().coeff(2) == 3
    six_z2 = ZSeries([Q(0), Q(0), Q(6)], 5)
    assert six_z2.integrate().coeff(3) == 2
    s = ZSeries([Q(0), Q(2), Q(-5), Q(7)], 3)
    assert s.integrate().differentiate() == s


def test_integrate_differentiate_order_bookkeeping():
    s = ZSeries([Q(1)] * 5, 4)
    assert s.differentiate().order == 3
    assert s.integrate().order == 5


def test_series_json_shapes():
    s = ZSeries([UPoly((1, 2)), UPoly()], 1)
    doc = s.to_json()
    assert doc["order"] == 1
    assert doc["coeffs"][0] == ["1", "2"]
    t = ZSeries([Q(1, 3), Q(2)], 1)
    assert t.to_json()["coeffs"] == ["1/3", "2"]


def test_specialize_commutes_with_arithmetic():
    rng = random.Random(11)
    u0 = Q(5, 7)
    for _ in range(8):
        a, b = rand_series(rng), rand_series(rng)
        assert (a * b).specialize_u(u0) == a.specialize_u(u0) * b.specialize_u(u0)
        assert (a + b).specialize_u(u0) == a.specialize_u(u0) + b.specialize_u(u0)


# -- property-based suites: ring laws and the canonical form ------------------

# mixed int and Fraction coefficients, integral Fractions included
scalars = st.one_of(st.integers(-30, 30), st.fractions(max_denominator=5).map(Q),
                    st.integers(-30, 30).map(Q))
upolys = st.lists(scalars, max_size=5).map(UPoly)
int_upolys = st.lists(st.integers(-30, 30), max_size=5).map(UPoly)


def _canonical(c):
    return type(c) is int or (type(c) is type(Q(1, 2)) and c.denominator != 1)


@st.composite
def zseries(draw, coeffs=upolys, order=3):
    return ZSeries([draw(coeffs) for _ in range(order + 1)], order)


@given(upolys, upolys, upolys)
def test_upoly_ring_laws(a, b, c):
    zero, one = UPoly(), UPoly((1,))
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and (a * zero).is_zero()
    assert (a - a).is_zero() and -(-a) == a
    assert a ** 3 == a * a * a


@given(upolys, upolys, scalars)
def test_upoly_results_are_canonical(a, b, s):
    assert sum([a, b]) == a + b  # sum() starts from int 0
    for p in (a, b, a + b, sum([a, b]), a - b, a * b, a * s, s * b, a + s, a.to_mu(),
              b.from_mu()):
        assert all(_canonical(c) for c in p.coeffs)
        assert not p.coeffs or p.coeffs[-1] != 0


@given(st.lists(st.integers(-10**30, 10**30), max_size=6))
def test_integral_coefficients_are_ints_with_equal_hashes(ints):
    from_ints = UPoly(ints)
    from_fracs = UPoly([Q(c) for c in ints])
    from_strs = UPoly([str(c) for c in ints])
    assert from_ints == from_fracs == from_strs
    assert from_fracs.coeffs == from_ints.coeffs
    assert all(type(c) is int for c in from_fracs.coeffs + from_strs.coeffs)
    assert hash(from_ints) == hash(from_fracs) == hash(from_strs)


def test_integral_rational_is_stored_as_int():
    (c,) = UPoly((Q(4, 2),)).coeffs
    assert c == 2 and type(c) is int
    half = UPoly((Q(1, 2),)).coeffs[0]
    assert half == Q(1, 2) and not isinstance(half, int)
    assert type(UPoly(("6/3", "1/3")).coeffs[0]) is int
    assert (UPoly((Q(1, 2),)) * 2).coeffs == (1,)


@given(upolys)
def test_upoly_mu_inverse(a):
    assert a.to_mu().from_mu() == a
    assert a.from_mu().to_mu() == a


@given(zseries(), zseries(), zseries())
def test_zseries_ring_laws_over_upoly(a, b, c):
    assert a * b == b * a and a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    for s in (a * b, a + c):
        assert all(_canonical(x) for poly in s.coeffs for x in poly.coeffs)


@given(zseries(coeffs=scalars), zseries(coeffs=scalars), zseries(coeffs=scalars))
def test_zseries_ring_laws_over_scalars(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(zseries(), zseries(coeffs=int_upolys))
def test_zseries_mu_and_divide_by_u_round_trip(a, b):
    assert ZSeries([c.from_mu() for c in a.to_mu().coeffs], a.order) == a
    assert b.scale(UP_U ** 2).map_coeffs(lambda c: UPoly(c.coeffs[2:])) == b


# -- the series arithmetic against the loops it replaced -----------------------


def _reference_mul(a, b):
    """ZSeries' own product before it ran on fast.conv_trunc: a scatter of
    the products of nonzero coefficients onto the ring's zero."""
    n = min(a.order, b.order)
    zero = a.coeffs[0] * 0
    va, vb = a.valuation(), b.valuation()
    if va is None or vb is None:
        return [zero] * (n + 1)
    out = [zero] * (n + 1)
    nonzero_b = [(j, b.coeffs[j]) for j in range(vb, n + 1) if b.coeffs[j]]
    for i in range(va, n + 1):
        ca = a.coeffs[i]
        if not ca:
            continue
        for j, cb in nonzero_b:
            if j > n - i:
                break
            out[i + j] = out[i + j] + ca * cb
    return out


def _reference_differentiate(a):
    return [a.coeffs[i] * i for i in range(1, a.order + 1)]


def _reference_integrate(a, s):
    return [a.coeffs[0] * 0] + [exact_div(s * c, n) for n, c in enumerate(a.coeffs, 1)]


# each series has entries of one ring, whose zero is the last item
RINGS = [(st.integers(-9, 9), 0),
         (st.fractions(max_denominator=4).map(Q), Q(0)),
         (st.lists(st.one_of(st.integers(-9, 9), st.fractions(max_denominator=4)),
                   max_size=3).map(UPoly), UPoly())]


@st.composite
def masked_series(draw, ring):
    """A series whose entries are zero off a random mask: any mask, no
    entry at all, or a single term such as z."""
    coeffs, zero = ring
    order = draw(st.integers(0, 7))
    mask = draw(st.one_of(
        st.lists(st.booleans(), min_size=order + 1, max_size=order + 1),
        st.just([False] * (order + 1)),
        st.integers(0, order).map(lambda k: [i == k for i in range(order + 1)])))
    # entry n is a multiple of n + 1, so that the antiderivatives of integer
    # entries divide
    return ZSeries([draw(coeffs) * (n + 1) if keep else zero
                    for n, keep in enumerate(mask)], order, zero)


@st.composite
def series_pairs(draw):
    ring = draw(st.sampled_from(RINGS))
    return draw(masked_series(ring)), draw(masked_series(ring)), ring[1]


def _same_entries(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g == r and type(g) is type(r)


@given(series_pairs(), st.integers(1, 9))
def test_series_arithmetic_is_the_reference_loops(pair, s):
    a, b, zero = pair
    n = min(a.order, b.order)
    ref = _reference_mul(a, b)
    terms = [any(a.coeffs[i] and b.coeffs[k - i] for i in range(k + 1)) for k in range(n + 1)]
    for got in ((a * b).coeffs, conv_trunc(list(a.coeffs), list(b.coeffs), n)):
        _same_entries(got, ref)
        # an entry with no terms is the ring's zero, not the int 0
        assert all(type(c) is type(zero) for c, t in zip(got, terms) if not t)
    if a.order:
        _same_entries(a.differentiate().coeffs, _reference_differentiate(a))
    if not isinstance(zero, UPoly):  # no exact solve integrates a polynomial
        _same_entries(a.integrate(s).coeffs, _reference_integrate(a, s))


def _no_float(value):
    if isinstance(value, ZSeries):
        return all(_no_float(c) for c in value.coeffs)
    if isinstance(value, UPoly):
        return all(_canonical(c) for c in value.coeffs)
    return type(value) is int or type(value) is type(Q(1, 2))


@pytest.mark.parametrize("p,order,u", [(3, 8, None), (4, 10, None), (3, 10, 1),
                                       (3, 10, Q(3, 7)), (4, 12, Q(-5, 9))])
def test_solve_has_no_float(p, order, u):
    from forestmaps.solver import SERIES, solve

    out = solve(p, order, u)
    for name in SERIES:
        value = getattr(out, name)
        assert value is None or _no_float(value), name


def test_integral_sweep_stays_in_ints():
    # the tree tables are ints, and so is the whole sweep at an integral u
    from forestmaps.solver import _Domain, _sweep_rs, solve_rs, solve_s_tilde
    from forestmaps.trees import (g_inner_table, h_inner_table, lambda_series,
                                  phi_theta_tables, psi_series, table_column)

    tabs = phi_theta_tables(4, 12)
    ints = [c for key in ("theta", "phi1", "phi2") for c in tabs[key].values()]
    ints += list(g_inner_table(3, 12).values()) + list(h_inner_table(3, 12).values())
    ints += list(table_column("theta", 4, 12) + table_column("phi1", 4, 12)) + lambda_series(12)
    ints += psi_series(12)["psi1"] + psi_series(12)["psi2"]
    assert all(type(c) is int for c in ints)
    for u in (1, -2, Q(3)):
        sweep = solve_rs(3, 10, u) + (solve_s_tilde(3, 10, u),)
        assert all(type(c) is int for s in sweep for c in s.coeffs)
    # at a non-integral u the sweep runs on the scaled ints x_n s^n
    for p, u in ((3, Q(3, 7)), (4, Q(-5, 9))):
        sweep = _sweep_rs(p, 10, _Domain(p, u))
        assert all(type(c) is int for s in sweep for c in s.coeffs)
