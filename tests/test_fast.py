"""High-order engines against the sweep solver and each other."""

from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestmaps.asymptotics import coefficient_asymptotic_check
from forestmaps.critical import quartic_critical_point, radius
from forestmaps.exact import Q, exact_div, scaled, unscaled
from forestmaps.fast import (
    _cubic,
    _cubic_fprime,
    _diff,
    _div,
    _integrate,
    _quartic,
    _quartic_bundle,
    _quartic_fzu,
    _quotient,
    conv_trunc,
    cubic_fprime_coeffs,
    cubic_fprime_float,
    cubic_rs_coeffs,
    quartic_fseries_float,
    quartic_fzu,
    quartic_r_coeffs,
    quartic_series,
)
from forestmaps.series import ZSeries
from forestmaps.solver import _digits, compose_biv, solve, solve_rs
from forestmaps.trees import quartic_mullin_coeff, table_column
from forestmaps.upoly import UPoly


@pytest.mark.parametrize("u", [Q(1), Q(-1, 2), Q(7, 5)])
def test_quartic_recurrence_matches_sweep(u):
    R = quartic_r_coeffs(u, 14)
    Rs, _ = solve_rs(4, 14, u)
    assert all(R[i] == Rs.coeff(i) for i in range(15))


@pytest.mark.parametrize("u", [Q(1), Q(-1, 2), Q(3)])
def test_cubic_recurrence_matches_sweep(u):
    R, S = cubic_rs_coeffs(u, 12)
    Rs, Ss = solve_rs(3, 12, u)
    assert all(R[i] == Rs.coeff(i) for i in range(13))
    assert all(S[i] == Ss.coeff(i) for i in range(13))


def test_quartic_bundle_matches_solver():
    u = Q(-1, 2)
    ser = quartic_series(u, 12)
    out = solve(4, 12, u, ("F", "Fprime"))
    f, fp = out.F, out.Fprime
    assert all(ser["f"][i] == f.coeff(i) for i in range(13))
    assert all(ser["fprime"][i] == fp.coeff(i) for i in range(12))


def test_quartic_fzu_matches_symbolic_derivative():
    # d/du of the symbolic coefficients, specialized, is the second route
    fp = solve(4, 10, names=("Fprime",)).Fprime
    dudiff = fp.map_coeffs(
        lambda c: UPoly([c.coeffs[k] * k for k in range(1, len(c.coeffs))])
        if c.coeffs else c
    )
    for u in (Q(1), Q(2, 3)):
        fzu = quartic_fzu(quartic_series(u, 11), u)
        spec = dudiff.specialize_u(u)
        assert all(spec.coeff(i) == fzu[i] for i in range(10))


def test_cubic_fprime_matches_solver():
    u = Q(1)
    fpl = cubic_fprime_coeffs(u, 12)
    fp = solve(3, 12, u, ("Fprime",)).Fprime
    assert all(fpl[i] == fp.coeff(i) for i in range(12))


def test_u_zero_paths():
    R = quartic_r_coeffs(Q(0), 8)
    assert R[1] == 1 and all(R[i] == 0 for i in (0, 2, 3, 4))
    ser = quartic_series(Q(0), 8)
    f0 = solve(4, 8, 0, ("F",)).F
    assert all(ser["f"][i] == f0.coeff(i) for i in range(9))
    fpl = cubic_fprime_coeffs(Q(0), 8)
    fp0 = solve(3, 8, 0, ("Fprime",)).Fprime
    assert all(fpl[i] == fp0.coeff(i) for i in range(9))


def _reference_u_zero(order):
    """The closed spanning-tree forms that stood in for the engines at u = 0
    (R = z, W = Phi(z), V = Phi'(z), F' = theta(z), F''_zu = W F'', and the
    Mullin counts for the cubic F' and for F in the ratio tables), each
    through z^order, as rationals."""
    W = list(table_column("phi1", 4, order))
    ref = {"R": [0, 1] + [0] * (order - 1), "W": W, "V": _diff(W, 1) + [0],
           "fprime": list(table_column("theta", 4, order))}
    ref["f"] = _integrate(ref["fprime"], 1)[: order + 1]
    ref["fzu"] = conv_trunc(W, _diff(ref["fprime"], 1) + [0], order)
    ref["cubic_fprime"] = [quartic_mullin_coeff(3, n + 1) * (n + 1) for n in range(order + 1)]
    ref["mullin"] = [quartic_mullin_coeff(4, n) for n in range(order + 1)]
    return {name: [Q(x) for x in values] for name, values in ref.items()}


def test_u_zero_runs_the_recurrences_to_the_closed_forms():
    order = 200
    ref = _reference_u_zero(order)
    got = quartic_series(Q(0), order)
    got["fzu"] = quartic_fzu(got, Q(0))
    got["cubic_fprime"] = cubic_fprime_coeffs(Q(0), order)
    got["mullin"] = got["f"]
    for name, values in got.items():
        # V, F' and F''_zu stop at z^(order-1), as at every other u
        assert len(values) == order + (name not in ("V", "fprime", "fzu")), name
        assert values == ref[name][: len(values)], name
        assert all(type(x) is Fraction for x in values), name
    rows = coefficient_asymptotic_check(4, 0, (20, 40, 80))
    assert [row["f_n"] for row in rows] == [ref["mullin"][n] for n in (20, 40, 80)]


def _spectral_compare(float_arr, exact_list, scale, lo, hi):
    worst = 0.0
    for i in range(lo, hi):
        ex = float(Q(exact_list[i])) * scale ** i
        if ex:
            worst = max(worst, abs(float_arr[i] - ex) / abs(ex))
    return worst


def test_float_engines_track_exact_prefix():
    s = 0.0414
    bun = quartic_fseries_float(-0.5, 80, s)
    fe = quartic_series(Q(-1, 2), 80)
    assert _spectral_compare(bun["R"], fe["R"], s, 1, 81) < 1e-11
    assert _spectral_compare(bun["fprime"], fe["fprime"], s, 3, 79) < 1e-10
    s3 = 0.02
    Rf, Sf, _, _ = _cubic(-0.5, 1.0, 60, s3)
    Re, Se = cubic_rs_coeffs(Q(-1, 2), 60)
    assert _spectral_compare(Rf, Re, s3, 1, 61) < 1e-11
    assert _spectral_compare(Sf, Se, s3, 1, 61) < 1e-11
    fpf = cubic_fprime_float(-0.5, 60, s3)
    fpe = cubic_fprime_coeffs(Q(-1, 2), 60)
    assert _spectral_compare(fpf, fpe, s3, 2, 61) < 1e-10


def test_float_engines_refuse_non_finite_coefficients():
    # a scale past the radius overflows float64: 2539 entries of each
    # quartic array and 3764 cubic ones would come back NaN
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="order 4000 and scale 0.05"):
            quartic_fseries_float(0.7, 4000, 0.05)
        with pytest.raises(ValueError, match="order 4000 and scale 0.2"):
            cubic_fprime_float(0.7, 4000, 0.2)


# -- the float64 engines over their full length, against np.longdouble runs of
# the same recurrences (an extended-precision scale gives extended arrays)

extended = pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
                              reason="np.longdouble is no wider than float64 here")


def _max_rel_drift(approx, ref):
    nonzero = ref != 0
    return float(np.max(np.abs(approx[nonzero] - ref[nonzero]) / np.abs(ref[nonzero])))


@extended
def test_quartic_float_engine_holds_over_its_full_length():
    # measured on x86-64 (80-bit long double): 4.9e-13 for R, W and V,
    # 1.6e-10 for F' and F'' (their worst entry is 3944, where F' is small)
    s = float(quartic_critical_point(Q(-1, 2))[0])
    got = quartic_fseries_float(-0.5, 4068, s)
    u, one, sl = np.longdouble(-0.5), np.longdouble(1), np.longdouble(s)
    ref = _quartic_bundle(*_quartic(u, one, 4068, sl), sl)
    ref["fsecond"] = _diff(ref["fprime"], sl)
    assert ref["R"].dtype == np.longdouble and len(got["fsecond"]) == 4067
    for name in ("R", "W", "V"):
        assert _max_rel_drift(got[name], ref[name]) < 5e-12, name
    for name in ("fprime", "fsecond"):
        assert _max_rel_drift(got[name], ref[name]) < 1e-9, name


@extended
def test_cubic_float_engine_holds_over_its_full_length():
    # measured on x86-64 (80-bit long double): 1.2e-11
    s = float(radius(3, Q(-1, 2)).rho)
    got = cubic_fprime_float(-0.5, 2000, s)
    u, one, sl = np.longdouble(-0.5), np.longdouble(1), np.longdouble(s)
    ref = _cubic_fprime(*_cubic(u, one, 2000, sl)[2:], u, one, sl)
    assert ref.dtype == np.longdouble and len(got) == 2001
    assert _max_rel_drift(got, ref) < 1e-10


def test_array_products_match_exact_sums_of_their_inputs():
    # positive terms: each float64 coefficient is within n 2^-53 of the exact
    # value on the same float inputs (measured: 0.04 and 0.02 of that)
    rng = np.random.default_rng(7)
    n = 200
    a, b = rng.uniform(0.5, 1.5, (2, n + 1))
    got = conv_trunc(a, b, n)
    ref = conv_trunc([Fraction(x) for x in a], [Fraction(x) for x in b], n)
    assert len(got) == n + 1
    assert all(abs(Fraction(g) - r) <= r * Fraction(n, 2**53) for g, r in zip(got, ref))
    n = 100
    # 1 / (1 - c) with c >= 0 has positive coefficients
    c = -rng.uniform(0, 1, n + 1) / np.arange(1, n + 2) ** 2
    c[0] = 1.0
    one = [1] + [0] * n
    got = _quotient(np.array(one, dtype=float), c, n, 1.0)
    ref = _quotient(one, [Fraction(x) for x in c], n, 1)
    assert all(abs(Fraction(g) - r) <= r * Fraction(n, 2**53) for g, r in zip(got, ref))


@pytest.mark.parametrize("n", [0, 1, 3, 5, 7, 9, 10, 40])
def test_array_product_takes_one_dot_per_coefficient(n):
    # the terms and order of the list loop, so the same bits, short
    # operands included (numpy's small-kernel correlation sums otherwise)
    x, y = np.random.default_rng(n).standard_normal((2, n + 1))
    loop = np.array([x[: k + 1].dot(y[k::-1]) for k in range(n + 1)])
    assert conv_trunc(x, y, n).tobytes() == loop.tobytes()


@st.composite
def small_rationals(draw):
    """u = a/b with b <= 99 and -b <= a <= 3b, i.e. u in [-1, 3]."""
    b = draw(st.integers(1, 99))
    return Q(draw(st.integers(-b, 3 * b)), b)


@settings(max_examples=6, deadline=None)
@given(u=small_rationals())
def test_one_recurrence_serves_both_fields(u):
    # exact field: the sweep solver is the independent route
    R4 = quartic_r_coeffs(u, 10)
    Rs4, _ = solve_rs(4, 10, u)
    assert R4 == [Rs4.coeff(i) for i in range(11)]
    R3, S3 = cubic_rs_coeffs(u, 10)
    Rs3, Ss3 = solve_rs(3, 10, u)
    assert R3 == [Rs3.coeff(i) for i in range(11)]
    assert S3 == [Ss3.coeff(i) for i in range(11)]
    # float64 field: the same recurrences on float(u) track the exact values
    s, s3 = 0.0414, 0.02
    assert _spectral_compare(_quartic(float(u), 1.0, 40, s)[0], quartic_r_coeffs(u, 40), s, 1, 41) < 1e-11
    Rf, Sf, _, _ = _cubic(float(u), 1.0, 40, s3)
    Re, Se = cubic_rs_coeffs(u, 40)
    assert _spectral_compare(Rf, Re, s3, 1, 41) < 1e-11
    assert _spectral_compare(Sf, Se, s3, 1, 41) < 1e-11


# -- the integer engines: every value against the symbolic sweep, specialized


def _du(c):
    """d/du of a coefficient of the symbolic sweep."""
    return UPoly([c.coeffs[k] * k for k in range(1, len(c.coeffs))]) if c.coeffs else c


@cache
def _symbolic_sweep():
    """The sweep solver at symbolic u: p = 4 through z^11, p = 3 through
    z^10, with W = (R - z)/u, V = Phi'(R) and F''_zu = d/du F'."""
    q = solve(4, 11, names=("R", "W1", "F", "Fprime"))
    c = solve(3, 10, names=("R", "S", "Fprime"))
    phi = table_column("phi1", 4, 11)
    return {
        4: {
            "R": q.R,
            "W": q.W1,
            "V": compose_biv({(k - 1, 0): k * phi[k] for k in range(1, len(phi))},
                             q.R, ZSeries.zero(11, UPoly()), 11),
            "fprime": q.Fprime,
            "f": q.F,
            "fzu": q.Fprime.map_coeffs(_du),
        },
        3: {"R": c.R, "S": c.S, "fprime": c.Fprime},
    }


def _check_integer_engines(u):
    sweep = _symbolic_sweep()
    got = {4: quartic_series(u, 11), 3: dict(zip("RS", cubic_rs_coeffs(u, 10)))}
    got[4]["fzu"] = quartic_fzu(got[4], u)
    got[3]["fprime"] = cubic_fprime_coeffs(u, 10)
    assert quartic_r_coeffs(u, 11) == got[4]["R"]
    for p, names in ((4, ("R", "W", "V", "fprime", "f", "fzu")), (3, ("R", "S", "fprime"))):
        for name in names:
            values = got[p][name]
            ref = sweep[p][name].specialize_u(u)
            assert values[:10] == [ref.coeff(i) for i in range(10)], (p, name)
            assert all(type(x) is type(Q(1)) for x in values), (p, name)


@pytest.mark.parametrize("u", [Q(0), Q(-1), Q(1), Q(5), Q(-1, 2)])
def test_integer_engines_match_sweep(u):
    _check_integer_engines(u)


@settings(max_examples=25, deadline=None)
@given(a=st.integers(-10**6, 10**6), b=st.integers(1, 10**6))
def test_integer_engines_match_sweep_at_large_denominators(a, b):
    _check_integer_engines(Q(a, b))


def _integer_runs(a):
    """The recurrences and their F' at u = a, b = s = 1."""
    R4, W4 = _quartic(a, 1, 11, 1)
    R3, S3, W1, W2 = _cubic(a, 1, 10, 1)
    return {4: {"R": R4, "W": W4, "fprime": _quartic_bundle(R4, W4, 1)["fprime"]},
            3: {"R": R3, "S": S3, "fprime": _cubic_fprime(W1, W2, a, 1, 1)}}


def test_recurrences_run_over_integer_polynomials():
    # by Kronecker substitution: at u = 2^k every division is exact, and the
    # balanced base-2^k digits of each entry are its u-coefficients, which
    # the entry at u = 1 bounds
    sweep = _symbolic_sweep()
    at_one = _integer_runs(1)
    k = max(abs(x) for series in at_one.values() for values in series.values()
            for x in values).bit_length() + 1
    got = _integer_runs(2 ** k)
    for p, series in got.items():
        for name, values in series.items():
            ref = sweep[p][name]
            assert [UPoly(_digits(x, k)) for x in values] == \
                [ref.coeff(i) for i in range(len(values))], (p, name)
    # theta(R) divides by 3, and u V_4 / 3 is not in Z[u]
    R4, W4 = got[4]["R"], got[4]["W"]
    W4[5] += 2 ** k
    with pytest.raises(ArithmeticError):
        _quartic_bundle(R4, W4, 1)


def test_exact_division_checks_the_remainder():
    assert exact_div(-91, 7) == -13 and exact_div(2**80, -2**78) == -4
    for x, d in ((7, 2), (-7, 2), (1, 2**80)):
        with pytest.raises(ArithmeticError):
            exact_div(x, d)
    assert scaled([Q(1), Q(-1, 3), Q(5, 9)], 3) == [1, -1, 5]
    assert unscaled([1, -1, 5], 3) == [1, Q(-1, 3), Q(5, 9)]
    with pytest.raises(ArithmeticError):
        scaled([Q(1), Q(1, 2)], 3)
    # the engines' scalar division passes ints on to exact_div
    assert _div(-91, 7) == -13
    with pytest.raises(ArithmeticError):
        _div(7, 2)
    # floats divide as they are
    assert _div(1.0, 3) == 1.0 / 3 and _div(np.ones(2), 4)[1] == 0.25


def test_corrupted_operand_is_refused():
    # an operand off by one leaves a remainder at one of the exact divisions
    # that remain: a derivative's by s, a quotient's by the constant term of
    # its divisor, and b's wherever u multiplies
    a, b = 47, 89
    R, W = _quartic(a, b, 20, b)
    assert type(R) is list and all(type(x) is int for x in R + W)
    ser = _quartic_bundle(R, W, b)
    _quartic_fzu(ser, b)
    for x in (R, W):
        x[7] += 1
        with pytest.raises(ArithmeticError):
            _quartic_bundle(R, W, b)  # the derivative divides by s
        x[7] -= 1
    W[7] += 1
    with pytest.raises(ArithmeticError):
        _quartic_fzu({**ser, "W": W}, b)  # W/R divides by R_1 s = s
    W[7] -= 1
    R3, S3, W1, W2 = _cubic(a, b, 20, b * b)
    assert all(type(x) is int for x in R3 + S3 + W1 + W2)
    _cubic_fprime(W1, W2, a, b, b * b)
    for x in (W1, W2):
        x[5] += 1
        with pytest.raises(ArithmeticError):
            _cubic_fprime(W1, W2, a, b, b * b)  # u W1 and u W2^2 divide by b
        x[5] -= 1
    # a scale that is not a multiple of the one each recurrence needs
    with pytest.raises(ArithmeticError):
        _quartic(a, b, 20, 1)
    with pytest.raises(ArithmeticError):
        _cubic(a, b, 20, b)
