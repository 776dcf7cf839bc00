"""Random-model constants and the asymptotic probes (desk-scale versions)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestmaps.asymptotics import (
    coefficient_asymptotic_check,
    cubic_beta_fit,
    log_singularity_probe,
    quartic_smoothness_gap,
)
from forestmaps.exact import Q
from forestmaps.fast import conv_trunc, quartic_series
from forestmaps.hyp import Precision, phi_at_boundary
from forestmaps.randmodel import (
    component_slope,
    finite_n_expectations,
    finite_n_root_size,
    kappa,
    kappa_smooth_reference,
    s_limit_law,
)
from forestmaps.trees import theta_x

PREC = Precision(50)


def test_kappa_values():
    assert kappa(0, PREC) == pytest.approx(27 * float(phi_at_boundary(PREC)), rel=1e-12)
    assert kappa(-1, PREC) == 0.0
    with pytest.raises(ValueError):
        kappa(-2, PREC)


def test_component_slope_monotone_grid():
    vals = [component_slope(u, PREC) for u in (0.25, 0.5, 1, 2)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # -> 0 as u -> 0+, where the critical point migrates exponentially close
    # to 1/27 (1 - 27 tau ~ 2e-158 at u = 0.01); 50 digits resolve it
    small = [component_slope(u, PREC) for u in (0.01, 0.05)]
    assert small[0] < small[1] < 0.02
    assert small[0] == pytest.approx(component_slope(0.01, Precision(100)), rel=1e-15)
    with pytest.raises(ValueError):
        component_slope(-0.5, PREC)


def test_size_law_positive_partial_sums_below_one():
    from forestmaps.randmodel import s_limit_law_tail_bound

    law = s_limit_law(1, 40, PREC)
    assert all(v > 0 for v in law)
    assert sum(law) < 1
    # the certified tail closes the gap to a full distribution
    assert sum(law) + s_limit_law_tail_bound(1, 40, PREC) > 0.9
    assert 1 - sum(s_limit_law(1, 200, PREC)) < s_limit_law_tail_bound(1, 40, PREC)
    # the k=1 value is 12 tau / theta'(tau)
    from forestmaps.critical import quartic_tau
    from forestmaps.hyp import phi_numeric

    with PREC.ctx():
        tau, _, _ = quartic_tau(1, PREC)
        v = 12 * tau / phi_numeric("theta_prime", tau, PREC, "boundary")
        assert law[0] == pytest.approx(float(v), rel=1e-10)


def test_finite_n_matches_limits():
    k1 = kappa(1, PREC)
    rows = finite_n_expectations(Q(1), [100, 200])
    d100 = abs(rows[0]["E_active_over_n"] / k1 - 1)
    d200 = abs(rows[1]["E_active_over_n"] / k1 - 1)
    assert d200 < 0.05 and d200 < d100
    law = s_limit_law(1, 3, PREC)
    f100 = finite_n_root_size(Q(1), 100, 3)
    f200 = finite_n_root_size(Q(1), 200, 3)
    for k in range(3):
        assert abs(f200[k] - law[k]) < abs(f100[k] - law[k])


def _root_size_from_full_powers(u, n, k_max):
    """P(S_n = k) by the definition: every power R^(k+1) convolved in full
    over the rational coefficients, then coefficient n - 1 read off."""
    ser = quartic_series(u, n)
    R, fprime = ser["R"], ser["fprime"]
    theta = theta_x(4, k_max + 1)
    out, rk = [], list(R)
    for k in range(1, k_max + 1):
        rk = conv_trunc(rk, R, n - 1)
        out.append(float(Q(theta[k + 1]) * rk[n - 1] / fprime[n - 1]))
    return out


@settings(max_examples=10, deadline=None)
@given(u=st.sampled_from([Q(1), Q(91, 43), Q(2, 7), Q(-1, 2), Q(-93, 100)]),
       n=st.integers(3, 60), k_max=st.integers(1, 3))
def test_root_size_reads_one_coefficient_of_the_full_power(u, n, k_max):
    assert finite_n_root_size(u, n, k_max) == _root_size_from_full_powers(u, n, k_max)


def test_finite_n_guards(monkeypatch):
    with pytest.raises(ValueError):
        finite_n_expectations(Q(0), [10])
    # n < 3 is refused before any series is built
    from forestmaps import randmodel

    def no_series(*args):
        raise AssertionError("a series was built")

    monkeypatch.setattr(randmodel, "quartic_series", no_series)
    for n in (1, 2):
        with pytest.raises(ValueError, match=r"n must be >= 3 .*got %d$" % n):
            finite_n_expectations(Q(1), [40, n])
        with pytest.raises(ValueError, match=r"n must be >= 3 .*got %d$" % n):
            finite_n_root_size(Q(1), n, 2)


def test_ratio_table_u0():
    rows = coefficient_asymptotic_check(4, 0, [100, 300], PREC)
    assert abs(rows[1]["ratio"] - 1) < abs(rows[0]["ratio"] - 1)
    assert abs(rows[1]["ratio"] - 1) < 0.01


def test_ratio_table_u_positive_trend():
    rows = coefficient_asymptotic_check(4, 1, [50, 100, 200], PREC)
    devs = [abs(r["ratio"] - 1) for r in rows]
    assert devs[0] > devs[1] > devs[2]


def test_ratio_table_rejects_cubic():
    with pytest.raises(ValueError):
        coefficient_asymptotic_check(3, 1, [10], PREC)


def test_ratio_table_rejects_u_below_minus_one():
    # the laws hold for u >= -1, as radius requires
    with pytest.raises(ValueError, match="u must be >= -1"):
        coefficient_asymptotic_check(4, Q(-2), [20, 40], PREC)


def test_log_probe_small():
    res = log_singularity_probe(Q(-1, 2), (0.9, 0.99), PREC, order=3000, tol=1e-4)
    devs = [r["deviation"] for r in res["rows"]]
    assert devs[0] > devs[1]
    assert res["prefix_rel_err"] < 1e-8
    assert all(r["tail_bound"] < 1e-4 for r in res["rows"])
    # at u = -1 both sides of the comparison are negative
    resm1 = log_singularity_probe(Q(-1), (0.9, 0.99), PREC, order=3000, tol=1e-4)
    assert all(r["lhs"] < 0 and r["rhs"] < 0 for r in resm1["rows"])


def test_log_probe_negative_control():
    # a grossly wrong prefactor breaks the monotone approach; moderate
    # perturbations are invisible at reachable fracs because the genuine
    # O(1/ln) correction dominates them
    res = log_singularity_probe(Q(-1, 2), (0.9, 0.99, 0.999), PREC,
                                order=12000, tol=1e-4, constant=20.0)
    devs = [r["deviation"] for r in res["rows"]]
    assert not all(a > b for a, b in zip(devs, devs[1:]))


def test_log_probe_guards():
    with pytest.raises(ValueError):
        log_singularity_probe(Q(1, 2), prec=PREC)
    with pytest.raises(ValueError):
        # unreachable tolerance with a capped order must refuse
        log_singularity_probe(Q(-1, 2), (0.999,), PREC, order=500, tol=1e-30)


def test_beta_fit_trend():
    fit = cubic_beta_fit(Q(-1, 2), (0.9, 0.95, 0.98), order=2500, prec=PREC)
    beta = fit["beta_closed"]
    devs = [abs(r["beta_pointwise"] / beta - 1) for r in fit["beta_rows"]]
    assert devs[0] > devs[1] > devs[2]
    assert fit["prefix_rel_err"] < 1e-8


def test_smoothness_gap():
    import math

    from forestmaps.randmodel import kappa_transition_gap

    g = quartic_smoothness_gap(0.1)
    assert g["gap"] < g["bound"]
    # kappa has no critical-point cancellation: its gap is the tau gap
    # times dkappa/dtau, an O(10) multiple of the bare bound
    kg = float(kappa_transition_gap(0.1, Precision(80)))
    assert g["bound"] * 1e-2 < kg < g["bound"] * 1e2
