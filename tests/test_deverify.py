"""Identity and differential-equation residual checks, with negative controls."""

import pytest

from forestmaps.deverify import (
    DE_NAMES,
    IDENTITY_NAMES,
    check_de,
    check_identity,
    de_residual,
    de_target_series,
    load_de,
    perturb,
)
from forestmaps.exact import Q


@pytest.mark.parametrize("name", IDENTITY_NAMES)
def test_identity_zero_residual(name):
    order = 12 if name == "cubic_rs_derivative_rational" else 20
    rep = check_identity(name, order)
    assert rep.is_zero, rep


@pytest.mark.parametrize("name", DE_NAMES)
def test_de_zero_residual_symbolic(name):
    rep = check_de(name, 10)
    assert rep.is_zero and rep.valid_order == 8, rep


@pytest.mark.parametrize("name", DE_NAMES)
def test_de_zero_residual_specialized(name):
    rep = check_de(name, 12, Q(3, 2))
    assert rep.is_zero, rep


def test_unknown_names_rejected():
    with pytest.raises(ValueError):
        check_identity("no_such_identity", 10)
    with pytest.raises(ValueError):
        check_de("no_such_equation", 10)


@pytest.mark.parametrize("name", DE_NAMES)
def test_negative_control_perturbation(name):
    de = load_de(name)
    _, target = de_target_series(name, 9)
    assert de_residual(de, target).is_zero()
    for n in (3, 5):
        res = de_residual(de, perturb(target, n))
        assert not res.is_zero(), (name, n)


def test_negative_control_identity():
    # corrupting Phi's x^3 coefficient must surface in the second-order ODE
    from forestmaps.series import ZSeries
    from forestmaps.trees import table_column

    order = 12
    phi = ZSeries(table_column("phi1", 4, order), order)
    bad = perturb(phi, 3)
    a = ZSeries([Q(0), Q(-1), Q(27)], order)
    res = a * bad.differentiate().differentiate() + bad.scale(Q(6)) \
        + ZSeries([Q(0), Q(6)], order)
    assert not res.is_zero()
    # the x^3 bump reaches the residual at x^2 through x(27x-1) Phi''
    assert res.valuation() == 2


def test_cubic_rs_relations_read_the_table_sweep(monkeypatch):
    # the relations are the ODE the cubic recurrence was derived from, so
    # they are checked on (R, S) of the sweep: with the recurrence out of
    # reach, where solve would fail, the residual is still zero
    from forestmaps import fast, solver

    def unreachable(*args):
        raise AssertionError("the cubic recurrence ran")

    for module in (fast, solver):
        monkeypatch.setattr(module, "_cubic", unreachable)
    with pytest.raises(AssertionError, match="the cubic recurrence ran"):
        solver.solve(3, 12, None, ("R", "S"))
    rep = check_identity("cubic_rs_derivative_rational", 12)
    assert rep.is_zero and rep.valid_order == 12, rep
