"""The criterion harness reports a failed expectation as a failed criterion."""

from types import SimpleNamespace

from forestmaps import acceptance
from forestmaps.series import ZSeries
from forestmaps.upoly import UPoly


def test_a_failed_expectation_fails_its_criterion(monkeypatch):
    monkeypatch.setattr(acceptance, "solve", lambda p, order, u_mode=None, names=None:
                        SimpleNamespace(F=ZSeries.zero(order, UPoly())))
    res = acceptance.criterion_1()
    assert res.passed is False
    assert res.number == 1
    assert res.title == "exact cubic F coefficients"
    assert res.detail.startswith("FAILED: [z^3]F")
    assert "; FAILED: [z^4]F mismatch" in res.detail
