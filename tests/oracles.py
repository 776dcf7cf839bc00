"""Closed boundary values of the tree series, the references several test
files hold the hypergeometric evaluators of :mod:`forestmaps.hyp` against."""

import mpmath
from mpmath import mpf

from forestmaps.hyp import DEFAULT_PREC, Precision


# closed boundary constants (exact transcendental expressions)

def phi_at_boundary(prec: Precision = DEFAULT_PREC):
    """Phi(1/27) = sqrt(3)/(12 pi) - 1/27."""
    with prec.ctx():
        return mpmath.sqrt(3) / (12 * mpmath.pi) - mpf(1) / 27


def theta_at_boundary(prec: Precision = DEFAULT_PREC):
    """theta(1/27) = 2/3 - 7 sqrt(3)/(6 pi)."""
    with prec.ctx():
        return mpf(2) / 3 - 7 * mpmath.sqrt(3) / (6 * mpmath.pi)


def psi1_at_boundary(prec: Precision = DEFAULT_PREC):
    """Psi1(1/64) = sqrt(2)/(24 pi)."""
    with prec.ctx():
        return mpmath.sqrt(2) / (24 * mpmath.pi)


def psi2_at_boundary(prec: Precision = DEFAULT_PREC):
    """Psi2(1/64) = 1/2 - sqrt(2)/pi."""
    with prec.ctx():
        return mpf(1) / 2 - mpmath.sqrt(2) / mpmath.pi
