"""Counts of p-valent plane trees and the series built from them.

The closed-form counts (leaf-rooted and corner-rooted trees by number of
leaves) feed three families of truncated series:

* the bivariate tables theta, Phi1, Phi2 consumed by the implicit solver
  (at even p it reads their j = 0 columns from the tables themselves),
  and the inner double sums of G and H; all five come from one builder,
* the y-free column of each table (:func:`table_column`), built in
  O(order) without the table: the univariate specializations theta(x),
  Phi(x) feed :mod:`forestmaps.randmodel`, :mod:`forestmaps.deverify` and
  the closed quartic form of F, not the solver,
* the univariate cubic-case reductions Psi1, Psi2 and the quartic-case
  integral Lambda.

Everything here is exact integer/rational arithmetic; no floating point.
The counts are integers and are returned as Python ints (the canonical
form of :func:`forestmaps.exact.canon`), so the solver's products over
them pay for no gcd.
Bivariate tables are read-only mappings {(i, j): coefficient} truncated
by total degree i + j <= order, which is what an order-correct substitution
of two valuation->=1 series requires; each is built once per (p, order).
"""

from __future__ import annotations

from functools import cache
from math import factorial
from types import MappingProxyType
from typing import Dict, Mapping, Tuple

from .exact import Q, QZERO, exact_div, trinomial_q

Biv = Dict[Tuple[int, int], object]


# ---------------------------------------------------------------------------
# closed-form tree counts
# ---------------------------------------------------------------------------

def tree_count(p: int, k: int, kind: str = "leaf_rooted"):
    """Number of p-valent trees with k leaves, rooted at a leaf or a corner.

    Returns 0 unless k = (p-2)*l + 2 for some l >= 1 (parity/size constraint
    of p-valent trees).  Corner-rooted means a marked corner at an internal
    (p-valent) vertex.
    """
    if p < 3:
        raise ValueError("need p >= 3")
    if k < 1:
        raise ValueError("need k >= 1")
    if (k - 2) % (p - 2) != 0:
        return 0
    ell = (k - 2) // (p - 2)
    if ell < 1:
        return 0
    if kind == "leaf_rooted":
        return exact_div(factorial((p - 1) * ell),
                         factorial(ell) * factorial((p - 2) * ell + 1))
    if kind == "corner_rooted":
        return exact_div(p * factorial((p - 1) * ell),
                         factorial(ell - 1) * factorial((p - 2) * ell + 2))
    raise ValueError("kind must be leaf_rooted or corner_rooted")


# ---------------------------------------------------------------------------
# bivariate tables
# ---------------------------------------------------------------------------

# name -> (tree kind, shift, k) of the table
# {(i, j): t_{2i+j+shift} * trinomial(i-k, i, j)}, i >= k, i + j <= order
_TABLES = {
    "theta": ("corner_rooted", 0, 0),
    "phi1": ("leaf_rooted", 0, 1),
    "phi2": ("leaf_rooted", 1, 0),
    "g_inner": ("leaf_rooted", -1, 2),
    "h_inner": ("leaf_rooted", -2, 3),
}


def _entry(name: str, p: int, i: int, j: int):
    """Entry (i, j) of the table `name` of p-valent trees (i >= its k)."""
    kind, shift, k = _TABLES[name]
    n = 2 * i + j + shift
    c = tree_count(p, n, kind) if n >= 1 else 0
    return c * trinomial_q(i - k, i, j) if c else 0


@cache
def _table(name: str, p: int, order: int) -> Mapping:
    """The bivariate table `name` of p-valent trees through total degree order."""
    k = _TABLES[name][2]
    out: Biv = {}
    for i in range(k, order + 1):
        for j in range(order + 1 - i):
            c = _entry(name, p, i, j)
            if c:
                out[(i, j)] = c
    return MappingProxyType(out)


@cache
def table_column(name: str, p: int, order: int) -> tuple:
    """The y-free column of the table `name`, its entries (i, 0) for
    i = 0..order as a coefficient tuple in x, built without the table."""
    k = _TABLES[name][2]
    return tuple(_entry(name, p, i, 0) if i >= k else 0 for i in range(order + 1))


def phi_theta_tables(p: int, order: int) -> Mapping:
    """Truncated tables for theta, Phi1, Phi2 (total degree <= order).

    theta(x,y) = sum t^c_{2i+j} * trinomial(i,i,j) x^i y^j
    Phi1(x,y)  = sum_{i>=1} t_{2i+j} * trinomial(i-1,i,j) x^i y^j
    Phi2(x,y)  = sum t_{2i+j+1} * trinomial(i,i,j) x^i y^j

    For even p every Phi2 entry carries a positive y-power (t_odd = 0), so
    the solver's second unknown vanishes.  The univariate specializations
    theta(x) = theta(x,0) and Phi(x) = Phi1(x,0) are the columns
    :func:`table_column` builds.  The result and its tables are read-only.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    return MappingProxyType({"p": p, "order": order, **{
        name: _table(name, p, order) for name in ("theta", "phi1", "phi2")}})


def g_inner_table(p: int, order: int) -> Mapping:
    """Table sum_{i>=2} t_{2i+j-1} * trinomial(i-2,i,j) x^i y^j.

    This is the double sum in the closed expression of the leaf-rooted map
    series G; it also enters H.
    """
    return _table("g_inner", p, order)


def h_inner_table(p: int, order: int) -> Mapping:
    """Table sum_{i>=3} t_{2i+j-2} * trinomial(i-3,i,j) x^i y^j (enters H)."""
    return _table("h_inner", p, order)


# ---------------------------------------------------------------------------
# univariate series for the cubic and quartic reductions
# ---------------------------------------------------------------------------

def psi_series(order: int) -> dict:
    """Coefficient lists of Psi1 and Psi2 (cubic case) through z^order.

    Psi1(z) = sum_{i>=1} (4i-4)! / ((2i-2)! i! (i-1)!) z^i
    Psi2(z) = sum_{i>=1} (4i-2)! / ((2i-1)! i!^2)      z^i
    """
    psi1 = [0] * (order + 1)
    psi2 = [0] * (order + 1)
    for i in range(1, order + 1):
        psi1[i] = exact_div(factorial(4 * i - 4),
                            factorial(2 * i - 2) * factorial(i) * factorial(i - 1))
        psi2[i] = exact_div(factorial(4 * i - 2), factorial(2 * i - 1) * factorial(i) ** 2)
    return {"psi1": psi1, "psi2": psi2}


def lambda_series(order: int):
    """Lambda(x) = sum_{i>=3} (3i-6)! / ((i-3)! (i-2)! i!) x^i (quartic case)."""
    lam = [0] * (order + 1)
    for i in range(3, order + 1):
        lam[i] = exact_div(factorial(3 * i - 6),
                           factorial(i - 3) * factorial(i - 2) * factorial(i))
    return lam


def quartic_mullin_coeff(p: int, n: int):
    """[z^n] of the spanning-tree specialization F(z, 0), any p >= 3.

    F(z,0) = sum_l p ((p-1)l)! / ((l-1)! (1+(p-2)l/2)! (2+(p-2)l/2)!)
             z^{2+(p-2)l/2},  l even when p is odd.
    """
    if n < 3:
        return 0
    # n = 2 + (p-2) l / 2  =>  l = 2 (n-2) / (p-2)
    num = 2 * (n - 2)
    if num % (p - 2) != 0:
        return 0
    ell = num // (p - 2)
    if ell < 1 or (p % 2 == 1 and ell % 2 == 1):
        return 0
    half = (p - 2) * ell // 2
    return exact_div(p * factorial((p - 1) * ell),
                     factorial(ell - 1) * factorial(1 + half) * factorial(2 + half))


# ---------------------------------------------------------------------------
# bivariate dict helpers (exact, truncated by total degree)
# ---------------------------------------------------------------------------

def biv_add(a: Biv, b: Biv) -> Biv:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, QZERO) + c
        if out[key] == 0:
            del out[key]
    return out


def biv_scale(a: Biv, s) -> Biv:
    return {key: c * s for key, c in a.items() if c * s != 0}


def biv_mul(a: Biv, b: Biv, order: int) -> Biv:
    out: Biv = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            i, j = i1 + i2, j1 + j2
            if i + j <= order:
                key = (i, j)
                out[key] = out.get(key, QZERO) + c1 * c2
    return {k: c for k, c in out.items() if c != 0}


def sqrt_one_minus_4y(order: int, power: int = 1):
    """Coefficient list in y of (1-4y)^(power/2), exact binomial expansion:
    with alpha = power/2, c_0 = 1 and c_n = c_{n-1} (-4) (alpha - n + 1) / n."""
    alpha = Q(power, 2)
    out = [Q(1)]
    for n in range(1, order + 1):
        out.append(out[-1] * -4 * (alpha - n + 1) / n)
    return out


def phi_from_psi(which: int, order: int) -> Biv:
    """Bivariate expansion of the Psi-reductions of Phi1 / Phi2.

    which=1:  (1-4y)^(3/2) Psi1(t) - x,          t = x/(1-4y)^2
    which=2:  (1-4y)^(1/2) Psi2(t) + ((1-sqrt(1-4y))/2)^2

    Used to confirm that the reductions agree with the raw doubly
    hypergeometric tables through the truncation order.
    """
    psis = psi_series(order)
    psi = psis["psi1"] if which == 1 else psis["psi2"]
    pref = sqrt_one_minus_4y(order, 3 if which == 1 else 1)
    out: Biv = {}
    # prefactor(y) * sum_k psi_k x^k (1-4y)^{-2k}
    for k in range(1, order + 1):
        ck = psi[k]
        if ck == 0:
            continue
        inv = sqrt_one_minus_4y(order - k, -4 * k)  # (1-4y)^{-2k}
        for a, ca in enumerate(inv):
            for b, cb in enumerate(pref):
                j = a + b
                if k + j <= order and ca != 0 and cb != 0:
                    key = (k, j)
                    out[key] = out.get(key, QZERO) + ck * ca * cb
    if which == 1:
        out[(1, 0)] = out.get((1, 0), QZERO) - 1
    else:
        # ((1 - sqrt(1-4y)) / 2)^2 = (1 - 2 sqrt(1-4y) + (1-4y)) / 4
        half = sqrt_one_minus_4y(order, 1)
        quarter = [(Q(1) if n == 0 else QZERO) - 2 * half[n] for n in range(order + 1)]
        quarter[0] += Q(1)
        if order >= 1:
            quarter[1] += Q(-4)
        for n in range(order + 1):
            c = quarter[n] / 4
            if c != 0:
                key = (0, n)
                out[key] = out.get(key, QZERO) + c
    return {k: c for k, c in out.items() if c != 0}
