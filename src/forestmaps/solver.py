"""Order-by-order solution of the implicit map/forest series system.

The pair (R, S) is the unique power-series solution with zero constant term
of R = z + u Phi1(R, S), S = u Phi2(R, S), where Phi1, Phi2 are the
tree-weighted doubly hypergeometric tables of :mod:`forestmaps.trees`.  The
solver forms one z-coefficient per step by online (relaxed) evaluation of
the tables, :class:`_Online`: R_n from Phi1 at z^n, which reads only
entries below n, then S_n from Phi2 at z^n, which reads R_n as well.  A
step costs O(n^2) ring operations, a solve O(order^3).  For even p, Phi2
has no y-free entry and S is the zero series.  S~ = u Phi2(z, S~) is the
same solve with the empty table in place of Phi1, so that R stays z.

At p = 3 and p = 4, :func:`solve` takes (R, S, W1, W2) from the O(order^2)
coefficient recurrences of :mod:`forestmaps.fast` instead (at p = 4,
W1 = W and S = W2 = 0), in every domain below: at a rational u and in both
runs of a symbolic solve.  The sweep stays the route at p >= 5 and for S~,
and :func:`solve_rs` runs it at every p: it is the route that criterion
4's cubic (R, S) relations and the tests hold the recurrences against.

The same evaluator over series known in full is :func:`compose_biv`, the
one substitution of series into a table: theta, the inner sums of G and H,
and the univariate outer series of the closed quartic forms, passed as
one-column tables.  Where Y is the zero series only the j = 0 columns are
built, so even p costs no bivariate work.

F' = theta(R, S) with F(0) = 0 gives the forested maps, G' = (1 + 1/u) S
the leaf-rooted variant, and a closed expression the root-edge-outside
variant H.  G and H read u only through W1 = (R - z)/u = Phi1(R, S) and
W2 = S/u = Phi2(R, S), and the sweep keeps both: they are the table entries
it forms at each step before multiplying by u, so no series is ever divided
by u, at u = 0 (the spanning-tree case, R = z, S = 0) included.  The S~
sweep keeps W~ = S~/u = Phi2(z, S~) the same way.

:func:`solve` is the one entry: it builds any of the series :data:`SERIES`
from one (R, S) solve and one S~ sweep at most.  :func:`solve_s_tilde` is
its S~ request.  :func:`solve_rs` is the sweep's (R, S), an independent
route that criterion 4 reads; the others the tests hold :func:`solve`
against (the closed quartic forms of F and H, and the residual of the
system) live in the tests.

Every solve runs in one exact domain of Python ints, at a weight u = a/b,
where entry n of a series holds its z^n coefficient times s^n, with the
(a, b, s) of :func:`~forestmaps.exact.weight_scale`; the z^n coefficients
are integer polynomials in u, so the entries are ints.  Multiplying by u
multiplies by a and divides by b, and the antiderivative's entry n is
s X_{n-1} / n; each division goes through
:func:`~forestmaps.exact.exact_div`, which raises ArithmeticError on a
nonzero remainder.

Symbolic u (``None`` or ``"symbolic"``) is solved by Kronecker
substitution (von zur Gathen & Gerhard, *Modern Computer Algebra*, 3rd ed.
2013, section 8.4; Harvey, J. Symbolic Comput. 44, 2009): the same int
solve runs twice, at u = 1 and at u = 2^k (a = 2^k, b = s = 1), and the
u-coefficients of each z^n entry are the balanced base-2^k digits of its
value at 2^k.  R, S, W1, W2, S~, W~, F' and F have nonnegative
u-coefficients, so the value at u = 1 of each bounds its coefficients; G,
H and the two sides of each check in :func:`solve` are differences
P - N of such series, bounded by max(P(1), N(1)).  The width k puts 2^(k-1)
above every bound, so each digit is a coefficient and equality at 2^k is
equality in Z[u].  Each antiderivative asserts that every digit of the
integrand, not only its value, divides by n, and each unpacked polynomial
must take, at u = 1, the value of the u = 1 solve.  Symbolic entries grow
with the order, so symbolic solves are refused above MAX_SYMBOLIC_ORDER
with :class:`SymbolicOrderError`; specialize u (or use
:mod:`forestmaps.fast`) for long series.  The public functions take and
return rationals (ints where integral) or integer polynomials in u, and
keep u as an argument.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

from .exact import canon, exact_div, unscaled, weight_scale
from .fast import _cubic, _cubic_fprime, _dot, _quartic
from .series import ZSeries
from .trees import g_inner_table, h_inner_table, phi_theta_tables
from .upoly import UP_U, UPoly

MAX_SYMBOLIC_ORDER = 60


# the series solve builds; W1 = (R - z)/u, W2 = S/u, W_tilde = S~/u
SERIES = ("R", "S", "S_tilde", "W1", "W2", "W_tilde", "F", "Fprime", "G", "H")


@dataclass
class SolverOutput:
    """The series of one :func:`solve`; those not asked for are None."""

    p: int
    order: int
    u: object  # UP_U for symbolic mode, exact rational otherwise
    R: Optional[ZSeries] = None
    S: Optional[ZSeries] = None
    S_tilde: Optional[ZSeries] = None
    W1: Optional[ZSeries] = None
    W2: Optional[ZSeries] = None
    W_tilde: Optional[ZSeries] = None
    F: Optional[ZSeries] = None
    Fprime: Optional[ZSeries] = None
    G: Optional[ZSeries] = None
    H: Optional[ZSeries] = None


class SymbolicOrderError(ValueError):
    """A symbolic-u solve above MAX_SYMBOLIC_ORDER was asked for."""


def _symbolic(u_mode) -> bool:
    return u_mode is None or u_mode == "symbolic"


def _mode(u_mode):
    """The weight u as a ring element: the polynomial u for None or
    "symbolic", otherwise the canonical exact value (an int when u is
    integral)."""
    return UP_U if _symbolic(u_mode) else canon(u_mode)


class _Domain:
    """The entries of a solve at the rational u = a/b: entry n holds the z^n
    coefficient times s^n, with (a, b, s) from
    :func:`~forestmaps.exact.weight_scale`.  In a Kronecker solve, k is the
    digit width at u = 2^k, and `bounds` collects the series whose entries
    at u = 1 bound the u-coefficients of what is checked or integrated."""

    def __init__(self, p: int, u, k: Optional[int] = None):
        self.a, self.b, self.s = weight_scale(canon(u), p)
        self.k, self.bounds = k, []

    def z(self, order: int) -> ZSeries:
        return ZSeries.z(order, 0, self.s)

    def mul_u(self, c):
        """c u: multiply by a, then divide exactly by b (unless b = 1)."""
        return c * self.a if self.b == 1 else exact_div(self.a * c, self.b)

    def times_u(self, series: ZSeries) -> ZSeries:
        return series.map_coeffs(self.mul_u)

    def bound(self, *series: ZSeries) -> None:
        self.bounds.extend(series)

    def integrate(self, series: ZSeries) -> ZSeries:
        """The antiderivative, entry n = s X_{n-1} / n.  At u = 2^k every
        digit of X_{n-1}, a u-coefficient, must divide by n: divisibility
        in Z[u], not only of the value."""
        self.bound(series)
        if self.k is not None:
            for n, x in enumerate(series.coeffs, 1):
                if any(d % n for d in _digits(x, self.k)):
                    raise ArithmeticError("inexact division by %d" % n)
        return series.integrate(self.s)

    def unload(self, series: ZSeries) -> ZSeries:
        """Entries X_n as the coefficients X_n / s^n (ints where integral)."""
        if self.s == 1:
            return series
        return ZSeries([c.numerator if c.denominator == 1 else c
                        for c in unscaled(series.coeffs, self.s)], series.order)


def _digits(x: int, k: int) -> list:
    """The balanced base-2^k digits of x, lowest first: the coefficients, in
    [-2^(k-1), 2^(k-1)), of the integer polynomial whose value at u = 2^k
    is x."""
    half, mask, digits = 1 << (k - 1), (1 << k) - 1, []
    while x:
        d = ((x + half) & mask) - half
        digits.append(d)
        x = (x - d) >> k
    return digits


def _digit_width(bounds) -> int:
    """The digit width k of a Kronecker solve: 2^(k-1) exceeds every entry
    of the series `bounds` at u = 1."""
    return max((abs(c) for x in bounds for c in x.coeffs), default=0).bit_length() + 1


def _exact(p: int, order: int, u_mode, run) -> dict:
    """The series {name: entries} that ``run(dom)`` forms in the domain
    `dom`, as coefficients.  At a rational u that is one run.  At symbolic
    u it is a run at u = 1, which sets the digit width k, and one at
    u = 2^k, whose entries are unpacked digit by digit."""
    if not _symbolic(u_mode):
        dom = _Domain(p, u_mode)
        return {name: dom.unload(x) for name, x in run(dom).items()}
    if order > MAX_SYMBOLIC_ORDER:
        raise SymbolicOrderError("symbolic u is limited to order %d; specialize u "
                                 "for longer series" % MAX_SYMBOLIC_ORDER)
    one = _Domain(p, 1)
    at_one = run(one)
    k = _digit_width(one.bounds + list(at_one.values()))
    out = {}
    for name, x in run(_Domain(p, 1 << k, k)).items():
        poly = ZSeries([UPoly(_digits(c, k)) for c in x.coeffs], x.order, UPoly())
        if poly.specialize_u(1) != at_one[name]:
            raise ArithmeticError("a u-coefficient of %s exceeds the digit width %d"
                                  % (name, k))
        out[name] = poly
    return out


class _Online:
    """The tables sum c_ij X^i Y^j, formed one z-entry at a time (relaxed
    evaluation: van der Hoeven, "Relax, but don't be too lazy", J. Symbolic
    Comput. 34 (2002)).

    X and Y are lists of entries with zero constant term, which the caller
    may extend as it goes; Y None is the zero series, whose j > 0 columns
    are never built.  The powers X^i, Y^j and the column sums
    A_j = sum_i c_ij X^i gain one entry when first read, one dot of entries
    already known.  Entry n, A_0[n] + sum_{j > 0} sum_m A_j[m] Y^j[n - m],
    reads X and Y below n, and X_n, Y_n only through the entries (1, 0) and
    (0, 1).
    """

    def __init__(self, tables, x, y, zero):
        self.zero, self.powers = zero, ([[zero + 1], x], [[zero + 1], y])
        self.tables = [{} for _ in tables]  # j -> [the i, the c_ij, A_j]
        for columns, table in zip(self.tables, tables):
            for i, j in sorted(table):
                if y is not None or not j:
                    col = columns.setdefault(j, [[], [], []])
                    col[0].append(i)
                    col[1].append(table[i, j])

    def _powers(self, v, top, m):
        """The powers of X (v = 0) or Y (v = 1), V^2 .. V^top extended
        through entry m: V^i[k] = sum_a V[a] V^(i-1)[k - a] reads V below k."""
        pw = self.powers[v]
        while len(pw) <= top:
            pw.append([self.zero] * len(pw))  # V^i vanishes below z^i
        for i in range(2, top + 1):
            vi, prev = pw[i], pw[i - 1]
            for k in range(len(vi), m + 1):
                vi.append(_dot(pw[1][1 : k - i + 2], prev[k - 1 : i - 2 : -1]))
        return pw

    def _sums(self, col, m):
        """The column sum A_j, extended through entry m; its i = 0 term
        enters only at k = 0, where X^0 is 1."""
        idx, cs, sums = col
        for k in range(len(sums), m + 1):
            lo, top = bisect_left(idx, min(k, 1)), bisect_right(idx, k)
            pw = self._powers(0, idx[top - 1] if top else 0, k)
            sums.append(_dot([pw[i][k] for i in idx[lo:top]], cs[lo:top]))
        return sums

    def entry(self, t, n):
        """[z^n] of the table t."""
        total = self.zero
        for j, col in self.tables[t].items():
            lo = col[0][0]
            if not j:
                total = total + self._sums(col, n)[n]
            elif n - j >= lo:
                yj = self._powers(1, j, n - lo)[j]
                sums = self._sums(col, n - j)
                total = total + _dot(sums[lo : n - j + 1], yj[n - lo : j - 1 : -1])
        return total


def compose_biv(table, x_series: ZSeries, y_series: ZSeries, order: int) -> ZSeries:
    """The table sum c_{ij} X^i Y^j evaluated on truncated series.

    This is the one routine that substitutes known series into a table: the
    tree tables of :mod:`forestmaps.trees`, and any univariate outer series
    sum c_k X^k given as the one-column table {(k, 0): c_k} with the zero
    series as Y.  X and Y must have zero constant term; the result is
    truncated at n = min(order, X.order, Y.order).  It is the solver's
    :class:`_Online` run over X and Y known in full; where Y is the zero
    series only the j = 0 column is read.
    """
    if x_series.valuation() == 0 or y_series.valuation() == 0:
        raise ValueError("bivariate composition needs zero constant terms")
    n, zero = min(order, x_series.order, y_series.order), x_series.zero_coeff
    y = None if y_series.is_zero() else list(y_series.coeffs)
    online = _Online([table], list(x_series.coeffs), y, zero)
    return ZSeries([online.entry(0, k) for k in range(n + 1)], n, zero)


def solve_rs(p: int, order: int, u_mode=None):
    """(R, S), the solution of the defining system through z^order, from the
    table sweep alone at every p: the route that criterion 4's cubic (R, S)
    relations and the tests hold the recurrences of :func:`solve` against."""
    def run(dom):
        R, S, _, _ = _sweep_rs(p, order, dom)
        return {"R": R, "S": S}

    out = _exact(p, order, u_mode, run)
    return out["R"], out["S"]


def _sweep_rs(p: int, order: int, dom, phi1=None):
    """(R, S, W1, W2) through z^order in the domain `dom`, one
    entry of each per step: W1_n = [z^n] Phi1, which reads R and S below n,
    and R_n = z_n + u W1_n; then W2_n = [z^n] Phi2, which reads R_n through
    Phi2's (1, 0) entry, and S_n = u W2_n.  `phi1` replaces the table of
    Phi1 (the empty table keeps R = z and W1 = 0).  Where Phi2 has no y-free
    entry (every even p), S and W2 are the zero series."""
    if order < 1:
        raise ValueError("order must be >= 1")
    tables = phi_theta_tables(p, order)
    phi1, phi2 = tables["phi1"] if phi1 is None else phi1, tables["phi2"]
    if (1, 0) in phi1 or (0, 1) in phi1 or (0, 1) in phi2:
        raise ValueError("a (1, 0) entry of Phi1 or a (0, 1) entry reads "
                         "R_n or S_n before it is set")
    z = dom.z(order).coeffs
    R, W1 = [0], [0]
    S, W2 = (None, None) if all(j for _, j in phi2) else ([0], [0])
    online = _Online((phi1, phi2), R, S, 0)
    for n in range(1, order + 1):
        W1.append(online.entry(0, n))
        R.append(z[n] + dom.mul_u(W1[n]))
        if S is not None:
            W2.append(online.entry(1, n))
            S.append(dom.mul_u(W2[n]))
    return tuple(ZSeries(x or [0], order, 0) for x in (R, S, W1, W2))


def solve_s_tilde(p: int, order: int, u_mode=None) -> ZSeries:
    """S~ of :func:`solve`, defined by S~ = u * Phi2(z, S~), S~(0) = 0: S
    with every R replaced by z.  For even p it vanishes identically."""
    return solve(p, order, u_mode, ("S_tilde",)).S_tilde


def solve(p: int, order: int, u_mode=None, names=None) -> SolverOutput:
    """The series `names` of :data:`SERIES` (all of them by default, G only
    at p = 3), from one (R, S) solve (the recurrences at p in {3, 4}, the
    sweep at p >= 5) and one S~ sweep at most, at the weight `u_mode`: None or
    "symbolic" for u kept as a variable, otherwise an exact rational.  This
    is the solver's one entry; :func:`solve_s_tilde` asks it for S~.

    * F' = theta(R, S) and F its antiderivative, F(0, u) = 0; F is exact
      through z^order, F' through z^(order-1).  For p = 3 the closed cubic
      form of :func:`~forestmaps.fast._cubic_fprime` in (W1, W2) is asserted
      against the theta-composition, exactly, at every u.
    * G, the leaf-rooted (quasi-cubic) maps, p = 3 only: the closed
      expression
          G = (1 + 1/u) (zS - u * sum t_{2i+j-1} trinom(i-2,i,j) R^i S^j)
            = (zS - u * inner) + (z W2 - inner)
      is asserted against the integral of G' = S + W2.
    * H, the maps whose root edge is outside the forest:
          H = zR/u + z S^2/u - z^2/u - 2 S * sum t_{2i+j-1} trinom(i-2,i,j) R^i S^j
              - sum t_{2i+j-2} trinom(i-3,i,j) R^i S^j,
      whose first three terms are z W1 + z S W2.  Empty inner sums at low
      truncation orders contribute 0.  For even p, S = 0 and H' = 2 W1; the
      integral of that expression is asserted against the closed form.
    """
    want = set(SERIES if names is None else names)
    if names is None and p != 3:
        want.discard("G")
    unknown = (want - set(SERIES)) | (want & {"G"} if p != 3 else set())
    if unknown:
        raise ValueError("no series %s at p = %d" % (",".join(sorted(unknown)), p))
    if order < 3 and want & {"F", "Fprime", "H"}:
        raise ValueError("order must be >= 3 (smallest maps have 3 faces)")
    out = _exact(p, order, u_mode, lambda dom: _series(p, order, dom, want))
    return SolverOutput(p=p, order=order, u=_mode(u_mode), **out)


def _rs(p: int, order: int, dom):
    """(R, S, W1, W2) through z^order in the domain `dom`: from the
    O(order^2) recurrences of :mod:`forestmaps.fast` at p = 3 and at p = 4
    (where W1 = W and S = W2 = 0), from the table sweep at p >= 5."""
    if p == 3:
        rsw = _cubic(dom.a, dom.b, order, dom.s)
    elif p == 4:
        R, W = _quartic(dom.a, dom.b, order, dom.s)
        rsw = R, [0], W, [0]
    else:
        return _sweep_rs(p, order, dom)
    return tuple(ZSeries(x, order, 0) for x in rsw)


def _series(p: int, order: int, dom, want) -> dict:
    """The entries of the series `want` of :func:`solve` in the domain
    `dom`.  Each check, and each difference P - N returned, enters the
    bounds through its parts: a side P - N through P and N, the side an
    antiderivative through its integrand."""
    out = {}
    if want - {"S_tilde", "W_tilde"}:
        R, S, w1, w2 = _rs(p, order, dom)
        out.update(R=R, S=S, W1=w1, W2=w2)
        z = dom.z(order)
        if want & {"F", "Fprime"}:
            fprime = compose_biv(phi_theta_tables(p, order)["theta"], R, S, order)
            if p == 3:
                # W2 - (2z + 2(1+u) W1 + u(1+u) W2^2), whose part N is
                # W2 - F' at u = 1, so W2 bounds both sides
                if ZSeries(_cubic_fprime(w1.coeffs, w2.coeffs, dom.a, dom.b,
                                         dom.s)) != fprime:
                    raise AssertionError("cubic F' shortcut disagrees with theta(R, S)")
                dom.bound(w2)
            out["F"], out["Fprime"] = dom.integrate(fprime).truncate(order), fprime
        if "G" in want:
            inner = compose_biv(g_inner_table(3, order), R, S, order)
            plus, minus = z * S + z * w2, dom.times_u(inner) + inner
            dom.bound(plus, minus)
            out["G"] = plus - minus
            if out["G"] != dom.integrate(S + w2).truncate(order):
                raise AssertionError("closed G expression disagrees with integral of (1+1/u) S")
        if "H" in want:
            plus = z * w1 + z * (S * w2)
            minus = compose_biv(h_inner_table(p, order), R, S, order)
            if not S.is_zero():  # S, and so 2 S * inner, is 0 at even p and u = 0
                minus = minus + (compose_biv(g_inner_table(p, order), R, S, order) * S).scale(2)
            dom.bound(plus, minus)
            out["H"] = plus - minus
            if p % 2 == 0 and dom.integrate(w1.scale(2)).truncate(order) != out["H"]:
                raise AssertionError("even-p H' = 2 W1 integral disagrees with H")
    if want & {"S_tilde", "W_tilde"}:
        _, out["S_tilde"], _, out["W_tilde"] = _sweep_rs(p, order, dom, phi1={})
    return {name: out[name] for name in want}
