"""Tree counts and the series built from them."""

from functools import lru_cache

import pytest

from forestmaps.exact import Q
from forestmaps.trees import (
    _table,
    biv_add,
    biv_mul,
    biv_scale,
    g_inner_table,
    h_inner_table,
    lambda_series,
    phi_from_psi,
    phi_theta_tables,
    psi_series,
    quartic_mullin_coeff,
    table_column,
    tree_count,
)


def enumerate_tree_count(p: int, k: int, kind: str = "leaf_rooted") -> int:
    """Count p-valent plane trees with k leaves by direct recursion.

    A hanging subtree is a bare leaf or an internal vertex carrying p-1
    ordered hanging subtrees.  A leaf-rooted tree is a root leaf over one
    internal vertex (p-1 ordered children); a corner-rooted tree is an
    internal vertex with p ordered children (the marked corner linearizes
    the cyclic order).  This recursion is the ground truth for
    :func:`tree_count`.
    """

    @lru_cache(maxsize=None)
    def hanging(m: int) -> int:
        # number of hanging subtrees with m leaves
        if m < 1:
            return 0
        base = 1 if m == 1 else 0
        return base + ordered(p - 1, m)

    @lru_cache(maxsize=None)
    def ordered(r: int, m: int) -> int:
        # ordered r-tuples of hanging subtrees with m leaves in total
        if r == 0:
            return 1 if m == 0 else 0
        total = 0
        for first in range(1, m - r + 2):
            total += hanging(first) * ordered(r - 1, m - first)
        return total

    if kind == "leaf_rooted":
        return ordered(p - 1, k - 1)
    if kind == "corner_rooted":
        return ordered(p, k)
    raise ValueError("kind must be leaf_rooted or corner_rooted")


def test_closed_counts_match_exhaustive_enumeration():
    for p in (3, 4, 5):
        for k in range(1, 9):
            for kind in ("leaf_rooted", "corner_rooted"):
                assert tree_count(p, k, kind) == enumerate_tree_count(p, k, kind), (
                    p, k, kind)


def test_small_values():
    assert tree_count(3, 3) == 1  # the claw
    assert tree_count(3, 4) == 2
    assert tree_count(4, 3) == 0  # parity: k must be even for p=4
    with pytest.raises(ValueError):
        tree_count(2, 3)


def test_quartic_univariate_series():
    assert table_column("phi1", 4, 4)[2:5] == (3, 30, 420)
    assert table_column("theta", 4, 4)[2:4] == (6, 80)


def test_columns_are_the_y_free_entries_of_the_tables():
    for p in (3, 4, 5, 6):
        for name in ("theta", "phi1", "phi2", "g_inner", "h_inner"):
            table = _table(name, p, 14)
            column = table_column(name, p, 14)
            assert column == tuple(table.get((i, 0), 0) for i in range(15)), (p, name)
            assert all(type(c) is int for c in column)


def test_tables_are_built_once_and_read_only():
    # every caller in the process shares one table per (p, order), so none
    # may alter it
    tabs = phi_theta_tables(4, 6)
    assert tabs["phi1"] is phi_theta_tables(4, 6)["phi1"]
    assert g_inner_table(3, 6) is g_inner_table(3, 6)
    for table in (tabs["theta"], tabs["phi1"], tabs["phi2"], g_inner_table(3, 6),
                  h_inner_table(3, 6)):
        with pytest.raises(TypeError):
            table[(1, 0)] = 0
    with pytest.raises(TypeError):
        table_column("phi1", 4, 6)[2] = 0
    with pytest.raises(TypeError):
        tabs["theta"] = {}


def test_even_p_phi2_carries_y():
    for p in (4, 6):
        tabs = phi_theta_tables(p, 8)
        assert all(j >= 1 for (_i, j) in tabs["phi2"])


def test_cubic_theta_decomposition():
    order = 10
    tabs = phi_theta_tables(3, order)
    rhs = biv_add(
        biv_scale(tabs["phi1"], Q(-2)),
        biv_mul({(0, 0): Q(1), (0, 1): Q(-1)}, tabs["phi2"], order),
    )
    rhs = biv_add(rhs, {(1, 0): Q(-2), (0, 2): Q(-1)})
    assert biv_add(tabs["theta"], biv_scale(rhs, Q(-1))) == {}


def test_psi_reductions_match_raw_tables():
    order = 6
    tabs = phi_theta_tables(3, order)
    for which, key in ((1, "phi1"), (2, "phi2")):
        red = phi_from_psi(which, order)
        assert biv_add(red, biv_scale(tabs[key], Q(-1))) == {}


def test_psi_leading_coefficients():
    ps = psi_series(3)
    assert ps["psi1"][1] == 1 and ps["psi1"][2] == 6
    assert ps["psi2"][1] == 2 and ps["psi2"][2] == 30


def test_lambda_series_start():
    lam = lambda_series(5)
    assert lam[:6] == [0, 0, 0, 1, 15, 252]


def test_mullin_coefficients():
    assert quartic_mullin_coeff(4, 3) == 2
    assert quartic_mullin_coeff(4, 4) == 20
    assert quartic_mullin_coeff(3, 3) == 6
    assert quartic_mullin_coeff(3, 4) == 140
    # p=6 comes in steps of 2 in n; n=4 is one vertex with three loops,
    # i.e. the 5 rooted planar one-vertex maps with 3 edges
    assert quartic_mullin_coeff(6, 4) == 5
    assert quartic_mullin_coeff(6, 5) == 0
    # ints, like every closed count of the module
    assert all(type(quartic_mullin_coeff(p, n)) is int for p in (3, 4, 5, 6) for n in range(12))
