"""The brute-force map oracle: enumeration, Tutte data, activities."""

import random
from math import factorial

import pytest

from forestmaps.maps import (
    _at_nu_1,
    CombMap,
    ScaleGuardError,
    activity_poly,
    bernardi_activities,
    bernardi_tour_order,
    enumerate_maps,
    forest_poly,
    oracle_f,
    spanning_trees,
    tutte_poly,
)
from forestmaps.upoly import UPoly


def double_factorial(n):
    return 1 if n <= 1 else n * double_factorial(n - 2)


def single_edge():
    return CombMap(2, (0, 1), (1, 0), 0)


def single_loop():
    return CombMap(2, (1, 0), (1, 0), 0)


def theta_graph():
    # two vertices joined by three parallel edges, planar
    sigma = (2, 5, 4, 1, 0, 3)
    alpha = (1, 0, 3, 2, 5, 4)
    return CombMap(6, sigma, alpha, 0)


def test_map_validation():
    with pytest.raises(ValueError):
        CombMap(2, (0, 1), (0, 1), 0)  # alpha with fixed points
    with pytest.raises(ValueError):
        CombMap(4, (1, 0, 3, 2), (1, 0, 3, 2), 0)  # two components


def test_euler_infeasible_is_empty():
    assert enumerate_maps(3, 2) == []


def test_enumerate_counts():
    assert len(enumerate_maps(3, 3)) == 4
    assert len(enumerate_maps(4, 3)) == 2


def test_enumeration_matches_closed_forms_beyond_the_guard():
    # Tutte (1963): rooted planar 4-valent maps with v = n_faces - 2
    # vertices number 2 3^v (2v)! / (v! (v+2)!), i.e. 2, 9, 54, 378
    for n_faces in range(3, 7):
        v = n_faces - 2
        expected = 2 * 3 ** v * factorial(2 * v) // (factorial(v) * factorial(v + 2))
        assert len(enumerate_maps(4, n_faces, guard=False)) == expected
    # rooted planar cubic maps with 2k vertices, k = n_faces - 2, number
    # 2^(2k+1) (3k)!! / ((k+2)! k!!), i.e. 4, 32, 336
    for n_faces in range(3, 6):
        k = n_faces - 2
        expected = 2 ** (2 * k + 1) * double_factorial(3 * k) \
            // (factorial(k + 2) * double_factorial(k))
        assert len(enumerate_maps(3, n_faces, guard=False)) == expected


def test_enumerated_maps_are_canonical_planar_and_p_valent():
    for p, n_faces in ((3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (4, 5), (5, 5), (6, 4)):
        maps = enumerate_maps(p, n_faces, guard=False)
        assert maps
        for m in maps:
            c = m.canonical()
            assert (c.sigma, c.alpha, c.root_dart) == (m.sigma, m.alpha, 0)
            assert m.genus() == 0
            assert m.n_faces() == n_faces
            assert all(len(cyc) == p for cyc in m.vertices())


def test_scale_guard():
    with pytest.raises(ScaleGuardError, match=r"p=3 with n_faces <= 4.*got p=3, n_faces=5"):
        enumerate_maps(3, 5)
    with pytest.raises(ScaleGuardError):
        oracle_f(5, 3)


def test_forest_poly_basics():
    assert forest_poly(single_edge()) == UPoly((1, 1))  # {} and {e}
    assert forest_poly(single_loop()) == UPoly((1,))    # loops never in forests
    assert forest_poly(theta_graph()) == UPoly((3, 1))


def test_tutte_values():
    assert tutte_poly(single_edge()) == {(1, 0): 1}          # mu
    assert tutte_poly(single_loop()) == {(0, 1): 1}          # nu
    assert tutte_poly(theta_graph()) == {(1, 0): 1, (0, 1): 1, (0, 2): 1}


def tutte_at_mu_1(m: CombMap) -> UPoly:
    """T_M(u+1, 1) as a polynomial in u: must equal :func:`forest_poly`."""
    return _at_nu_1(tutte_poly(m))


def test_forest_poly_is_tutte_at_nu_1():
    for m in enumerate_maps(3, 3) + enumerate_maps(4, 3):
        assert forest_poly(m) == tutte_at_mu_1(m)


def test_bernardi_small_cases():
    assert bernardi_activities(single_edge(), frozenset({0})) == (1, 0)
    assert bernardi_activities(single_loop(), frozenset()) == (0, 1)
    with pytest.raises(ValueError):
        bernardi_activities(single_edge(), frozenset())  # not spanning


def test_bernardi_sums_to_tutte():
    assert activity_poly(theta_graph()) == tutte_poly(theta_graph())
    for m in enumerate_maps(3, 3) + enumerate_maps(4, 3) + enumerate_maps(4, 4):
        assert activity_poly(m) == tutte_poly(m)


def _reference_activities(m, tree):
    """(internal, external) activity counts with one search per edge: the
    side of tree - e for each tree edge e (its cocycle is every edge that
    crosses), the tree path for each non-tree edge (its cycle)."""
    vert = m.vertex_of()
    ends = [(vert[a], vert[b]) for a, b in m.edges()]
    rank = {e: i for i, e in enumerate(bernardi_tour_order(m, tree))}
    adj = {v: [] for v in range(len(m.vertices()))}
    for e in tree:
        a, b = ends[e]
        adj[a].append((b, e))
        adj[b].append((a, e))
    internal = 0
    for e in tree:
        side = _reference_side(adj, ends[e][0], e)
        cocycle = [f for f, (a, b) in enumerate(ends) if (a in side) != (b in side)]
        internal += min(cocycle, key=lambda f: rank[f]) == e
    external = 0
    for e, (a, b) in enumerate(ends):
        if e not in tree:
            cycle = _reference_path(adj, a, b) + [e]
            external += min(cycle, key=lambda f: rank[f]) == e
    return internal, external


def _reference_side(adj, start, e):
    """The vertices reached from start in the tree without edge e."""
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y, f in adj[x]:
            if f != e and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _reference_path(adj, a, b):
    """The edges of the tree path from a to b."""
    prev = {a: None}
    stack = [a]
    while stack:
        x = stack.pop()
        for y, f in adj[x]:
            if y not in prev:
                prev[y] = (x, f)
                stack.append(y)
    path = []
    while prev[b] is not None:
        b, f = prev[b]
        path.append(f)
    return path


def test_activities_are_the_two_search_reference():
    trees = 0
    for p, n_faces in ((3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (4, 5), (5, 5), (6, 4)):
        for m in enumerate_maps(p, n_faces, guard=False):
            for tree in spanning_trees(m):
                assert bernardi_activities(m, tree) == _reference_activities(m, tree)
                trees += 1
    assert trees == 4653


def test_theta_graph_has_three_spanning_trees():
    assert len(spanning_trees(theta_graph())) == 3


def test_canonical_dedup_is_labeling_invariant():
    # relabel darts of every enumerated map by a random permutation and
    # check the canonical form is unchanged
    rng = random.Random(5)
    for m in enumerate_maps(4, 3) + enumerate_maps(3, 3) + enumerate_maps(3, 4) \
            + enumerate_maps(4, 4):
        perm = list(range(m.n_darts))
        rng.shuffle(perm)
        sigma = [0] * m.n_darts
        alpha = [0] * m.n_darts
        for d in range(m.n_darts):
            sigma[perm[d]] = perm[m.sigma[d]]
            alpha[perm[d]] = perm[m.alpha[d]]
        relabeled = CombMap(m.n_darts, tuple(sigma), tuple(alpha), perm[m.root_dart])
        c1, c2 = m.canonical(), relabeled.canonical()
        assert (c1.sigma, c1.alpha) == (c2.sigma, c2.alpha)


def test_oracle_values():
    assert oracle_f(3, 3) == UPoly((6, 4))
    assert oracle_f(3, 3, "tree_rooted_activity") == UPoly((6, 4))
    assert oracle_f(3, 3, "root_edge_outside") == UPoly((4, 4))
    assert oracle_f(4, 3) == UPoly((2,))
    assert oracle_f(4, 4) == UPoly((20, 9))
    assert oracle_f(4, 4, "root_edge_outside") == UPoly((15, 9))


def test_map_json_roundtrip():
    m = theta_graph()
    again = CombMap.from_json(m.to_json())
    assert (again.sigma, again.alpha, again.root_dart) == (m.sigma, m.alpha, 0)


def test_genus_and_faces():
    m = theta_graph()
    assert m.genus() == 0
    assert m.n_faces() == 3
