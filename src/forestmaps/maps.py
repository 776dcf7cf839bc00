"""Brute-force ground truth on small rooted p-valent planar maps.

A rooted combinatorial map is a pair of permutations on darts 0..2E-1: the
vertex rotation sigma (counterclockwise order of darts around each vertex)
and the edge involution alpha, plus a root dart.  Rooted maps have no
nontrivial automorphisms, so relabeling darts in the discovery order of a
deterministic traversal from the root gives a complete canonical form;
equality of canonical (sigma, alpha) arrays is map equality.  Enumeration
lists those canonical labellings directly, each once (orderly generation in
the sense of Read 1978 and McKay 1998), and keeps the genus-0 ones.

Everything here is a correctness instrument, not a production enumerator:
the scales are guarded and exceeding them raises :class:`ScaleGuardError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

from .upoly import UPoly

MAX_ORACLE_FACES = {3: 4, 4: 4}


class ScaleGuardError(ValueError):
    """Raised when an oracle call would exceed its desk-scale guard."""


@dataclass(frozen=True)
class CombMap:
    n_darts: int
    sigma: Tuple[int, ...]
    alpha: Tuple[int, ...]
    root_dart: int = 0

    def __post_init__(self):
        n = self.n_darts
        if sorted(self.sigma) != list(range(n)) or sorted(self.alpha) != list(range(n)):
            raise ValueError("sigma and alpha must be permutations of 0..n_darts-1")
        for d in range(n):
            if self.alpha[d] == d or self.alpha[self.alpha[d]] != d:
                raise ValueError("alpha must be a fixed-point-free involution")
        if not self._connected():
            raise ValueError("the permutation pair does not act transitively")

    def _connected(self) -> bool:
        seen = [False] * self.n_darts
        stack = [self.root_dart]
        seen[self.root_dart] = True
        count = 1
        while stack:
            d = stack.pop()
            for e in (self.sigma[d], self.alpha[d]):
                if not seen[e]:
                    seen[e] = True
                    count += 1
                    stack.append(e)
        return count == self.n_darts

    # -- structure ---------------------------------------------------------

    def vertices(self) -> List[Tuple[int, ...]]:
        return _cycles(self.sigma)

    def edges(self) -> List[Tuple[int, int]]:
        return [(d, self.alpha[d]) for d in range(self.n_darts) if d < self.alpha[d]]

    def faces(self) -> List[Tuple[int, ...]]:
        comp = tuple(self.sigma[self.alpha[d]] for d in range(self.n_darts))
        return _cycles(comp)

    def genus(self) -> int:
        v = len(self.vertices())
        e = self.n_darts // 2
        f = len(self.faces())
        euler = v - e + f
        if euler % 2 != 0:
            raise ValueError("odd Euler characteristic; corrupt map")
        return (2 - euler) // 2

    def n_faces(self) -> int:
        return len(self.faces())

    def vertex_of(self) -> List[int]:
        """dart -> vertex index (vertices in cycle order of :meth:`vertices`)."""
        out = [0] * self.n_darts
        for i, cyc in enumerate(self.vertices()):
            for d in cyc:
                out[d] = i
        return out

    def root_edge(self) -> int:
        """Index into :meth:`edges` of the edge carrying the root dart."""
        r = self.root_dart
        for i, (a, b) in enumerate(self.edges()):
            if r in (a, b):
                return i
        raise AssertionError("unreachable")

    def canonical(self) -> "CombMap":
        """Relabel darts in BFS discovery order from the root (sigma first,
        then alpha); the result is the canonical representative of the
        rooted isomorphism class."""
        new = {self.root_dart: 0}
        order = [self.root_dart]
        head = 0
        while head < len(order):
            d = order[head]
            head += 1
            for e in (self.sigma[d], self.alpha[d]):
                if e not in new:
                    new[e] = len(order)
                    order.append(e)
        n = self.n_darts
        sigma = [0] * n
        alpha = [0] * n
        for old, lab in new.items():
            sigma[lab] = new[self.sigma[old]]
            alpha[lab] = new[self.alpha[old]]
        return CombMap(n, tuple(sigma), tuple(alpha), 0)

    def to_json(self) -> dict:
        return {
            "n_darts": self.n_darts,
            "sigma": list(self.sigma),
            "alpha": list(self.alpha),
            "root_dart": self.root_dart,
        }


def _cycles(perm: Sequence[int]) -> List[Tuple[int, ...]]:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = []
        d = start
        while not seen[d]:
            seen[d] = True
            cyc.append(d)
            d = perm[d]
        out.append(tuple(cyc))
    return out


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _canonical_labellings(p: int, n_darts: int) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """Every connected (sigma, alpha) with p-cycle vertices that is its own
    :meth:`CombMap.canonical` form, each exactly once.

    Darts are processed in label order; dart d picks sigma(d), then alpha(d)
    unless an earlier dart set it, among the labels already in use and the
    next fresh one, which is the discovery order of the canonical BFS.  A
    vertex cycle may neither pass p darts nor close below p, and a branch
    that runs out of labelled darts before placing all of them is
    disconnected.
    """
    sigma, sigma_inv, alpha = [-1] * n_darts, [-1] * n_darts, [-1] * n_darts

    def run(x, step):
        """Last dart and length of the open sigma path from x along step."""
        k = 1
        while step[x] >= 0:
            x, k = step[x], k + 1
        return x, k

    def place_sigma(d, used):
        if d == n_darts:
            yield tuple(sigma), tuple(alpha)
            return
        if d == used:
            return
        head, a = run(d, sigma_inv)  # d ends an open path of a darts
        for x in range(min(used + 1, n_darts)):
            # x must start a path: closing d's own path needs exactly p
            # darts, joining another may not exceed p
            if sigma_inv[x] >= 0 or (a != p if x == head else a + run(x, sigma)[1] > p):
                continue
            sigma[d], sigma_inv[x] = x, d
            yield from place_alpha(d, used + (x == used))
            sigma[d] = sigma_inv[x] = -1

    def place_alpha(d, used):
        if alpha[d] >= 0:
            yield from place_sigma(d + 1, used)
            return
        for x in range(min(used + 1, n_darts)):
            if x != d and alpha[x] < 0:
                alpha[d], alpha[x] = x, d
                yield from place_sigma(d + 1, used + (x == used))
                alpha[d] = alpha[x] = -1

    yield from place_sigma(0, 1)


def enumerate_maps(p: int, n_faces: int, guard: bool = True) -> List[CombMap]:
    """One canonical representative per rooted isomorphism class of
    connected planar p-valent maps with the given face count.

    The vertex count is forced by Euler's relation, v = 2(n_faces-2)/(p-2);
    an infeasible count yields the empty list.  Maps are rooted at dart 0.
    """
    if p < 3:
        raise ValueError("need p >= 3")
    if guard and (p not in MAX_ORACLE_FACES or n_faces > MAX_ORACLE_FACES[p]):
        raise ScaleGuardError(
            "oracle enumeration is guarded to %s; got p=%d, n_faces=%d"
            % (", ".join("p=%d with n_faces <= %d" % lim
                         for lim in sorted(MAX_ORACLE_FACES.items())), p, n_faces))
    num = 2 * (n_faces - 2)
    if n_faces < 2 or num <= 0 or num % (p - 2) != 0:
        return []
    v = num // (p - 2)
    n_darts = p * v
    out = []
    for sigma, alpha in _canonical_labellings(p, n_darts):
        if v - n_darts // 2 + len(_cycles([sigma[a] for a in alpha])) == 2:
            out.append(CombMap(n_darts, sigma, alpha, 0))
    out.sort(key=lambda m: (m.sigma, m.alpha))
    return out


# ---------------------------------------------------------------------------
# forests, Tutte polynomial, activities
# ---------------------------------------------------------------------------

def _graph(m: CombMap) -> Tuple[List[Tuple[int, int]], int]:
    """(vertex pair of each edge in :meth:`CombMap.edges` order, vertex count)."""
    vert = m.vertex_of()
    return [(vert[a], vert[b]) for a, b in m.edges()], len(m.vertices())


def _edges_components(ends: List[Tuple[int, int]], n_v: int, mask: int) -> Tuple[int, int]:
    """(edge count, component count) of the spanning subgraph whose edges
    are the set bits of mask, from one union-find pass.  The subgraph is a
    forest exactly when the two add up to n_v."""
    parent = list(range(n_v))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    k, comps = 0, n_v
    for e, (a, b) in enumerate(ends):
        if (mask >> e) & 1:
            k += 1
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                comps -= 1
    return k, comps


def _subsets(m: CombMap) -> Iterator[Tuple[int, int, int]]:
    """(mask, edge count, component count) of every edge subset of m, in
    mask order."""
    ends, n_v = _graph(m)
    for mask in range(1 << len(ends)):
        yield (mask,) + _edges_components(ends, n_v, mask)


def forest_poly(m: CombMap, exclude_root_edge: bool = False) -> UPoly:
    """Sum over acyclic edge subsets of u^(components - 1).

    A forest on all v vertices with k edges has v - k components.  With
    `exclude_root_edge`, only forests avoiding the root edge count (the
    root-edge-outside series H).
    """
    banned = 1 << m.root_edge() if exclude_root_edge else 0
    n_v = len(m.vertices())
    coeffs = [0] * n_v
    for mask, k, comps in _subsets(m):
        if not mask & banned and k + comps == n_v:
            coeffs[comps - 1] += 1
    return UPoly(coeffs)


def tutte_poly(m: CombMap) -> Dict[Tuple[int, int], object]:
    """Exact subset-expansion Tutte polynomial as {(mu_pow, nu_pow): coeff}."""
    n_v = len(m.vertices())
    out: Dict[Tuple[int, int], object] = {}
    for _mask, k, comps in _subsets(m):
        a = comps - 1  # c(S) - c(G), the map is connected
        b = k + comps - n_v  # cyclomatic number
        # expand (mu-1)^a (nu-1)^b
        for i in range(a + 1):
            ca = comb(a, i) * (-1) ** (a - i)
            for j in range(b + 1):
                c = ca * comb(b, j) * (-1) ** (b - j)
                key = (i, j)
                out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c != 0}


def _at_nu_1(poly: Dict[Tuple[int, int], int]) -> UPoly:
    """A {(mu_pow, nu_pow): coeff} polynomial at nu = 1, as a polynomial in
    u = mu - 1."""
    mu = [0] * (max((i for i, _ in poly), default=-1) + 1)
    for (i, _j), c in poly.items():
        mu[i] += c
    return UPoly(mu).from_mu()


def spanning_trees(m: CombMap) -> List[FrozenSet[int]]:
    n_v = len(m.vertices())
    return [frozenset(e for e in range(mask.bit_length()) if (mask >> e) & 1)
            for mask, k, comps in _subsets(m) if comps == 1 and k == n_v - 1]


def bernardi_tour_order(m: CombMap, tree: FrozenSet[int]) -> List[int]:
    """Edge order induced by walking around the spanning tree from the root.

    Motion on darts: from dart d, continue to sigma(alpha(d)) when the edge
    of d is in the tree, else to sigma(d).  Edges are ordered by the first
    time one of their darts is traversed.  This fixes one chirality; the
    activity counts it induces satisfy the Tutte identity, which is the
    property the package asserts (the mirror convention would too).
    """
    edge_of = [0] * m.n_darts
    for i, (a, b) in enumerate(m.edges()):
        edge_of[a] = edge_of[b] = i
    order: List[int] = []
    seen_edge = set()
    d = m.root_dart
    for _ in range(m.n_darts):
        e = edge_of[d]
        if e not in seen_edge:
            seen_edge.add(e)
            order.append(e)
        d = m.sigma[m.alpha[d]] if e in tree else m.sigma[d]
    if d != m.root_dart or len(order) != len(m.edges()):
        raise AssertionError("tour did not close after visiting every dart")
    return order


def bernardi_activities(m: CombMap, tree: FrozenSet[int]) -> Tuple[int, int]:
    """(internal, external) activity counts of a spanning tree under the
    tour order.

    A tree edge is internally active when it is tour-minimal in its
    fundamental cocycle; a non-tree edge is externally active when it is
    tour-minimal in its fundamental cycle.
    """
    ends, n_v = _graph(m)
    mask = sum(1 << e for e in tree)
    if len(tree) != n_v - 1 or _edges_components(ends, n_v, mask)[1] != 1:
        raise ValueError("the given edge set is not a spanning tree")
    order = bernardi_tour_order(m, tree)
    rank = {e: i for i, e in enumerate(order)}
    adj: Dict[int, List[Tuple[int, int]]] = {v: [] for v in range(n_v)}
    for e in tree:
        a, b = ends[e]
        adj[a].append((b, e))
        adj[b].append((a, e))

    def tour_minimal(e, edges):
        return not any(rank[g] < rank[e] for g in edges)

    # the fundamental cycle of a non-tree edge f is f plus its tree path;
    # the fundamental cocycle of a tree edge e is e plus every non-tree
    # edge whose tree path passes e
    external = 0
    cocycles = {e: [e] for e in tree}
    for f, (a, b) in enumerate(ends):
        if f not in tree:
            path = _tree_path(adj, a, b)
            external += tour_minimal(f, path)
            for e in path:
                cocycles[e].append(f)
    return sum(tour_minimal(e, c) for e, c in cocycles.items()), external


def _tree_path(adj, a, b) -> List[int]:
    """Edges on the tree path between vertices a and b (BFS)."""
    if a == b:
        return []
    prev = {a: (None, None)}
    queue = [a]
    head = 0
    while head < len(queue) and b not in prev:
        x = queue[head]
        head += 1
        for y, f in adj[x]:
            if y not in prev:
                prev[y] = (x, f)
                queue.append(y)
    path = []
    x = b
    while prev[x][0] is not None:
        path.append(prev[x][1])
        x = prev[x][0]
    return path


def activity_poly(m: CombMap) -> Dict[Tuple[int, int], int]:
    """Sum over spanning trees of mu^internal nu^external; equals the Tutte
    polynomial (the desk-scale instance of Bernardi's theorem)."""
    out: Dict[Tuple[int, int], int] = {}
    for tree in spanning_trees(m):
        i, e = bernardi_activities(m, tree)
        out[(i, e)] = out.get((i, e), 0) + 1
    return out


def oracle_f(p: int, n_faces: int, variant: str = "all_forests") -> UPoly:
    """The z^n_faces coefficient of F (or H), computed combinatorially.

    Variants: 'all_forests' sums u^(components-1) over forested maps,
    'tree_rooted_activity' sums (u+1)^internal over tree-rooted maps (the
    same polynomial by the activity description), 'root_edge_outside'
    restricts to forests avoiding the root edge (the series H).
    """
    maps = enumerate_maps(p, n_faces)
    if variant == "tree_rooted_activity":
        return sum((_at_nu_1(activity_poly(m)) for m in maps), UPoly())
    if variant in ("all_forests", "root_edge_outside"):
        return sum((forest_poly(m, variant == "root_edge_outside") for m in maps), UPoly())
    raise ValueError("unknown oracle variant %r" % variant)
