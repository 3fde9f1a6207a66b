"""Visibility predicates and vertex classifications.

The central primitive is a single O(n+m) sweep over a root's BFS DAG:
a vertex is *clear-reachable* when some shortest path from the root reaches
it without passing through a blocked vertex.  Every visibility question in
the package but the stress set reduces to that sweep, and the stress set
comes from one dominator pass over the same DAG; no path enumeration
happens outside the test oracles.

Terminology used throughout:

* S is an x-visibility set when x is not in S and every y in S can be
  reached from x along some shortest path whose interior avoids S.
* S is a mutual-visibility set when every pair u, v in S admits a shortest
  u,v-path whose interior avoids S.
* y is maximally distant from x when no neighbor of y is farther from x.
* y is a stress vertex for x when some maximally distant z (z distinct from
  both x and y) has all of its shortest x,z-paths passing through y.
"""

from __future__ import annotations

from .errors import InvalidParameterError, check_deadline
from .graph import Graph, RootView, connected_view, mask_to_set, require_connected

__all__ = [
    "clear_reachable",
    "is_visible_from",
    "is_x_visibility_set",
    "is_mutual_visibility_set",
    "maximally_distant",
    "stress_vertices",
    "simplicial_vertices",
    "has_universal_vertex",
    "has_spanning_double_star",
]


def _checked_mask(g: Graph, vertices) -> int:
    mask = 0
    for v in vertices:
        g.check_vertex(v)
        mask |= 1 << v
    return mask


def _clear_mask(rv: RootView, blocked_mask: int) -> int:
    """Bitmask of vertices reachable from rv.root along shortest paths that
    avoid blocked vertices entirely (the root itself is always included)."""
    reach = 1 << rv.root
    dag_in_mask = rv.dag_in_mask
    for v in rv.order[1:]:
        if not (blocked_mask >> v) & 1 and dag_in_mask[v] & reach:
            reach |= 1 << v
    return reach


def clear_reachable(g: Graph, x: int, blocked) -> frozenset[int]:
    """Vertices v outside `blocked` (plus x itself) admitting a shortest
    x,v-path that avoids `blocked` internally."""
    rv = connected_view(g, x)
    blocked_mask = _checked_mask(g, blocked)
    if (blocked_mask >> x) & 1:
        raise InvalidParameterError("root may not be blocked")
    return mask_to_set(_clear_mask(rv, blocked_mask))


def is_visible_from(g: Graph, x: int, blockers, y: int) -> bool:
    """True when some shortest x,y-path meets `blockers` only in {x, y}."""
    g.check_vertex(x)
    g.check_vertex(y)
    if x == y:
        raise InvalidParameterError("visibility is asked between distinct vertices")
    rv = connected_view(g, x)
    blocked_mask = _checked_mask(g, blockers) & ~(1 << x) & ~(1 << y)
    reach = _clear_mask(rv, blocked_mask)
    return bool(rv.dag_in_mask[y] & reach)


def _members_all_visible(rv: RootView, s_mask: int) -> bool:
    """One sweep check: every member of s_mask has a DAG predecessor that is
    clear-reachable around s_mask.  Interior vertices of a shortest path to a
    member are never the member itself, so blocking the full set is exact."""
    reach = _clear_mask(rv, s_mask)
    rest = s_mask
    dag_in_mask = rv.dag_in_mask
    while rest:
        low = rest & -rest
        y = low.bit_length() - 1
        if not dag_in_mask[y] & reach:
            return False
        rest ^= low
    return True


def is_x_visibility_set(g: Graph, x: int, s) -> bool:
    """Decide whether s is an x-visibility set (x itself must not be in s)."""
    rv = connected_view(g, x)
    s_mask = _checked_mask(g, s)
    if (s_mask >> x) & 1:
        raise InvalidParameterError("an x-visibility set may not contain x")
    return _members_all_visible(rv, s_mask)


def _pairwise_visible(views, members) -> bool:
    """Every pair of the ascending, distinct members sees each other around
    them all, views[u] being u's root view.  Visibility is symmetric, so
    each unordered pair is checked once, from the smaller endpoint."""
    s_mask = sum(1 << v for v in members)
    for i, u in enumerate(members[:-1]):
        rv = views[u]
        reach = _clear_mask(rv, s_mask & ~(1 << u))
        for v in members[i + 1:]:
            if not rv.dag_in_mask[v] & reach:
                return False
    return True


def is_mutual_visibility_set(g: Graph, s) -> bool:
    """Whether every pair of members sees each other around s; connected_view
    refuses a disconnected graph, from vertex 0 when s is empty."""
    members = sorted(set(s))
    return _pairwise_visible({u: connected_view(g, u) for u in members or [0]}, members)


def _maximally_distant_mask(rv: RootView) -> int:
    """Vertices with no neighbor farther from rv.root: a farther neighbor
    is one layer down, so these are the vertices that are no vertex's DAG
    parent."""
    parents = 0
    for mask in rv.dag_in_mask:
        parents |= mask
    return ((1 << len(rv.dist)) - 1) & ~parents


def maximally_distant(g: Graph, x: int) -> frozenset[int]:
    """All vertices with no neighbor farther from x than themselves: those
    that are no vertex's DAG parent in the connected_view of x."""
    return mask_to_set(_maximally_distant_mask(connected_view(g, x)))


def stress_vertices(g: Graph, x: int, deadline: float | None = None) -> frozenset[int]:
    """Stress vertices for x.

    Every shortest x,z-path passes through y exactly when y dominates z in
    the BFS DAG from x, so y != x qualifies when it strictly dominates some
    maximally distant z != x.  One walk of the BFS order, with a deadline
    check every 256 vertices, gives each vertex its immediate dominator: the
    nearest common dominator-tree ancestor of its DAG parents, by the
    intersect step of Cooper, Harvey and Kennedy ("A simple, fast dominance
    algorithm", 2001) with BFS distances as the ranks.  The answer is the
    union of the strict dominators of those z, without x.
    """
    return mask_to_set(_stress_mask(connected_view(g, x), deadline))


def _stress_mask(rv: RootView, deadline) -> int:
    """Bitmask of the stress vertices for rv.root (see stress_vertices)."""
    x = rv.root
    dist, idom = rv.dist, [x] * len(rv.dist)
    for i, v in enumerate(rv.order[1:]):
        if not i & 0xFF:
            check_deadline(deadline, "stress-vertex pass")
        rest = rv.dag_in_mask[v]
        a = rest.bit_length() - 1
        rest ^= 1 << a
        while rest:
            b = rest.bit_length() - 1
            rest ^= 1 << b
            # of two distinct vertices, one no nearer x is no ancestor of the other
            while a != b:
                if dist[a] >= dist[b]:
                    a = idom[a]
                else:
                    b = idom[b]
        idom[v] = a
    out = 1 << x  # marked first, so every walk up stops at x
    rest = _maximally_distant_mask(rv)
    while rest:
        low = rest & -rest
        rest ^= low
        y = idom[low.bit_length() - 1]
        while not (out >> y) & 1:
            out |= 1 << y
            y = idom[y]
    return out ^ (1 << x)


def simplicial_vertices(g: Graph) -> frozenset[int]:
    """Vertices whose neighborhood induces a complete subgraph."""
    out = []
    for v in range(g.n):
        nb_mask = g.adj_mask[v]
        if all(
            g.adj_mask[u] & nb_mask == nb_mask & ~(1 << u)
            for u in g.adj[v]
        ):
            out.append(v)
    return frozenset(out)


def has_universal_vertex(g: Graph) -> int | None:
    """Smallest vertex adjacent to all others, or None."""
    require_connected(g)
    for v in range(g.n):
        if len(g.adj[v]) == g.n - 1:
            return v
    return None


def has_spanning_double_star(g: Graph) -> bool:
    """True when some edge uv dominates the graph and each endpoint can keep
    a private leaf, i.e. the graph has a spanning tree with exactly two
    internal vertices."""
    require_connected(g)
    return _spanning_double_star(g)


def _spanning_double_star(g: Graph) -> bool:
    full = (1 << g.n) - 1
    for u, v in g.edges():
        if g.adj_mask[u] | g.adj_mask[v] | (1 << u) | (1 << v) != full:
            continue
        a = g.adj_mask[u] & ~(1 << v)
        b = g.adj_mask[v] & ~(1 << u)
        if a and b and (a | b).bit_count() >= 2:
            return True
    return False
