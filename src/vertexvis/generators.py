"""Deterministic constructors for named graph families and gadgets.

Product graphs use the row-major id convention: the vertex (g, h) of G box H
gets id g * n(H) + h.  For the square families (grid, prism, torus) on side n
this means coordinate (row k, column l), 1-based, lands on id
(k-1) * n + (l-1); the witness constructions address vertices that way.
"""

from __future__ import annotations

import math
import random
from typing import Callable, NamedTuple

from .errors import (
    InvalidParameterError,
    IsolatedVertexError,
    TooLargeError,
    UnsupportedFamilyError,
    check_deadline,
)
from .graph import Graph, check_vertex_count, is_connected

__all__ = [
    "FAMILIES",
    "FamilySpec",
    "parse_family_spec",
    "generate",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "double_star",
    "cocktail_party",
    "grid_graph",
    "prism_graph",
    "torus_graph",
    "complete_product",
    "cartesian_product",
    "np_gadget",
    "ReductionResult",
    "figure_family",
    "FIGURE_EDGES",
    "random_connected_graph",
    "random_graph_no_isolated",
    "random_tree",
    "random_block_graph",
]

# largest edge list complete, cocktail, kxk and np_gadget build before
# Graph() sees it, and largest expected edge count of a G(n, p) sample; more
# is refused up front (complete:20000 would build 2e8 edge tuples)
MAX_DENSE_EDGES = 1_000_000

# a G(n, p) spec expecting more draws is refused before any draw: about 95 s
# at 95 ns a draw, as measured on a 2-core x86-64 VM (random:2000,0.0025
# expects 7e5 samples of 2e6 draws each)
MAX_DRAWS = 10**9


def _check_dense(what: str, m: int) -> None:
    if m > MAX_DENSE_EDGES:
        raise TooLargeError(f"{what} has {m} edges, above the limit of {MAX_DENSE_EDGES}")


class _FamilySpecFields(NamedTuple):
    family: str
    args: tuple[int | float, ...]


class FamilySpec(_FamilySpecFields):
    """A named family plus its parameters, e.g. grid:5, kxk:3,2 or
    random:8,0.4; FAMILIES lists the names and parameter types.  Checked
    when constructed (a NamedTuple body may not define __new__, hence the
    fields class)."""

    __slots__ = ()

    def __new__(cls, family: str, args: tuple[int | float, ...]):
        params = _family(family).params
        if len(args) != len(params):
            raise InvalidParameterError(
                f"family {family!r} takes {len(params)} parameter(s), got {args}"
            )
        for kind, a in zip(params, args):
            # bool is an int subclass; a float parameter also takes an int
            if isinstance(a, bool) or not isinstance(a, int if kind is int else (int, float)):
                usage = ",".join(k.__name__ for k in params)
                raise InvalidParameterError(
                    f"family {family!r} takes {usage} parameters, got {args}"
                )
        if not all(a > 0 for a in args):
            raise InvalidParameterError(f"parameters must be positive: {args}")
        return super().__new__(cls, family, args)

    def __str__(self):
        return f"{self.family}:{','.join(str(a) for a in self.args)}"


def _family(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise UnsupportedFamilyError(f"unknown family {name!r}") from None


def parse_family_spec(text: str) -> FamilySpec:
    name, sep, rest = text.partition(":")
    if not sep:
        raise InvalidParameterError(f"family spec needs 'name:params', got {text!r}")
    params = _family(name).params
    try:
        args = tuple(
            kind(part) for kind, part in zip(params, rest.split(","), strict=True)
        )
    except ValueError as exc:
        usage = ",".join(kind.__name__ for kind in params)
        raise InvalidParameterError(
            f"bad family parameters in {text!r}, expected {name}:{usage}"
        ) from exc
    return FamilySpec(name, args)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidParameterError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    _check_dense(f"K_{n}", n * (n - 1) // 2)
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(k: int) -> Graph:
    """K_{1,k}: center 0 with k leaves."""
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def double_star(a: int, b: int) -> Graph:
    """Two adjacent centers 0 and 1 carrying a and b leaves."""
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(a)]
    edges += [(1, 2 + a + i) for i in range(b)]
    return Graph(a + b + 2, edges)


def cocktail_party(k: int) -> Graph:
    """K_{k x 2}: complete multipartite with k parts of size two."""
    if k < 2:
        raise InvalidParameterError("cocktail party graph needs k >= 2")
    n = 2 * k
    _check_dense(f"cocktail party graph on {n} vertices", 2 * k * (k - 1))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if u // 2 != v // 2
    ]
    return Graph(n, edges)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (a,b) ~ (a',b') iff equal in one coordinate and
    adjacent in the other.  Vertex (a, b) gets id a * n(H) + b.  Each H-edge
    is shifted into every row, each G-edge into every column, and (a, b) has
    mask h.adj_mask[b] << a * n(H) | columns[a] << b: O(n) big-int steps and
    no product edge list.  Over MAX_FILE_VERTICES vertices, refused first."""
    nh = h.n
    check_vertex_count(g.n * nh)
    columns = [sum(1 << a2 * nh for a2 in nb) for nb in g.adj]
    masks = [mask << a * nh | columns[a] << b
             for a in range(g.n) for b, mask in enumerate(h.adj_mask)]
    neighbors = [[] for _ in masks]
    for pairs, shifts in ((h.edges(), range(0, g.n * nh, nh)),
                          (((a * nh, a2 * nh) for a, a2 in g.edges()), range(nh))):
        for u, v in pairs:
            for d in shifts:
                neighbors[u + d].append(v + d)
                neighbors[v + d].append(u + d)
    return Graph._from_lists(neighbors, masks)


def grid_graph(n: int) -> Graph:
    return cartesian_product(path_graph(n), path_graph(n))


def prism_graph(n: int) -> Graph:
    """Square prism: path rows, cyclic columns (P_n box C_n)."""
    return cartesian_product(path_graph(n), cycle_graph(n))


def torus_graph(n: int) -> Graph:
    return cartesian_product(cycle_graph(n), cycle_graph(n))


def complete_product(m: int, n: int) -> Graph:
    _check_dense(f"K_{m} box K_{n}", m * n * (m + n - 2) // 2)
    return cartesian_product(complete_graph(m), complete_graph(n))


# ---------------------------------------------------------------------------
# the 16-vertex family separating max-leaf counts from visibility numbers

# 1-based edges of one copy; vertex 16 is the hub shared between copies.
FIGURE_EDGES = (
    (5, 1), (5, 2), (5, 3),
    (7, 4), (7, 5), (7, 6),
    (13, 9), (13, 10), (13, 11),
    (15, 12), (15, 13), (15, 14),
    (16, 7), (16, 8), (16, 15),
    (8, 2), (8, 10),
)

# labeled vertices of one copy, 1-based
_FIGURE_LABELS = {"x": 16, "y": 7, "z": 15, "a": 5, "b": 2, "c": 8}


def figure_family(copies: int) -> tuple[Graph, dict]:
    """`copies` disjoint copies of the 16-vertex graph with all hub vertices
    identified; n = 15 * copies + 1.

    Returns (graph, labels) where labels["x"] is the shared hub id and each
    of "y", "z", "a", "b", "c" maps to a tuple with one id per copy.
    Ids are 0-based: copy j occupies 15*j .. 15*j+14, the hub is 15*copies.
    """
    if copies < 1:
        raise InvalidParameterError("figure1 needs at least one copy")
    hub = 15 * copies
    edges = []
    for j in range(copies):
        off = 15 * j
        for u, v in FIGURE_EDGES:
            uu = hub if u == 16 else off + u - 1
            vv = hub if v == 16 else off + v - 1
            edges.append((uu, vv))
    labels: dict[str, object] = {"x": hub}
    for name in ("y", "z", "a", "b", "c"):
        local = _FIGURE_LABELS[name]
        labels[name] = tuple(15 * j + local - 1 for j in range(copies))
    return Graph(15 * copies + 1, edges), labels


# ---------------------------------------------------------------------------
# hardness gadget: decide-an-independent-set inside a diameter-2 supergraph

class ReductionResult(NamedTuple):
    """Output of np_gadget.

    gprime: the transformed graph; apex: the vertex adjacent to every
    original vertex; original_map[i]: id of original vertex i inside gprime;
    edge_vertex_map: original edge (u, v), u < v -> id of its edge vertex;
    k_offset: number of original edges, so that independent sets of size t
    correspond to apex-visibility sets of size k_offset + t.
    """

    gprime: Graph
    apex: int
    original_map: tuple[int, ...]
    edge_vertex_map: dict
    k_offset: int


def np_gadget(g: Graph) -> ReductionResult:
    """Augment g with a universal-over-originals apex and one vertex per
    original edge; the edge vertices induce a clique and each one is adjacent
    to exactly the two endpoints of its edge.  Original edges are kept.

    The apex-visibility number of the result equals m(g) plus the maximum
    independent set size of g.  Built a vertex at a time from g's lists and
    masks, in O(n + m) big-int steps.  Rejects graphs with isolated
    vertices, named by 1-based id, and gadgets over MAX_DENSE_EDGES edges
    before any edge is built.
    """
    for v in range(g.n):
        if not g.adj[v]:
            raise IsolatedVertexError(f"vertex {v + 1} is isolated")
    n, m = g.n, g.m
    _check_dense(f"visibility gadget of a graph with {m} edges",
                 m + n + 2 * m + m * (m - 1) // 2)
    apex = n
    clique = list(range(n + 1, n + 1 + m))
    edge_ids = dict(zip(g.edges(), clique))
    neighbors = [[*nb, apex] for nb in g.adj] + [list(range(n))]
    masks = [mask | 1 << apex for mask in g.adj_mask] + [(1 << n) - 1]
    clique_mask = ((1 << m) - 1) << (n + 1)
    for i, ((u, v), ev) in enumerate(edge_ids.items()):
        bit = 1 << ev
        for w in (u, v):
            neighbors[w].append(ev)
            masks[w] |= bit
        neighbors.append([u, v, *clique[:i], *clique[i + 1:]])
        masks.append(clique_mask ^ bit | 1 << u | 1 << v)
    return ReductionResult(
        gprime=Graph._from_lists(neighbors, masks),
        apex=apex,
        original_map=tuple(range(n)),
        edge_vertex_map=edge_ids,
        k_offset=m,
    )


# ---------------------------------------------------------------------------
# seeded random graphs (the random, rtree and rblock specs)

def _sample_gnp(n: int, p: float, seed: int, accept, what: str, deadline=None) -> Graph:
    """Erdos-Renyi G(n, p), resampled until accept(graph) holds, at most
    1000 times, checking the deadline before each block of 64 rows (the
    pairs (u, v), u < v, of 64 consecutive u) of a sample.  Refused before
    any draw when p n (n - 1) / 2 expected edges exceed MAX_DENSE_EDGES, or
    when its expected draws exceed MAX_DRAWS: a sample without isolated
    vertices, of I = n (1 - p)^(n - 1) expected, takes about e^I samples of
    n (n - 1) / 2 draws each (compared in log space: exp overflows above 709)."""
    if not 0 < p <= 1:
        raise InvalidParameterError(f"edge probability must lie in (0, 1], got {p}")
    expected = p * n * (n - 1) / 2
    if expected > MAX_DENSE_EDGES:
        raise TooLargeError(
            f"G({n}, {p}) expects {expected:.0f} edges, above the limit of {MAX_DENSE_EDGES}"
        )
    isolated = n * (1 - p) ** (n - 1)
    pairs = n * (n - 1) // 2
    if isolated + math.log(max(pairs, 1)) > math.log(MAX_DRAWS):
        raise InvalidParameterError(
            f"G({n}, {p}) expects {isolated:.0f} isolated vertices, so a {what} "
            f"sample takes about e^{isolated:.1f} samples of {pairs} draws each, "
            f"above the limit of {MAX_DRAWS} draws; p must be near or above the "
            f"connectivity threshold ln(n)/n = {math.log(n) / n:.4g}"
        )
    rng = random.Random(seed)
    for _ in range(1000):
        edges = []
        for top in range(0, n, 64):
            check_deadline(deadline, "graph generation")
            edges += [(u, v) for u in range(top, min(top + 64, n))
                      for v in range(u + 1, n) if rng.random() < p]
        g = Graph(n, edges)
        if accept(g):
            return g
    raise InvalidParameterError(
        f"no {what} sample in 1000 tries for n={n}, p={p}"
    )


def random_connected_graph(n: int, p: float, seed: int, deadline: float | None = None) -> Graph:
    """Erdos-Renyi G(n, p), resampled until connected."""
    return _sample_gnp(n, p, seed, is_connected, "connected", deadline)


def random_graph_no_isolated(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), resampled until no vertex is isolated (the graph
    itself may be disconnected)."""
    return _sample_gnp(n, p, seed, lambda g: all(g.adj), "isolated-free")


def random_tree(n: int, seed: int) -> Graph:
    """Random labeled tree: each vertex attaches to a random earlier one."""
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return Graph(n, edges)


def random_block_graph(n: int, seed: int) -> Graph:
    """Random connected block graph: cliques of 2 to 4 vertices glued at cut
    vertices.

    Guarantees at least two blocks, hence never a complete graph, for n >= 3.
    """
    if n < 3:
        raise InvalidParameterError("block graph sampler needs n >= 3")
    rng = random.Random(seed)
    first = rng.randint(2, min(4, n - 1))
    vertices = list(range(first))
    edges = [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:]]
    count = first
    while count < n:
        size = min(rng.randint(2, 4), n - count + 1)
        cut = rng.choice(range(count))
        block = [cut] + list(range(count, count + size - 1))
        count += size - 1
        edges += [(u, v) for i, u in enumerate(block) for v in block[i + 1:]]
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# the family table behind specs such as grid:5, kxk:3,2 or random:8,0.4

class Family(NamedTuple):
    """A spec family: its parameter types, in spec order, its builder, which
    takes the seed and the deadline as two more arguments when seeded is
    set, and the vertex count of the graph it builds from the same ones."""

    params: tuple[type, ...]
    build: Callable[..., Graph]
    vertices: Callable[..., int]
    seeded: bool = False


FAMILIES: dict[str, Family] = {
    "path": Family((int,), path_graph, lambda n: n),
    "cycle": Family((int,), cycle_graph, lambda n: n),
    "complete": Family((int,), complete_graph, lambda n: n),
    "star": Family((int,), star_graph, lambda k: k + 1),
    "double_star": Family((int, int), double_star, lambda a, b: a + b + 2),
    "cocktail": Family((int,), cocktail_party, lambda k: 2 * k),
    "grid": Family((int,), grid_graph, lambda n: n * n),
    "prism": Family((int,), prism_graph, lambda n: n * n),
    "torus": Family((int,), torus_graph, lambda n: n * n),
    "kxk": Family((int, int), complete_product, lambda m, n: m * n),
    "figure1": Family((int,), lambda copies: figure_family(copies)[0],
                      lambda copies: 15 * copies + 1),
    "random": Family((int, float), random_connected_graph, lambda n, p: n, seeded=True),
    "rtree": Family((int,), lambda n, s, _: random_tree(n, s), lambda n: n, seeded=True),
    "rblock": Family((int,), lambda n, s, _: random_block_graph(n, s), lambda n: n, seeded=True),
}


def generate(spec: FamilySpec, seed: int = 0, deadline: float | None = None) -> Graph:
    """Materialize a family spec; seed drives the random families and is
    ignored by the others, and random: specs check the request deadline
    every 64 rows of each sample.  figure1 returns the graph only (see
    figure_family for the labeled vertices).  A spec of more than
    MAX_FILE_VERTICES vertices raises TooLargeError before it is built."""
    family = FAMILIES[spec.family]
    n = family.vertices(*spec.args)
    check_vertex_count(n, spec)
    if family.seeded:
        return family.build(*spec.args, seed, deadline)
    return family.build(*spec.args)
