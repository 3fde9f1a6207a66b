"""Property tests of the grouped parent-cover kernel behind vx_exact and
vx_greedy: directly on random hitting-set groups, and on graphs built so
that the root sees several non-trivial BFS layers and several independent
constraint groups in each of them."""

import random
from collections import Counter
from functools import partial, reduce
from itertools import combinations
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexvis.generators import generate, np_gadget, parse_family_spec, random_connected_graph
from vertexvis.graph import Graph, bfs_root_view
from vertexvis.solvers import (
    _greedy_group,
    _layer_groups,
    _min_group_cover,
    vx_brute,
    vx_exact,
    vx_greedy,
)
from vertexvis.visibility import is_x_visibility_set

from oracles import (
    cover_groups_reference,
    encoded_groups,
    greedy_group_reference,
    min_group_cover_reference,
    solve_root_frozen,
)


@st.composite
def branched_graphs(draw, max_n, max_branches, max_depth):
    """A connected graph on at most max_n vertices: two or more branches hang
    off root 0, each with at least three layers.  Every vertex has one or more
    parents in the layer above it, in its own branch, plus a few edges inside
    its layer.  Branches meet only at the root, so from root 0 each of layers
    2 and 3 holds at least one constraint group per branch."""
    branches = draw(st.integers(2, max_branches))
    depths = [draw(st.integers(3, max_depth)) for _ in range(branches)]
    layers_left = sum(depths)
    spare = max_n - 1
    edges: set[tuple[int, int]] = set()
    n = 1
    for depth in depths:
        above = [0]
        for _ in range(depth):
            layers_left -= 1
            size = draw(st.integers(1, min(3, spare - layers_left)))
            spare -= size
            layer = list(range(n, n + size))
            n += size
            for v in layer:
                parents = draw(st.lists(st.sampled_from(above), min_size=1, unique=True))
                edges.update((p, v) for p in parents)
            if size > 1:
                pairs = [(u, v) for u in layer for v in layer if u < v]
                edges.update(draw(st.lists(st.sampled_from(pairs), unique=True)))
            above = layer
    return Graph(n, sorted(edges))


@st.composite
def hitting_groups(draw):
    """One group as _encode returns it, (sets, covers): at most 12
    candidates, each used, and 8-35 constraints of 1-4 candidates, some of
    them singletons or repeats.  So many constraints on so few candidates
    make the greedy incumbent miss the optimum in about one group in nine,
    so that a search that gives up too early shows."""
    size = draw(st.integers(6, 12))
    constraint = st.frozensets(st.integers(0, size - 1), min_size=1, max_size=4)
    drawn = draw(st.lists(constraint, min_size=8, max_size=32))
    drawn += draw(st.lists(st.sampled_from(drawn), max_size=3))
    cands = sorted(set().union(*drawn))
    pos = {p: i for i, p in enumerate(cands)}
    sets = [sum(1 << pos[p] for p in c) for c in drawn]
    covers = [sum(1 << j for j, c in enumerate(drawn) if p in c) for p in cands]
    return sets, covers


def _min_hitting_set_size(sets, candidates):
    for size in range(candidates + 1):
        for picks in combinations(range(candidates), size):
            mask = sum(1 << i for i in picks)
            if all(s & mask for s in sets):
                return size
    raise AssertionError("every constraint has a candidate")


@settings(max_examples=1000, deadline=None)
@given(hitting_groups())
def test_kernel_is_a_minimum_hitting_set(group):
    sets, covers = group
    mask = _min_group_cover(sets, covers, None)
    assert all(s & mask for s in sets)
    assert mask.bit_count() == _min_hitting_set_size(sets, len(covers))
    # the same search as the reference, so the same cover, not just its size
    assert mask == min_group_cover_reference(sets, covers)
    assert _greedy_group(sets, covers) == greedy_group_reference(sets, covers)


def _tied_group(rng: random.Random):
    """A seeded group, (sets, covers), in which every candidate starts out
    covering the same number of constraints, so the smallest-id rule
    decides many picks."""
    size, k = rng.randint(2, 40), rng.randint(1, 4)
    members = [rng.sample(range(size * k), k) for _ in range(size)]
    sets = [sum(1 << i for i, m in enumerate(members) if j in m) for j in range(size * k)]
    sets = [s for s in sets if s]
    covers = [sum(1 << j for j, s in enumerate(sets) if (s >> i) & 1) for i in range(size)]
    return sets, covers


def test_lazy_greedy_picks_what_the_scan_picks():
    # the groups of the large grids at the centre root, of gadget apexes,
    # of random:200 roots, and seeded groups full of equal gains
    groups = []
    for n in (40, 60):
        g = generate(parse_family_spec(f"grid:{n}"))
        centre = (n + 1) // 2 - 1
        groups += [group[1:] for group in encoded_groups(bfs_root_view(g, centre * n + centre))]
    rng = random.Random(16)
    for n in range(42, 61, 3):
        red = np_gadget(random_connected_graph(n, (8 + n % 3) / (n - 1), rng.randrange(1 << 30)))
        groups += [group[1:] for group in encoded_groups(bfs_root_view(red.gprime, red.apex))]
    for seed in range(3):
        g = generate(parse_family_spec("random:200,0.03"), seed)
        for x in rng.sample(range(g.n), 4):
            groups += [group[1:] for group in encoded_groups(bfs_root_view(g, x))]
    groups += [_tied_group(rng) for _ in range(500)]
    for sets, covers in groups:
        assert _greedy_group(sets, covers) == greedy_group_reference(sets, covers), len(covers)
    assert max(len(covers) for _, covers in groups) > 100


def test_kernel_matches_the_reference_on_graph_groups():
    # every root of three families (layer-1 ties, vertex-cover-like groups,
    # interchangeable gadget copies), and the apex group of gadgets over
    # seeded random bases, a vertex-cover group of one component
    graphs = [generate(parse_family_spec(spec)) for spec in ("grid:8", "torus:6", "figure1:2")]
    roots = [range(g.n) for g in graphs]
    for seed in range(12):
        n = 12 + seed % 9
        red = np_gadget(random_connected_graph(n, (3 + seed % 4) / (n - 1), seed))
        graphs.append(red.gprime)
        roots.append([red.apex])
    # and of gadget-vx's shape, bases n = 46-50 of average degree 8-10; of
    # seeds 0-11 these take the most search nodes (122-211)
    for n, d, seed in ((46, 10, 6), (48, 8, 10), (50, 9, 9), (50, 10, 9)):
        red = np_gadget(random_connected_graph(n, d / (n - 1), seed))
        graphs.append(red.gprime)
        roots.append([red.apex])
    groups = shared = 0
    for g, xs in zip(graphs, roots):
        for x in xs:
            for _, sets, covers in encoded_groups(bfs_root_view(g, x)):
                groups += 1
                mask = _min_group_cover(sets, covers, None)
                assert mask == min_group_cover_reference(sets, covers), (g.n, x)
                # a group whose constraints share a candidate is covered by
                # its smallest common candidate, by the search and by greedy
                common = reduce(and_, sets)
                if common:
                    shared += 1
                    assert common & -common == mask == _greedy_group(sets, covers), (g.n, x)
    assert groups > 1000 and shared > 100


def _random_group(rng: random.Random):
    """A seeded group, (sets, covers), on 20-100 candidates: 1-1.6
    constraints per candidate, each of 2-4 candidates, few enough that the
    search ends in well under a second and enough that greedy often misses."""
    size = rng.randint(20, 100)
    drawn = [rng.sample(range(size), rng.randint(2, 4))
             for _ in range(int(size * rng.uniform(1, 1.6)))]
    cands = sorted(set().union(*drawn))
    pos = {p: i for i, p in enumerate(cands)}
    sets = [sum(1 << pos[p] for p in c) for c in drawn]
    covers = [sum(1 << j for j, c in enumerate(drawn) if p in c) for p in cands]
    return sets, covers


def test_kernel_matches_the_reference_on_seeded_groups():
    # constraints of 2-4 candidates over hundreds of nodes, so the packing
    # meets constraints with an excluded candidate and reuses the
    # neighbourhoods of the others; and groups of equal gains, where the
    # smallest-id rule decides many picks
    groups = [_random_group(random.Random(seed)) for seed in range(40)]
    rng = random.Random(31)
    groups += [_tied_group(rng) for _ in range(500)]
    for sets, covers in groups:
        assert _min_group_cover(sets, covers, None) == min_group_cover_reference(sets, covers), \
            len(covers)


def test_kernel_size_matches_milp():
    # HiGHS on min sum(x) subject to one covering row per constraint, x
    # binary: an oracle sharing no code with the kernel, on groups far past
    # the 12 candidates brute force reaches
    optimize = pytest.importorskip("scipy.optimize")
    import numpy as np

    def milp_size(sets, k):
        rows = np.array([[(s >> i) & 1 for i in range(k)] for s in sets], dtype=float)
        res = optimize.milp(np.ones(k), integrality=np.ones(k), bounds=optimize.Bounds(0, 1),
                            constraints=optimize.LinearConstraint(rows, lb=1))
        assert res.status == 0, res.message
        return round(res.fun)

    rng = random.Random(20)
    groups = [_random_group(rng) for _ in range(30)]
    for n, p, seed in ((100, 0.05, 0), (150, 0.04, 1), (200, 0.03, 2), (300, 0.02, 3)):
        g = random_connected_graph(n, p, seed)
        for x in rng.sample(range(n), 3):
            groups += [group[1:] for group in encoded_groups(bfs_root_view(g, x))
                       if len(group[0]) > 1]
    red = np_gadget(random_connected_graph(42, 8 / 41, 1))
    [(_, sets, covers)] = encoded_groups(bfs_root_view(red.gprime, red.apex))
    groups.append((sets, covers))  # a vertex cover of the base, 42 candidates
    misses = 0
    for sets, covers in groups:
        mask = _min_group_cover(sets, covers, None)
        assert all(s & mask for s in sets)
        size = milp_size(sets, len(covers))
        assert mask.bit_count() == size, len(covers)
        misses += _greedy_group(sets, covers).bit_count() > size
    assert max(len(covers) for _, covers in groups) > 100 and misses > 10


def test_groups_match_the_union_find_reference():
    # the groups built from per-layer masks are the groups that one
    # union-find over the predecessor lists builds, with the same
    # candidate order and the same constraint order inside each
    graphs = [generate(parse_family_spec(spec), 1) for spec in
              ("grid:7", "torus:6", "figure1:2", "rtree:80", "rblock:80", "random:60,0.1")]
    graphs.append(np_gadget(random_connected_graph(14, 0.4, 2)).gprime)
    groups = 0
    for g in graphs:
        for x in range(g.n):
            rv = bfs_root_view(g, x)
            got = sorted(encoded_groups(rv))
            assert got == sorted(cover_groups_reference(rv)), (g.n, x)
            groups += len(got)
    assert groups > 1000


def test_solves_match_the_frozen_group_pipeline(small_graphs, random_corpus):
    # closing shared-candidate groups at the merge, and merging each layer
    # in BFS order, gives the value, witness and tree (key order included)
    # of the pipeline that encoded and solved every group; every group,
    # closed or not, is covered by the tree's internal vertices
    graphs = small_graphs + random_corpus
    graphs += [generate(parse_family_spec(spec)) for spec in
               ("rtree:120", "rblock:120", "grid:9", "torus:7", "figure1:3")]
    roots = [range(g.n) for g in graphs]
    red = np_gadget(random_connected_graph(16, 0.3, 4))
    graphs.append(red.gprime)
    roots.append([red.apex])
    exact = partial(_min_group_cover, deadline=None)
    closed = encoded = 0
    for g, xs in zip(graphs, roots):
        for x in xs:
            rv = bfs_root_view(g, x)
            groups = [[rv.dag_in_mask[v] for v in members] for _, members in _layer_groups(rv)]
            for solve, group_solve in ((vx_exact, exact), (vx_greedy, _greedy_group)):
                res = solve(g, x)
                want = solve_root_frozen(rv, group_solve)
                assert (res.value, res.witness, list(res.tree.items())) == want, (g.n, x)
                internal = sum(1 << p for p in set(res.tree.values()))
                assert all(mask & internal for masks in groups for mask in masks), (g.n, x)
            shared = sum(1 for masks in groups if reduce(and_, masks))
            closed += shared
            encoded += len(groups) - shared
    assert closed > 10_000 and encoded > 1_000, (closed, encoded)


def _layers_with_several_groups(g: Graph) -> int:
    rv = bfs_root_view(g, 0)
    per_layer = Counter(rv.dist[cands[0]] for cands, _, _ in encoded_groups(rv))
    return sum(1 for count in per_layer.values() if count >= 2)


@settings(max_examples=60, deadline=None)
@given(branched_graphs(max_n=10, max_branches=2, max_depth=3))
def test_exact_equals_brute(g):
    assert _layers_with_several_groups(g) >= 2
    for x in range(g.n):
        assert vx_exact(g, x).value == vx_brute(g, x).value, x


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exact_is_invariant_under_relabelling(data):
    g = data.draw(branched_graphs(max_n=24, max_branches=3, max_depth=4))
    perm = data.draw(st.permutations(range(g.n)))
    relabelled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    for x in range(g.n):
        assert vx_exact(relabelled, perm[x]).value == vx_exact(g, x).value, x


@settings(max_examples=60, deadline=None)
@given(branched_graphs(max_n=24, max_branches=3, max_depth=4))
def test_greedy_is_a_certified_lower_bound(g):
    assert _layers_with_several_groups(g) >= 2
    for x in range(g.n):
        greedy = vx_greedy(g, x)
        assert len(greedy.witness) == greedy.value <= vx_exact(g, x).value
        assert is_x_visibility_set(g, x, greedy.witness)
