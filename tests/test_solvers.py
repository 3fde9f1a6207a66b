import random
import time
from functools import reduce
from operator import and_

import pytest

from vertexvis.errors import (DisconnectedError, InvalidParameterError, IsolatedVertexError,
                              SolveTimeoutError, TooLargeError)
from vertexvis.generators import (
    cartesian_product,
    complete_graph,
    complete_product,
    cycle_graph,
    figure_family,
    generate,
    grid_graph,
    np_gadget,
    parse_family_spec,
    path_graph,
    random_connected_graph,
    random_graph_no_isolated,
    star_graph,
)
from vertexvis import graph as graph_module, solvers
from vertexvis.graph import Graph, bfs_root_view, is_connected
from vertexvis.solvers import (
    BRUTE_CAP,
    MCDS_CAP,
    alpha_brute,
    max_leaf_spanning_tree,
    mu_brute,
    vv_exact,
    vx_brute,
    vx_exact,
    vx_greedy,
)
from vertexvis.visibility import is_x_visibility_set

from oracles import (
    connected_graphs_upto,
    encoded_groups,
    independence_number,
    min_cds_size,
    vx_brute_reference,
    vx_by_paths,
)


def grid_coord(n, k, l):
    return (k - 1) * n + (l - 1)


def test_vx_exact_cycle_and_path():
    assert all(vx_exact(cycle_graph(5), x).value == 2 for x in range(5))
    p6 = path_graph(6)
    assert vx_exact(p6, 2).value == 2
    assert vx_exact(p6, 0).value == 1


def test_vx_exact_figure_family():
    g, labels = figure_family(1)
    assert vx_exact(g, labels["x"]).value == 10
    assert vx_exact(g, labels["y"][0]).value == 10
    assert vx_exact(g, labels["z"][0]).value == 10
    assert vx_exact(g, labels["a"][0]).value == 9
    assert vx_exact(g, labels["b"][0]).value == 8
    assert vx_exact(g, labels["c"][0]).value == 8


def test_vx_exact_grid_root():
    g = grid_graph(4)
    assert vx_exact(g, grid_coord(4, 2, 2)).value == 9


def test_vx_brute_examples():
    assert vx_brute(complete_graph(4), 0).value == 3
    assert vx_brute(cycle_graph(6), 0).value == 2
    red = np_gadget(path_graph(5))
    assert vx_brute(red.gprime, red.apex).value == 7


def test_vx_brute_keeps_its_enumeration_order(small_graphs, random_corpus):
    """The same value and the same witness as the index-table enumeration,
    at every root."""
    for g in small_graphs + [g for g in random_corpus if g.n <= 12]:
        for x in range(g.n):
            res = vx_brute(g, x)
            assert (res.value, res.witness) == vx_brute_reference(g, x), (list(g.edges()), x)


def test_vx_brute_cap():
    assert grid_graph(5).n > BRUTE_CAP
    with pytest.raises(TooLargeError):
        vx_brute(grid_graph(5), 0)


def test_exact_matches_brute_and_paths_tiny():
    for g in connected_graphs_upto(4):
        for x in range(g.n):
            exact = vx_exact(g, x).value
            assert exact == vx_brute(g, x).value == vx_by_paths(g, x)


def test_exact_matches_brute_random(random_corpus):
    rng = random.Random(47)
    for g in rng.sample(random_corpus, 30):
        for x in range(g.n):
            assert vx_exact(g, x).value == vx_brute(g, x).value


def test_certificates_sound(random_corpus):
    rng = random.Random(53)
    for g in rng.sample(random_corpus, 20):
        x = rng.randrange(g.n)
        res = vx_exact(g, x)
        assert len(res.witness) == res.value
        assert is_x_visibility_set(g, x, res.witness)
        dist = bfs_root_view(g, x).dist
        for v, p in res.tree.items():
            assert p in g.adj[v]
        for v in range(g.n):
            if v == x:
                continue
            d, u = 0, v
            while u != x:
                u = res.tree[u]
                d += 1
            assert d == dist[v]
        used = set(res.tree.values())
        assert res.witness == frozenset(set(range(g.n)) - used - {x})


def test_vv_examples():
    assert vv_exact(grid_graph(4)).value == 9
    assert vv_exact(star_graph(5)).value == 5
    assert vv_exact(complete_product(3, 2)).value == 4
    assert vv_exact(Graph(2, [(0, 1)])).value == 1


def test_vv_tie_breaks_to_smallest_root():
    res = vv_exact(cycle_graph(5))
    assert res.root == 0


def test_vv_skips_leaves():
    g, labels = figure_family(1)
    res = vv_exact(g)
    assert res.value == 10
    assert g.degree(res.root) > 1


def test_vv_builds_root_views_only_of_its_roots(monkeypatch):
    # bfs_root_view discovers through graph.bfs_distances; the symmetry
    # search calls solvers' own binding, which this does not record
    graphs = [generate(parse_family_spec(spec))
              for spec in ("figure1:1", "figure1:2", "figure1:3", "figure1:4",
                           "grid:5", "kxk:5,4")]
    seen = []
    real = graph_module.bfs_distances
    monkeypatch.setattr(graph_module, "bfs_distances",
                        lambda g, x: seen.append((g, x)) or real(g, x))
    for g in graphs:
        vv_exact(g)
    assert seen and all(g.degree(x) > 1 for g, x in seen)


def test_solvers_reject_disconnected(monkeypatch):
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedError):
        vx_exact(g, 0)
    with pytest.raises(DisconnectedError):
        max_leaf_spanning_tree(g)
    # vv checks its smallest root: every degree above is 1, so the roots
    # fall back to [0]; the second graph's smallest root is 2
    refusals = [(g, DisconnectedError, "connected"),
                (Graph(5, [(1, 2), (2, 3)]), DisconnectedError, "connected"),
                (Graph(1, []), InvalidParameterError, "need at least 2 vertices")]

    def fail(*args):
        raise AssertionError("root classes searched before the refusal")

    for patched in (False, True):
        if patched:
            monkeypatch.setattr(solvers, "_root_classes", fail)
        for h, error, message in refusals:
            with pytest.raises(error, match=message):
                vv_exact(h)


def test_max_leaf_examples():
    g, _ = figure_family(1)
    assert max_leaf_spanning_tree(g).value == 11
    assert max_leaf_spanning_tree(star_graph(6)).value == 6
    assert max_leaf_spanning_tree(cycle_graph(8)).value == 2
    assert max_leaf_spanning_tree(Graph(2, [(0, 1)])).value == 2
    assert max_leaf_spanning_tree(Graph(1, [])).value == 1


def assert_max_leaf_certificate(g, res):
    assert len(res.tree) == g.n - 1 and res.root not in res.tree
    for v, p in res.tree.items():
        assert p in g.adj[v]
    for v in range(g.n):
        # n - 1 edges whose parent chains all reach the root form a spanning tree
        u, steps = v, 0
        while u != res.root and steps < g.n:
            u, steps = res.tree[u], steps + 1
        assert u == res.root, v
    assert len(res.leaves) == res.value
    internal = {res.root} | set(res.tree.values())
    assert res.leaves == frozenset(set(range(g.n)) - internal)


def test_max_leaf_certificate():
    g, _ = figure_family(1)
    assert_max_leaf_certificate(g, max_leaf_spanning_tree(g))


def test_max_leaf_matches_brute_force_cds(small_graphs, random_corpus):
    """For n >= 3 the most leaves of a spanning tree is n minus the smallest
    connected dominating set.  The one graph on two vertices is direct: two
    leaves, the root among them, which the certificate check (root always
    internal) does not allow."""
    extra = [random_connected_graph(n, p, seed) for seed, (n, p) in
             enumerate((n, p) for n in range(6, 11) for p in (0.2, 0.35, 0.5, 0.8))]
    checked = 0
    for g in small_graphs + random_corpus + extra:
        if g.n == 2:
            continue
        res = max_leaf_spanning_tree(g)
        assert res.value == g.n - min_cds_size(g), list(g.edges())
        assert_max_leaf_certificate(g, res)
        checked += 1
    assert checked == 770 + 200 + 20


def test_max_leaf_cap():
    assert grid_graph(6).n > MCDS_CAP
    with pytest.raises(TooLargeError):
        max_leaf_spanning_tree(grid_graph(6))


def test_max_leaf_dominates_vv(small_graphs):
    rng = random.Random(59)
    for g in rng.sample(small_graphs, 80):
        assert max_leaf_spanning_tree(g).value >= vv_exact(g).value


def test_mu_examples():
    assert mu_brute(complete_graph(6)) == 6
    assert mu_brute(path_graph(4)) == 2
    k2c6 = cartesian_product(complete_graph(2), cycle_graph(6))
    assert mu_brute(k2c6) == 6
    with pytest.raises(TooLargeError):
        mu_brute(grid_graph(5))


def test_alpha_examples():
    assert alpha_brute(path_graph(5)) == 3
    assert alpha_brute(complete_graph(4)) == 1
    assert alpha_brute(cycle_graph(5)) == 2
    assert alpha_brute(Graph(4, [(0, 1), (2, 3)])) == 2
    with pytest.raises(TooLargeError, match="capped at n=30"):
        alpha_brute(path_graph(31))
    # alpha is read off the hardness gadget, which refuses an isolated vertex
    with pytest.raises(IsolatedVertexError, match="vertex 3 is isolated"):
        alpha_brute(Graph(3, [(0, 1)]))
    with pytest.raises(SolveTimeoutError):
        alpha_brute(random_connected_graph(20, 0.3, 1), deadline=time.monotonic() - 1)
    # seeded G(n, p) graphs without isolated vertices, disconnected ones included
    rng = random.Random(20261021)
    disconnected = 0
    for seed in range(100):
        n = rng.randint(2, 22)
        g = random_graph_no_isolated(n, min(1.0, rng.choice((1.5, 2.0, 3.0, 5.0)) / n), seed)
        disconnected += not is_connected(g)
        assert alpha_brute(g) == independence_number(g), (seed, n, list(g.edges()))
    assert disconnected >= 10, disconnected


def test_greedy_examples():
    assert vx_greedy(star_graph(7), 0).value == 7
    assert vx_greedy(cycle_graph(6), 0).value == 2
    g10 = grid_graph(10)
    res = vx_greedy(g10, grid_coord(10, 2, 2))
    assert res.value <= 54
    assert is_x_visibility_set(g10, res.root, res.witness)


def test_greedy_sandwich(small_graphs):
    rng = random.Random(61)
    for g in rng.sample(small_graphs, 100):
        for x in range(g.n):
            lo = vx_greedy(g, x)
            hi = vx_exact(g, x)
            assert lo.value <= hi.value <= g.n - 1
            assert is_x_visibility_set(g, x, lo.witness)


def test_determinism():
    g, _ = figure_family(1)
    a = vv_exact(g)
    b = vv_exact(g)
    assert (a.value, a.root, a.witness, a.tree) == (b.value, b.root, b.witness, b.tree)


def test_timeout_fires():
    g = grid_graph(6)
    with pytest.raises(SolveTimeoutError):
        for x in range(g.n):
            vx_exact(g, x, time.monotonic() + 1e-7)


def test_timeout_fires_before_the_group_search(monkeypatch):
    # the root view outlives the deadline; both routes check it again
    # before each group, not only every 256 search nodes
    real = solvers.connected_view

    def late(g, x):
        time.sleep(max(0.0, deadline - time.monotonic()) + 0.01)
        return real(g, x)

    monkeypatch.setattr(solvers, "connected_view", late)
    # a grid, and a tree, whose every group's constraints share a candidate
    for g in (grid_graph(6), generate(parse_family_spec("rtree:60"), 1)):
        deadline = time.monotonic() + 0.05
        with pytest.raises(SolveTimeoutError, match="exact visibility solve"):
            vx_exact(g, 0, deadline)
        deadline = time.monotonic() + 0.05
        with pytest.raises(SolveTimeoutError, match="greedy visibility solve"):
            vx_greedy(g, 0, deadline)


def test_timeout_fires_inside_the_group_and_cds_searches():
    # each search alone runs 0.5 s or more (1.6 s and 0.5 s on a 2-core
    # x86-64 VM), so a deadline 0.05 s ahead passes mid-search, where only
    # the checks every 256 nodes can see it
    g = generate(parse_family_spec("random:400,0.02"), 3)
    _, sets, covers = max(encoded_groups(bfs_root_view(g, 1)), key=lambda gr: len(gr[0]))
    with pytest.raises(SolveTimeoutError, match="exact visibility solve"):
        solvers._min_group_cover(sets, covers, time.monotonic() + 0.05)
    g = generate(parse_family_spec("random:32,0.15"), 1)
    with pytest.raises(SolveTimeoutError, match="max-leaf spanning tree solve"):
        solvers._min_cds(g, solvers._greedy_cds(g), time.monotonic() + 0.05)


def test_timeout_bounds_the_whole_root_loop():
    # every root alone finishes far inside the budget (at most 6 ms), and no
    # root is skipped by symmetry; only a deadline shared by the whole vv
    # request can fire.  The bounds of all roots take about 0.3 s, so it
    # fires in the bound pass; test_timeout_reaches_the_solve_loop
    # covers the solves
    g = generate(parse_family_spec("random:500,0.012"), 3)
    roots = [v for v in range(g.n) if g.degree(v) > 1]
    rep = solvers._root_classes(g, roots, None)
    assert all(rep[x] == x for x in roots)
    with pytest.raises(SolveTimeoutError):
        vv_exact(g, time.monotonic() + 0.05)


def test_timeout_reaches_the_solve_loop(monkeypatch):
    # the bound pass runs as it is; the first group search of the first
    # solved root outlives the deadline, and it was handed the request's
    # deadline itself, not None or one set again per root.  That root (40)
    # has two groups, neither closed by a shared candidate, so both go to
    # the search
    g = generate(parse_family_spec("random:60,0.1"), 1)
    rv = bfs_root_view(g, 40)
    assert [reduce(and_, [rv.dag_in_mask[v] for v in members])
            for _, members in solvers._layer_groups(rv)] == [0, 0]
    deadline = time.monotonic() + 0.3
    real = solvers._min_group_cover
    seen = []

    def late(sets, covers, deadline):
        seen.append(deadline)
        time.sleep(max(0.0, deadline - time.monotonic()) + 0.01)
        return real(sets, covers, deadline)

    monkeypatch.setattr(solvers, "_min_group_cover", late)
    with pytest.raises(SolveTimeoutError, match="exact visibility solve"):
        vv_exact(g, deadline)
    assert seen == [deadline]


def test_tree_solves_check_the_deadline_per_group(monkeypatch):
    # every group of a tree is closed by its shared parent and none reaches
    # the search, yet both solvers still check the deadline before each
    g = generate(parse_family_spec("rtree:80"), 1)
    groups = sum(1 for _ in solvers._layer_groups(bfs_root_view(g, 0)))
    real = solvers.check_deadline
    checks = []

    def counted(deadline, what):
        checks.append(what)
        real(deadline, what)

    def unreached(sets, covers, deadline):
        raise AssertionError("a tree group reached the search")

    monkeypatch.setattr(solvers, "check_deadline", counted)
    monkeypatch.setattr(solvers, "_min_group_cover", unreached)
    assert groups > 20
    for solve, what in ((vx_exact, "exact visibility solve"), (vx_greedy, "greedy visibility solve")):
        checks.clear()
        solve(g, 0, time.monotonic() + 60)
        assert checks.count(what) >= groups


def test_timeout_fires_inside_the_bound_pass(monkeypatch):
    # the smallest root's bound reads the view its connectivity check built;
    # the next class minimum's view outlives the request's deadline, and the
    # pass checks it again before the view after that, before any root is
    # solved
    g = random_connected_graph(40, 0.15, 1)
    roots = [v for v in range(g.n) if g.degree(v) > 1]
    rep = solvers._root_classes(g, roots, None)
    assert all(rep[x] == x for x in roots)
    deadline = time.monotonic() + 0.5
    real = solvers.bfs_root_view
    viewed, solved = [], []

    def late(g, x):
        viewed.append(x)
        time.sleep(max(0.0, deadline - time.monotonic()) + 0.01)
        return real(g, x)

    monkeypatch.setattr(solvers, "bfs_root_view", late)
    monkeypatch.setattr(solvers, "vx_exact", lambda g, x, deadline: solved.append(x))
    with pytest.raises(SolveTimeoutError, match="vertex visibility solve"):
        vv_exact(g, deadline)
    assert viewed == roots[1:2] and not solved


def test_timeout_fires_inside_the_symmetry_search(monkeypatch):
    # the first BFS of the automorphism search outlives the request's
    # deadline; the search itself must notice, before any root is solved
    deadline = time.monotonic() + 0.2
    real = solvers.bfs_distances
    searched, solved = [], []

    def late(g, x):
        searched.append(x)
        time.sleep(max(0.0, deadline - time.monotonic()) + 0.01)
        return real(g, x)

    monkeypatch.setattr(solvers, "bfs_distances", late)
    monkeypatch.setattr(solvers, "vx_exact", lambda g, x, deadline: solved.append(x))
    with pytest.raises(SolveTimeoutError, match="symmetry search"):
        vv_exact(generate(parse_family_spec("torus:8")), deadline)
    assert searched == [0, 1] and not solved


def test_sparse_random_roots_solve_inside_the_budget():
    # both roots ran past a 5 s budget when the search branched on the
    # constraint with the fewest candidates
    g = random_connected_graph(400, 0.015, 2)
    for x in (0, 3):
        res = vx_exact(g, x, time.monotonic() + 5)
        assert len(res.witness) == res.value >= vx_greedy(g, x).value
        assert is_x_visibility_set(g, x, res.witness)
