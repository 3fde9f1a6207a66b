"""vv_exact solves one root per symmetry class: the same answer as the
all-roots loop, classes joined only along real automorphisms."""

import random

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from vertexvis import solvers
from vertexvis.bounds import bounds_report
from vertexvis.generators import (
    cocktail_party,
    generate,
    parse_family_spec,
    random_connected_graph,
)
from vertexvis.graph import Graph, bfs_root_view
from vertexvis.solvers import (
    SEARCH_NODES,
    _automorphism,
    _is_automorphism,
    _refine,
    _root_bound,
    _root_classes,
    vv_exact,
    vx_brute,
    vx_exact,
)
from vertexvis.witnesses import witness_for

from oracles import live_root_views, vv_all_roots

# the graphs of the families-vv benchmark workload
FAMILIES_VV = (
    [f"grid:{n}" for n in range(4, 13)]
    + [f"prism:{n}" for n in range(4, 10)]
    + [f"torus:{n}" for n in range(4, 10)]
    + [f"figure1:{k}" for k in range(1, 5)]
    + ["cocktail:6", "kxk:5,4"]
)


def spec_graph(spec: str, seed: int = 0) -> Graph:
    return generate(parse_family_spec(spec), seed)


def from_nx(h) -> Graph:
    h = nx.convert_node_labels_to_integers(h)
    return Graph(h.number_of_nodes(), list(h.edges()))


def relabelled(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def shrikhande() -> Graph:
    """Cayley graph of Z4 x Z4 with connection set +-(1,0), +-(0,1), +-(1,1)."""
    return Graph(16, [(4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)
                      for a in range(4) for b in range(4)
                      for da, db in ((1, 0), (0, 1), (1, 1))])


def roots_of(g: Graph) -> list[int]:
    return [0] if g.n == 2 else [v for v in range(g.n) if g.degree(v) > 1]


def cells_of(g: Graph) -> list[int]:
    return _refine(g, [[len(nb) for nb in g.adj]], None)[0]


def assert_same_as_all_roots(g: Graph) -> None:
    got, want = vv_exact(g), vv_all_roots(g)
    assert (got.value, got.root, got.witness, got.tree) == (
        want.value, want.root, want.witness, want.tree)


@pytest.mark.parametrize("spec", FAMILIES_VV)
def test_families_vv_match_all_roots(spec):
    assert_same_as_all_roots(spec_graph(spec))


@pytest.mark.parametrize("spec", ["torus:7", "prism:6", "grid:7", "figure1:2", "kxk:3,4"])
def test_relabelled_families_match_all_roots(spec):
    for seed in (1, 2):
        assert_same_as_all_roots(relabelled(spec_graph(spec), seed))


def test_refinement_blind_graphs_match_all_roots():
    # regular graphs: colour refinement leaves one cell, so only the checked
    # search can tell the symmetric (Petersen, Shrikhande, K4 x K4) from the
    # asymmetric (Frucht); Shrikhande and K4 x K4 share their parameters
    blind = {
        "frucht": from_nx(nx.frucht_graph()),
        "petersen": from_nx(nx.petersen_graph()),
        "shrikhande": shrikhande(),
        "kxk:4,4": spec_graph("kxk:4,4"),
    }
    for name, g in blind.items():
        assert len(set(cells_of(g))) == 1, name
        assert_same_as_all_roots(g)
    assert not nx.is_isomorphic(nx.Graph(list(blind["shrikhande"].edges())),
                                nx.Graph(list(blind["kxk:4,4"].edges())))
    for h in (nx.heawood_graph(), nx.desargues_graph(), nx.dodecahedral_graph()):
        assert_same_as_all_roots(from_nx(h))


def test_random_graphs_match_all_roots():
    for seed in (1, 2, 3):
        assert_same_as_all_roots(spec_graph("rtree:120", seed))
        assert_same_as_all_roots(spec_graph("rblock:120", seed))
        assert_same_as_all_roots(random_connected_graph(60, 0.08, seed))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


# graphs without symmetry, where only the bound prunes roots, and graphs
# whose roots tie in value
PRUNED = {
    **{f"random:{n},{p}#{seed}": random_connected_graph(n, p, seed)
       for n, p in ((30, 0.2), (50, 0.1), (80, 0.05), (120, 0.04), (40, 0.3))
       for seed in (1, 2)},
    **{f"rtree:{n}#{n}": spec_graph(f"rtree:{n}", n) for n in (60, 200)},
    **{f"rblock:{n}#{n}": spec_graph(f"rblock:{n}", n) for n in (60, 200)},
    "path:9": spec_graph("path:9"),
    "cycle:10": spec_graph("cycle:10"),
    "cycle:11": spec_graph("cycle:11"),
    "K2,5": complete_bipartite(2, 5),
    "K3,3": complete_bipartite(3, 3),
    "K4,6": complete_bipartite(4, 6),
}


@pytest.mark.parametrize("name", sorted(PRUNED))
def test_bound_pruned_vv_matches_all_roots(name):
    assert_same_as_all_roots(PRUNED[name])


@pytest.mark.parametrize("name", sorted(PRUNED) + ["grid:6", "torus:5", "figure1:2"])
def test_root_bound_is_at_least_the_value(name):
    g = PRUNED[name] if name in PRUNED else spec_graph(name)
    sharp = 0
    for x in range(g.n):
        bound, value = _root_bound(bfs_root_view(g, x)), vx_exact(g, x).value
        assert bound >= value, x
        sharp += bound == value
        # on a tree every constraint is one candidate: the packing is exact
        if g.m == g.n - 1:
            assert bound == value, x
    assert sharp > 0


# class minima of every families-vv graph: which roots the symmetry search
# joins depends on the graph only
CLASS_MINIMA = {
    **dict(zip((f"grid:{n}" for n in range(4, 13)), (3, 6, 6, 10, 10, 15, 15, 21, 21))),
    **dict(zip((f"prism:{n}" for n in range(4, 10)), (2, 3, 3, 4, 4, 5))),
    **{f"torus:{n}": 1 for n in range(4, 10)},
    **{f"figure1:{k}": 5 for k in range(1, 5)},
    "cocktail:6": 1,
    "kxk:5,4": 1,
}


def class_minima(g: Graph) -> int:
    roots = roots_of(g)
    rep = _root_classes(g, roots, None)
    return sum(rep[x] == x for x in roots)


def test_class_minima_are_pinned():
    assert sorted(CLASS_MINIMA) == sorted(FAMILIES_VV)
    for spec, count in CLASS_MINIMA.items():
        assert class_minima(spec_graph(spec)) == count, spec
    for spec in [f"torus:{n}" for n in range(5, 10)] + ["cocktail:6", "kxk:5,4"]:
        for seed in (1, 2, 3):
            assert class_minima(relabelled(spec_graph(spec), seed)) == 1, (spec, seed)
    # a search node's branching joins the Foster graph's 90 vertices, and its
    # refinement and branching both join relabelled figure1:3
    foster = nx.LCF_graph(90, [17, -9, 37, -37, 9, -17], 15)
    assert class_minima(from_nx(foster)) == 1
    for seed in range(1, 6):
        assert class_minima(relabelled(spec_graph("figure1:3"), seed)) == 5, seed


def test_search_returns_only_automorphisms():
    graphs = [spec_graph(s) for s in ("torus:6", "grid:6", "prism:5", "figure1:2",
                                      "kxk:3,4", "cocktail:5", "rblock:40", "rtree:40")]
    graphs += [shrikhande(), from_nx(nx.petersen_graph()), from_nx(nx.frucht_graph()),
               relabelled(spec_graph("torus:5"), 3)]
    found = 0
    for g in graphs:
        edges = set(g.edges())
        cells = cells_of(g)
        for x in range(1, g.n):
            for r in range(x):
                if cells[r] != cells[x]:
                    continue
                sigma, nodes = _automorphism(g, cells, r, x, SEARCH_NODES, None)
                assert nodes <= SEARCH_NODES
                if sigma is None:
                    continue
                found += 1
                assert sorted(sigma) == list(range(g.n)) and sigma[r] == x
                assert {tuple(sorted((sigma[u], sigma[v]))) for u, v in edges} == edges
    assert found > 100


def test_edge_check_rejects_non_automorphisms():
    g = from_nx(nx.petersen_graph())
    h = nx.Graph(list(g.edges()))
    for sigma in list(GraphMatcher(h, h).isomorphisms_iter())[:20]:
        assert _is_automorphism(g, [sigma[v] for v in range(g.n)])
    rng = random.Random(5)
    rejected = 0
    for _ in range(200):
        perm = list(range(g.n))
        rng.shuffle(perm)
        image = {tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()}
        assert _is_automorphism(g, perm) == (image == set(g.edges()))
        rejected += image != set(g.edges())
    assert rejected > 150
    # a transposition of two vertices that are not twins
    assert not _is_automorphism(g, [1, 0] + list(range(2, g.n)))


def orbits(g: Graph) -> list[int]:
    """Smallest vertex of each vertex's orbit, from every automorphism."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    low = list(range(g.n))
    for sigma in GraphMatcher(h, h).isomorphisms_iter():
        for v, w in sigma.items():
            low[w] = min(low[w], v)
    return low


def test_classes_lie_inside_orbits(small_graphs):
    graphs = [spec_graph(s) for s in ("torus:3", "grid:3", "prism:3", "kxk:3,4", "star:5",
                                      "path:7", "cycle:12", "double_star:2,3")]
    graphs += [cocktail_party(4), from_nx(nx.petersen_graph()),
               from_nx(nx.frucht_graph()), relabelled(spec_graph("prism:3"), 4)]
    graphs += random.Random(71).sample(small_graphs, 120)
    joined = 0
    for g in graphs:
        assert g.n <= 12
        rep, low = _root_classes(g, roots_of(g), None), orbits(g)
        for v in range(g.n):
            assert rep[v] <= v and low[rep[v]] == low[v]
            joined += rep[v] < v
    assert joined > 50


def test_torus_solves_one_root(monkeypatch):
    solved = []
    real = solvers.vx_exact

    def counting(g, x, deadline=None):
        solved.append(x)
        return real(g, x, deadline)

    monkeypatch.setattr(solvers, "vx_exact", counting)
    for n in (4, 7, 12):
        solved.clear()
        assert vv_exact(spec_graph(f"torus:{n}")).root == 0
        assert solved == [0]


def test_no_root_view_outlives_a_call():
    # a graph keeps no root view: each call drops the views it built
    g = random_connected_graph(80, 0.06, 5)
    x = max(range(g.n), key=g.degree)
    for call in (lambda: vv_exact(g), lambda: vx_exact(g, x),
                 lambda: bounds_report(g, x), lambda: witness_for("torus", 6)):
        before = live_root_views()
        call()
        assert live_root_views() == before


def test_a_pendant_root_is_below_its_support_vertex():
    """vv_exact skips leaf roots: from a pendant vertex every shortest-path
    tree runs through its support vertex, which does strictly better."""
    checked = 0
    for seed in range(60):
        rng = random.Random(seed)
        core = rng.randint(2, 7 if seed % 2 else 20)
        base = random_connected_graph(core, rng.uniform(0.3, 0.7), seed)
        hung = rng.randint(1, 3)
        edges = [*base.edges(), *((rng.randrange(core + i), core + i) for i in range(hung))]
        g = Graph(core + hung, edges)
        for leaf in (v for v in range(g.n) if g.degree(v) == 1):
            (support,) = g.adj[leaf]
            low, high = vx_exact(g, leaf).value, vx_exact(g, support).value
            assert low < high, (seed, leaf)
            if g.n <= 10:
                assert (low, high) == (vx_brute(g, leaf).value, vx_brute(g, support).value)
                checked += 1
    assert checked >= 30


# nx.random_regular_graph(4, 10, seed=18): 4-regular, one refinement cell,
# and no automorphism maps 0 to 2
REGULAR_10 = Graph(10, [(0, 3), (0, 4), (0, 6), (0, 8), (1, 2), (1, 3), (1, 7), (1, 8),
                        (2, 5), (2, 7), (2, 9), (3, 4), (3, 5), (4, 7), (4, 9), (5, 6),
                        (5, 9), (6, 8), (6, 9), (7, 8)])


def test_search_stops_when_its_budget_is_spent():
    assert _automorphism(REGULAR_10, cells_of(REGULAR_10), 0, 2, 1, None) == (None, 1)


def test_extension_backs_up_at_the_first_node(monkeypatch):
    # the one-shot greedy map from 0 to 5 fails on torus:5; backing up
    # finds an automorphism without refining or branching
    g = spec_graph("torus:5")
    sigma, nodes = _automorphism(g, cells_of(g), 0, 5, 1, None)
    assert nodes == 1 and sigma[0] == 5 and _is_automorphism(g, sigma)
    monkeypatch.setattr(solvers, "BACKUPS", 0)
    assert _automorphism(g, cells_of(g), 0, 5, 1, None) == (None, 1)


def test_search_fails_when_every_branch_fails():
    g = REGULAR_10
    h = nx.Graph(list(g.edges()))
    assert all(sigma[0] != 2 for sigma in GraphMatcher(h, h).isomorphisms_iter())
    assert _automorphism(g, cells_of(g), 0, 2, SEARCH_NODES, None) == (None, 5)
    res = vv_exact(g)
    assert (res.value, res.root) == (7, 3)
    assert res == vv_all_roots(g)
