import random
import time
import tracemalloc

import pytest

from vertexvis.errors import (
    InvalidParameterError,
    IsolatedVertexError,
    SolveTimeoutError,
    TooLargeError,
    UnsupportedFamilyError,
)
from vertexvis import generators
from vertexvis.generators import (
    FAMILIES,
    MAX_DENSE_EDGES,
    FamilySpec,
    cartesian_product,
    cocktail_party,
    complete_graph,
    complete_product,
    cycle_graph,
    figure_family,
    generate,
    grid_graph,
    np_gadget,
    parse_family_spec,
    path_graph,
    prism_graph,
    random_block_graph,
    random_connected_graph,
    random_graph_no_isolated,
    random_tree,
    star_graph,
    torus_graph,
)
from vertexvis.graph import MAX_FILE_VERTICES
from vertexvis.graph import Graph, is_connected

from oracles import cartesian_product_reference, diameter, np_gadget_reference


def test_family_spec_parsing():
    spec = parse_family_spec("kxk:3,2")
    assert spec.family == "kxk" and spec.args == (3, 2)
    assert str(parse_family_spec("grid:5")) == "grid:5"
    with pytest.raises(InvalidParameterError):
        parse_family_spec("grid")
    with pytest.raises(InvalidParameterError):
        parse_family_spec("grid:a")
    with pytest.raises(UnsupportedFamilyError):
        parse_family_spec("moebius:4")
    with pytest.raises(InvalidParameterError):
        FamilySpec("double_star", (3,))
    for name, family in FAMILIES.items():
        parts = ["0.5" if kind is float else "4" for kind in family.params]
        text = f"{name}:{','.join(parts)}"
        spec = parse_family_spec(text)
        assert str(spec) == text
        assert generate(spec).n > 1
        with pytest.raises(InvalidParameterError):
            parse_family_spec(f"{text},4")
        with pytest.raises(InvalidParameterError):
            FamilySpec(name, spec.args + (4,))
        FamilySpec(name, (4,) * len(family.params))  # a float parameter takes an int
        for at, kind in enumerate(family.params):
            wrong = 4.5 if kind is int else True
            with pytest.raises(InvalidParameterError):
                FamilySpec(name, spec.args[:at] + (wrong,) + spec.args[at + 1:])
    # refused on construction, each with its error class and message
    for args, error, message in (
        (("grid", (0,)), InvalidParameterError, "parameters must be positive: (0,)"),
        (("grid", (4, 4)), InvalidParameterError, "family 'grid' takes 1 parameter(s), got (4, 4)"),
        (("grid", (True,)), InvalidParameterError, "family 'grid' takes int parameters, got (True,)"),
        (("nope", (4,)), UnsupportedFamilyError, "unknown family 'nope'"),
    ):
        with pytest.raises(error) as raised:
            FamilySpec(*args)
        assert type(raised.value) is error and str(raised.value) == message
    assert FamilySpec(family="grid", args=(4,)) == parse_family_spec("grid:4")


def test_smallest_parameters_of_the_size_checked_families():
    for spec, message in (("cycle:2", "cycle needs n >= 3"),
                          ("rblock:2", "block graph sampler needs n >= 3")):
        with pytest.raises(InvalidParameterError, match=message):
            generate(parse_family_spec(spec))
    g = generate(parse_family_spec("rtree:1"))
    assert (g.n, g.m) == (1, 0)


def test_family_vertex_counts_and_cap(monkeypatch):
    for name, family in FAMILIES.items():
        args = tuple(0.5 if kind is float else 3 + i for i, kind in enumerate(family.params))
        assert family.vertices(*args) == generate(FamilySpec(name, args)).n, name
    # refused from the parameters alone: no builder runs
    for name, family in FAMILIES.items():
        monkeypatch.setitem(FAMILIES, name, family._replace(build=None))
    for text in (f"path:{MAX_FILE_VERTICES + 1}", "grid:142", "kxk:200,101", "figure1:1334",
                 f"random:{MAX_FILE_VERTICES + 1},0.5", "cocktail:10001", "star:20000"):
        with pytest.raises(TooLargeError, match="above the limit"):
            generate(parse_family_spec(text))


def test_dense_builders_refuse_before_building_edges(monkeypatch):
    monkeypatch.setattr(generators, "Graph", None)  # any edge list built would reach it
    for build, args in ((complete_graph, (MAX_FILE_VERTICES,)), (complete_graph, (1415,)),
                        (cocktail_party, (708,)), (complete_product, (141, 141)),
                        (random_connected_graph, (1415, 1.0, 0))):
        with pytest.raises(TooLargeError, match=f"above the limit of {MAX_DENSE_EDGES}"):
            build(*args)
    monkeypatch.undo()
    # a G(n, p) sample is capped on its expected edge count, p n (n - 1) / 2
    monkeypatch.setattr(generators, "MAX_DENSE_EDGES", 14)
    assert random_connected_graph(8, 0.5, 0).n == 8
    monkeypatch.setattr(generators, "MAX_DENSE_EDGES", 13)
    with pytest.raises(TooLargeError, match="expects 14 edges, above the limit of 13"):
        random_connected_graph(8, 0.5, 0)
    # the cap is on the exact edge count: a graph of exactly the cap is built
    for build, args, m in ((complete_graph, (7,), 21), (cocktail_party, (4,), 24),
                           (complete_product, (4, 3), 30)):
        monkeypatch.setattr(generators, "MAX_DENSE_EDGES", m)
        assert build(*args).m == m
        monkeypatch.setattr(generators, "MAX_DENSE_EDGES", m - 1)
        with pytest.raises(TooLargeError, match="above the limit"):
            build(*args)


def test_generate_named_families():
    assert generate(FamilySpec("cocktail", (3,))).n == 6
    grid4 = generate(FamilySpec("grid", (4,)))
    assert grid4.n == 16 and grid4.m == 24
    torus5 = generate(FamilySpec("torus", (5,)))
    assert torus5.n == 25 and torus5.m == 50
    assert all(torus5.degree(v) == 4 for v in range(25))
    ds = generate(FamilySpec("double_star", (3, 4)))
    assert ds.n == 9 and ds.degree(0) == 4 and ds.degree(1) == 5
    assert generate(FamilySpec("star", (5,))).degree(0) == 5


def test_product_small_cases():
    square = cartesian_product(complete_graph(2), complete_graph(2))
    assert square.n == 4 and square.m == 4
    assert all(square.degree(v) == 2 for v in range(4))
    grid23 = cartesian_product(path_graph(2), path_graph(3))
    assert grid23.n == 6 and grid23.m == 7
    prism3 = cartesian_product(complete_graph(3), complete_graph(2))
    assert prism3.n == 6 and prism3.m == 9


def test_product_commutes_up_to_relabel():
    g, h = path_graph(3), cycle_graph(4)
    gh = cartesian_product(g, h)
    hg = cartesian_product(h, g)
    # (a,b) <-> (b,a): id a*nh+b in gh maps to b*ng+a in hg
    perm = {a * h.n + b: b * g.n + a for a in range(g.n) for b in range(h.n)}
    mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in gh.edges()}
    assert mapped == set(hg.edges())


def test_grid_equals_product_of_paths():
    assert grid_graph(5) == cartesian_product(path_graph(5), path_graph(5))


def _same_build(got: Graph, want: Graph) -> bool:
    # Graph.__eq__ compares n and adj only, so m and the masks are compared too
    return (got.n, got.m, got.adj, got.adj_mask) == (want.n, want.m, want.adj, want.adj_mask)


def test_product_matches_the_per_edge_reference():
    for n in range(1, 21):
        p, c = path_graph(n), cycle_graph(max(n, 3))
        assert _same_build(grid_graph(n), cartesian_product_reference(p, p)), n
        if n >= 3:
            assert _same_build(prism_graph(n), cartesian_product_reference(p, c)), n
            assert _same_build(torus_graph(n), cartesian_product_reference(c, c)), n
    for m in range(1, 7):
        for n in range(1, 7):
            want = cartesian_product_reference(complete_graph(m), complete_graph(n))
            assert _same_build(complete_product(m, n), want), (m, n)
    factors = [Graph(1, []), path_graph(2), path_graph(5), cycle_graph(4), cycle_graph(7),
               star_graph(4), random_tree(9, 24), random_tree(13, 25),
               random_connected_graph(10, 0.4, 24), random_connected_graph(14, 0.3, 25)]
    for g in factors:
        for h in factors:
            assert _same_build(cartesian_product(g, h), cartesian_product_reference(g, h)), (g, h)


def test_product_over_the_vertex_cap_is_refused_before_any_list():
    side = path_graph(200)
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError) as raised:
            cartesian_product(side, side)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(raised.value) == "n=40000 above the limit of 20000 vertices"
    assert peak < 100_000  # 40,000 neighbour lists alone would take megabytes


def test_generated_masks_match_the_lists():
    graphs = [np_gadget(path_graph(5)).gprime]
    for name, family in FAMILIES.items():
        args = tuple(0.5 if kind is float else 3 + i for i, kind in enumerate(family.params))
        graphs.append(generate(FamilySpec(name, args), seed=3))
    for g in graphs:
        assert all(g.adj_mask[v] == sum(1 << w for w in g.adj[v]) for v in range(g.n)), g
        assert g.m == sum(map(len, g.adj)) // 2, g


def test_gadget_path5_counts():
    red = np_gadget(path_graph(5))
    assert red.gprime.n == 10
    assert red.gprime.m == 23
    assert red.k_offset == 4
    assert diameter(red.gprime) == 2


def test_gadget_single_edge():
    red = np_gadget(Graph(2, [(0, 1)]))
    assert red.gprime.n == 4


def test_gadget_triangle():
    red = np_gadget(cycle_graph(3))
    assert red.gprime.n == 7
    evs = sorted(red.edge_vertex_map.values())
    for i, a in enumerate(evs):
        for b in evs[i + 1:]:
            assert b in red.gprime.adj[a]


def test_gadget_adjacency_contract():
    g = random_graph_no_isolated(6, 0.5, seed=9)
    red = np_gadget(g)
    gp = red.gprime
    apex_nb = set(gp.adj[red.apex])
    assert apex_nb == set(red.original_map)
    for (u, v), ev in red.edge_vertex_map.items():
        others = set(red.edge_vertex_map.values()) - {ev}
        assert set(gp.adj[ev]) == {u, v} | others
    assert diameter(gp) == 2


def test_gadget_matches_the_per_edge_reference():
    # Graph.__eq__ compares n and adj only, so masks and m are compared too
    rng = random.Random(18)
    bases = [path_graph(5), cycle_graph(3), Graph(2, [(0, 1)])]
    for i in range(20):
        n = 10 + (50 * i) // 19
        bases.append(random_connected_graph(n, rng.uniform(4, 9) / (n - 1), 1800 + i))
    for base in bases:
        red = np_gadget(base)
        gprime, apex, edge_vertex_map, k_offset = np_gadget_reference(base)
        assert (red.gprime.n, red.gprime.adj) == (gprime.n, gprime.adj), base
        assert red.gprime.adj_mask == gprime.adj_mask, base
        assert red.gprime.m == gprime.m, base
        assert (red.apex, red.k_offset) == (apex, k_offset), base
        assert list(red.edge_vertex_map.items()) == list(edge_vertex_map.items()), base
        assert red.original_map == tuple(range(base.n))


def test_gadget_rejects_isolated_vertices():
    with pytest.raises(IsolatedVertexError):
        np_gadget(Graph(3, [(0, 1)]))


def test_gadget_diameter_two_over_corpus():
    rng = random.Random(13)
    for i in range(15):
        g = random_graph_no_isolated(rng.randint(3, 8), rng.uniform(0.3, 0.7), seed=500 + i)
        assert diameter(np_gadget(g).gprime) == 2


def test_figure_family_single_copy():
    g, labels = figure_family(1)
    assert g.n == 16 and g.m == 17
    assert g.degree(labels["x"]) == 3
    assert sorted(g.adj[labels["x"]]) == sorted(
        [labels["y"][0], labels["z"][0], labels["c"][0]]
    )
    assert g.degree(labels["a"][0]) == 4


def test_figure_family_two_copies():
    g, labels = figure_family(2)
    assert g.n == 31 and g.m == 34
    assert g.degree(labels["x"]) == 6
    hubs = [v for v in range(g.n) if g.degree(v) == 6]
    assert hubs == [labels["x"]]
    assert len(labels["y"]) == 2


def test_figure_family_needs_a_copy():
    with pytest.raises(InvalidParameterError, match="at least one copy"):
        figure_family(0)


def test_random_connected_graph_gives_up_after_1000_samples():
    # G(60, 0.03) passes the isolated-vertex check but is hardly ever connected
    for seed in range(3):
        with pytest.raises(InvalidParameterError,
                           match=r"no connected sample in 1000 tries for n=60, p=0\.03"):
            random_connected_graph(60, 0.03, seed)


def test_generation_checks_the_deadline_before_each_sample():
    # seed 0 of random:2000,0.003 draws hundreds of disconnected samples,
    # each of about two million numbers
    start = time.monotonic()
    with pytest.raises(SolveTimeoutError, match="graph generation"):
        generate(parse_family_spec("random:2000,0.003"), 0, deadline=start + 0.3)
    assert time.monotonic() - start < 2
    # a deadline that does not fire leaves every seeded graph as it was
    later = time.monotonic() + 60
    for spec, build in (("random:30,0.2", lambda seed: random_connected_graph(30, 0.2, seed)),
                        ("rtree:30", lambda seed: random_tree(30, seed)),
                        ("rblock:30", lambda seed: random_block_graph(30, seed))):
        for seed in (0, 1):
            assert generate(parse_family_spec(spec), seed, later) == build(seed), (spec, seed)


def test_generation_checks_the_deadline_within_a_sample():
    # one G(20000, 0.0006) sample draws about 2 * 10^8 numbers; the deadline
    # is checked every 64 rows of it
    start = time.monotonic()
    with pytest.raises(SolveTimeoutError, match="graph generation"):
        random_connected_graph(20000, 0.0006, 1, deadline=start + 0.2)
    assert time.monotonic() - start < 1


def test_gnp_expecting_too_many_draws_is_refused_before_the_first():
    # 13.4 isolated vertices expected: about e^13.4 = 7e5 samples of 1,999,000
    # draws each, far above MAX_DRAWS, where 1000 tries would take 190 s
    start = time.monotonic()
    with pytest.raises(InvalidParameterError, match=r"about e\^13\.4 samples of 1999000 draws"):
        generate(parse_family_spec("random:2000,0.0025"), 0, start + 5)
    assert time.monotonic() - start < 1


def test_sampling_in_blocks_draws_the_numbers_of_one_pass():
    # the pairs (u, v), u < v, take rng.random() in row order, across the
    # 64-row blocks too, so every seeded graph is the one-pass draw
    for n, p, seed in ((65, 0.1, 0), (130, 0.05, 1), (200, 0.04, 2)):
        rng = random.Random(seed)
        while True:
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])
            if is_connected(g):
                break
        assert random_connected_graph(n, p, seed) == g, (n, p, seed)


def test_random_generators_deterministic():
    a = random_connected_graph(8, 0.4, seed=42)
    b = random_connected_graph(8, 0.4, seed=42)
    assert a == b
    assert is_connected(a)
    t = random_tree(9, seed=4)
    assert t.m == 8 and is_connected(t)
    g = random_graph_no_isolated(7, 0.35, seed=8)
    assert all(g.adj[v] for v in range(7))


def test_random_block_graph_shape():
    from vertexvis.graph import is_block_graph

    for i in range(10):
        g = random_block_graph(11, seed=100 + i)
        assert g.n == 11
        assert is_connected(g)
        assert is_block_graph(g)
        assert g.m < g.n * (g.n - 1) // 2


def test_star_and_cocktail_examples():
    assert star_graph(4).n == 5
    assert cocktail_party(2).m == 4
    with pytest.raises(InvalidParameterError):
        cocktail_party(1)
