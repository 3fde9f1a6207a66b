import random

import pytest

from vertexvis.errors import InvalidParameterError
from vertexvis.generators import (
    complete_graph,
    cycle_graph,
    generate,
    parse_family_spec,
    path_graph,
    random_connected_graph,
    star_graph,
)
from vertexvis.graph import Graph
from vertexvis.visibility import (
    clear_reachable,
    has_spanning_double_star,
    has_universal_vertex,
    is_mutual_visibility_set,
    is_visible_from,
    is_x_visibility_set,
    maximally_distant,
    simplicial_vertices,
    stress_vertices,
)

from oracles import (
    all_shortest_paths,
    maximally_distant_reference,
    mutual_by_paths,
    stress_vertices_reference,
    visible_by_paths,
)

BOWTIE = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])


def test_clear_reachable_examples():
    p4 = path_graph(4)
    assert clear_reachable(p4, 0, {2}) == {0, 1}
    c4 = cycle_graph(4)
    assert clear_reachable(c4, 0, set()) == {0, 1, 2, 3}


def test_clear_reachable_matches_paths(small_graphs):
    rng = random.Random(23)
    for g in rng.sample(small_graphs, 60):
        x = rng.randrange(g.n)
        blocked = {v for v in range(g.n) if v != x and rng.random() < 0.4}
        reach = clear_reachable(g, x, blocked)
        expected = {x} | {
            y
            for y in range(g.n)
            if y != x
            and y not in blocked
            and any(
                all(v not in blocked for v in p[1:-1]) and p[-1] not in blocked
                for p in all_shortest_paths(g, x, y)
            )
        }
        assert reach == expected


def test_clear_reachable_rejects_blocked_root():
    with pytest.raises(InvalidParameterError):
        clear_reachable(path_graph(3), 1, {1})


def test_is_visible_from_examples():
    p4 = path_graph(4)
    assert is_visible_from(p4, 1, {0, 2}, 0)
    assert not is_visible_from(p4, 0, {1, 3}, 3)
    c4 = cycle_graph(4)
    assert not is_visible_from(c4, 0, {1, 2, 3}, 2)


def test_is_visible_matches_paths(small_graphs):
    rng = random.Random(29)
    for g in small_graphs:
        for x in range(g.n):
            for y in range(g.n):
                if y == x:
                    continue
                subsets = [set(), set(range(g.n)) - {x, y}]
                for _ in range(4):
                    subsets.append(
                        {v for v in range(g.n) if rng.random() < 0.5}
                    )
                for s in subsets:
                    assert is_visible_from(g, x, s, y) == visible_by_paths(
                        g, x, s, y
                    )


def test_neighborhood_always_visible(small_graphs):
    for g in small_graphs[:200]:
        for x in range(g.n):
            assert is_x_visibility_set(g, x, set(g.adj[x]))


def test_x_visibility_examples():
    p4 = path_graph(4)
    assert not is_x_visibility_set(p4, 0, {1, 3})
    with pytest.raises(InvalidParameterError):
        is_x_visibility_set(p4, 0, {0, 1})


def test_set_arguments_are_range_checked():
    from vertexvis.errors import IdOutOfRangeError

    p4 = path_graph(4)
    with pytest.raises(IdOutOfRangeError):
        is_x_visibility_set(p4, 0, {9})
    with pytest.raises(IdOutOfRangeError):
        clear_reachable(p4, 0, {-2})
    with pytest.raises(IdOutOfRangeError):
        is_visible_from(p4, 0, {7}, 2)
    with pytest.raises(IdOutOfRangeError):
        is_mutual_visibility_set(p4, {0, 11})
    with pytest.raises(InvalidParameterError, match="distinct vertices"):
        is_visible_from(p4, 1, [], 1)


def test_visibility_hereditary_down(small_graphs):
    rng = random.Random(31)
    for g in rng.sample(small_graphs, 60):
        x = rng.randrange(g.n)
        s = {v for v in range(g.n) if v != x and rng.random() < 0.6}
        if not is_x_visibility_set(g, x, s):
            continue
        for v in list(s):
            assert is_x_visibility_set(g, x, s - {v})


def test_mutual_visibility_examples():
    assert is_mutual_visibility_set(path_graph(7), {0, 6})
    assert not is_mutual_visibility_set(path_graph(5), {0, 2, 4})
    k5 = complete_graph(5)
    assert is_mutual_visibility_set(k5, set(range(5)))


def test_mutual_visibility_matches_paths(small_graphs):
    rng = random.Random(37)
    for g in rng.sample(small_graphs, 50):
        for _ in range(4):
            s = {v for v in range(g.n) if rng.random() < 0.5}
            assert is_mutual_visibility_set(g, s) == mutual_by_paths(g, s)


def test_mutual_hereditary_down(small_graphs):
    rng = random.Random(41)
    for g in rng.sample(small_graphs, 40):
        s = {v for v in range(g.n) if rng.random() < 0.6}
        if not is_mutual_visibility_set(g, s):
            continue
        for v in list(s):
            assert is_mutual_visibility_set(g, s - {v})


def test_maximally_distant_examples():
    assert maximally_distant(path_graph(4), 1) == {0, 3}
    assert maximally_distant(cycle_graph(6), 0) == {3}
    assert maximally_distant(complete_graph(5), 2) == {0, 1, 3, 4}


def test_maximally_distant_matches_the_neighbour_scan(small_graphs):
    # no vertex's DAG parent, against the scan for a farther neighbour
    rng = random.Random(53)
    graphs = list(small_graphs)
    for n in range(30, 151, 30):
        graphs.append(random_connected_graph(n, rng.uniform(2, 6) / (n - 1), rng.randrange(1 << 30)))
    for g in graphs:
        for x in range(g.n):
            assert maximally_distant(g, x) == maximally_distant_reference(g, x), (g, x)


def test_stress_examples():
    assert stress_vertices(path_graph(4), 1) == {2}
    assert stress_vertices(cycle_graph(6), 0) == frozenset()
    assert stress_vertices(star_graph(4), 1) == {0}


def test_stress_matches_the_sweep_reference():
    # the dominator pass against one blocked sweep per vertex, on every
    # root: families with many ties, trees and block graphs (every internal
    # vertex a cut vertex), and sparse G(n, p) with a few cut vertices
    graphs = [generate(parse_family_spec(spec), 1) for spec in
              ("grid:7", "torus:9", "prism:8", "figure1:3", "cycle:9", "path:7",
               "rtree:300", "rblock:300")]
    rng = random.Random(47)
    for n in range(40, 121, 20):
        graphs.append(random_connected_graph(n, rng.uniform(2, 5) / (n - 1), rng.randrange(1 << 30)))
    stressed = 0
    for g in graphs:
        for x in range(g.n):
            stress = stress_vertices(g, x)
            assert stress == stress_vertices_reference(g, x), (g.n, x)
            stressed += bool(stress)
    assert stressed > 1000


def test_md_and_stress_disjoint(small_graphs):
    for g in small_graphs:
        for x in range(g.n):
            assert not maximally_distant(g, x) & stress_vertices(g, x)


def test_cut_vertices_are_stress(small_graphs):
    # every cut vertex other than the root blocks something maximally distant
    rng = random.Random(43)
    for g in rng.sample(small_graphs, 60):
        from vertexvis.graph import _biconnected_components

        counts = {}
        for comp in _biconnected_components(g):
            verts = {u for e in comp for u in e}
            for v in verts:
                counts[v] = counts.get(v, 0) + 1
        cuts = {v for v, c in counts.items() if c > 1}
        for x in range(g.n):
            stress = stress_vertices(g, x)
            assert cuts - {x} <= stress


def test_simplicial_examples():
    assert simplicial_vertices(complete_graph(4)) == {0, 1, 2, 3}
    assert simplicial_vertices(path_graph(4)) == {0, 3}
    assert simplicial_vertices(BOWTIE) == {0, 1, 3, 4}


def test_universal_and_double_star():
    assert has_universal_vertex(star_graph(5)) == 0
    assert has_universal_vertex(path_graph(4)) is None
    assert has_spanning_double_star(path_graph(4))
    assert not has_spanning_double_star(cycle_graph(6))
    assert has_spanning_double_star(cycle_graph(4))
    assert not has_spanning_double_star(path_graph(3))


def test_grid_witness_reach_structure():
    # with the extremal set blocked, reachability is exactly the complement
    # of the set plus the blocked shadow behind it
    from vertexvis.witnesses import grid_witness

    w = grid_witness(4)
    reach = clear_reachable(w.graph, w.root, w.members)
    shadow = {
        y
        for y in range(w.graph.n)
        if y != w.root
        and y not in w.members
        and not any(
            all(v not in w.members for v in p[1:-1])
            for p in all_shortest_paths(w.graph, w.root, y)
        )
    }
    assert reach == (set(range(w.graph.n)) - set(w.members) - shadow)
