import random

import pytest

from vertexvis.errors import (
    DisconnectedError,
    DuplicateEdgeError,
    GraphFormatError,
    IdOutOfRangeError,
    SelfLoopError,
)
from vertexvis.generators import (
    cartesian_product,
    cocktail_party,
    complete_graph,
    cycle_graph,
    path_graph,
    random_tree,
)
from vertexvis.graph import (
    Graph,
    bfs_root_view,
    format_graph,
    from_external_ids,
    interval,
    is_block_graph,
    is_connected,
    is_geodetic,
    parse_graph,
    to_external_ids,
)

from oracles import all_shortest_paths, unique_geodesics_by_paths

BOWTIE = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])


def test_build_singleton():
    g = Graph(1, [])
    assert g.n == 1 and g.m == 0


def test_build_path():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.max_degree() == 2
    assert g.adj[1] == (0, 2)


def test_build_cocktail_counts():
    g = cocktail_party(3)
    assert g.m == 12 and g.max_degree() == 4


def test_build_rejects_bad_input():
    with pytest.raises(SelfLoopError):
        Graph(3, [(0, 0)])
    with pytest.raises(DuplicateEdgeError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(IdOutOfRangeError):
        Graph(3, [(0, 3)])
    with pytest.raises(IdOutOfRangeError):
        Graph(0, [])


def test_bfs_path_end():
    rv = bfs_root_view(path_graph(4), 0)
    assert rv.dist == (0, 1, 2, 3)
    assert rv.ecc == 3
    assert rv.layers == ((0,), (1,), (2,), (3,))


def test_bfs_cycle_antipode():
    rv = bfs_root_view(cycle_graph(6), 2)
    assert rv.ecc == 3
    assert rv.layers[3] == (5,)


def test_bfs_grid_corner():
    g = cartesian_product(path_graph(4), path_graph(4))
    assert bfs_root_view(g, 0).ecc == 6


def test_root_view_invariants(small_graphs):
    for g in small_graphs:
        for x in range(g.n):
            rv = bfs_root_view(g, x)
            assert sum(len(layer) for layer in rv.layers) == len(rv.order) == g.n
            for v in range(g.n):
                if v == x:
                    assert rv.dag_in[v] == ()
                    continue
                assert rv.dag_in[v]
                for u in rv.dag_in[v]:
                    assert u in g.adj[v]
                    assert rv.dist[u] == rv.dist[v] - 1


def test_dag_in_is_exactly_penultimate_vertices(small_graphs):
    rng = random.Random(7)
    for g in rng.sample(small_graphs, 60):
        x = rng.randrange(g.n)
        rv = bfs_root_view(g, x)
        for y in range(g.n):
            if y == x:
                continue
            penultimate = {p[-2] for p in all_shortest_paths(g, x, y)}
            assert set(rv.dag_in[y]) == penultimate


def test_interval_examples():
    assert interval(path_graph(4), 0, 3) == {1, 2}
    c4 = cycle_graph(4)
    assert interval(c4, 0, 2) == {1, 3}
    assert interval(complete_graph(4), 1, 3) == frozenset()


def test_interval_symmetric_and_metric(small_graphs):
    rng = random.Random(11)
    for g in rng.sample(small_graphs, 80):
        x, y = rng.sample(range(g.n), 2) if g.n > 1 else (0, 0)
        if x == y:
            continue
        iv = interval(g, x, y)
        assert iv == interval(g, y, x)
        dx = bfs_root_view(g, x).dist
        dy = bfs_root_view(g, y).dist
        for v in iv:
            assert dx[v] + dy[v] == dx[y]


def test_interval_rejects_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedError):
        interval(g, 0, 2)


def test_interval_rejects_equal_endpoints():
    from vertexvis.errors import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        interval(path_graph(4), 2, 2)


def test_is_connected():
    assert is_connected(Graph(1, []))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
    assert is_connected(cycle_graph(5))


def test_geodetic_examples():
    assert is_geodetic(random_tree(9, seed=3))
    assert not is_geodetic(cycle_graph(4))
    assert is_geodetic(cycle_graph(5))


def test_geodetic_matches_path_enumeration(small_graphs):
    for g in small_graphs:
        assert is_geodetic(g) == unique_geodesics_by_paths(g)


def test_block_graph_examples():
    assert is_block_graph(BOWTIE)
    assert not is_block_graph(cycle_graph(4))
    assert is_block_graph(random_tree(10, seed=5))
    assert is_block_graph(complete_graph(5))


def test_external_id_round_trip():
    assert to_external_ids({0, 2, 5}) == [1, 3, 6]
    assert from_external_ids([1, 3, 6], 6) == {0, 2, 5}
    with pytest.raises(IdOutOfRangeError):
        from_external_ids([7], 6)


def test_graph_file_round_trip():
    g = cocktail_party(3)
    text = format_graph(g, comment="round trip")
    again = parse_graph(text)
    assert again == g


def test_graph_file_parsing_details():
    text = "c comment\n\np 3 2\ne 1 2\ne 2 3\n"
    g = parse_graph(text)
    assert g.n == 3 and g.m == 2
    with pytest.raises(GraphFormatError):
        parse_graph("e 1 2\n")
    with pytest.raises(GraphFormatError):
        parse_graph("p 3 1\n")
    with pytest.raises(GraphFormatError):
        parse_graph("p 2 1\ne 1 5\n")
    with pytest.raises(GraphFormatError):
        parse_graph("p 2 1\nq 1 2\n")
