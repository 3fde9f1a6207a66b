import hashlib

import pytest

from vertexvis import graph, witnesses
from vertexvis.bounds import closed_form
from vertexvis.errors import DisconnectedError, InvalidParameterError, InvalidRegionError
from vertexvis.generators import FamilySpec, grid_graph, torus_graph
from vertexvis.solvers import vv_exact, vx_exact
from vertexvis.witnesses import (
    grid_witness,
    prism_witness,
    quadrant_diagonals,
    torus_witness,
    witness_for,
)


def coord(n, k, l):
    return (k - 1) * n + (l - 1)


def test_quadrant_diagonal_sizes_grid6(monkeypatch):
    def no_view(g, x):
        raise AssertionError("distances only: no root view is built")

    monkeypatch.setattr(witnesses, "bfs_root_view", no_view)
    g = grid_graph(6)
    diags = quadrant_diagonals(g, 6, coord(6, 2, 2), 3)
    assert [len(d) for d in diags] == [1, 2, 3, 4, 3, 2, 1]


def test_quadrant_diagonal_sizes_grid4():
    g = grid_graph(4)
    diags = quadrant_diagonals(g, 4, coord(4, 2, 2), 3)
    assert [len(d) for d in diags] == [1, 2, 1]


def test_quadrant_diagonal_sizes_torus5():
    g = torus_graph(5)
    x = coord(5, 3, 3)
    for q in (1, 2, 3, 4):
        assert [len(d) for d in quadrant_diagonals(g, 5, x, q)] == [1, 2, 1]


def test_quadrants_partition():
    n = 7
    g = torus_graph(n)
    x = coord(n, 4, 4)
    seen = set()
    for q in (1, 2, 3, 4):
        for diag in quadrant_diagonals(g, n, x, q):
            for v in diag:
                assert v not in seen
                seen.add(v)
    axes = {coord(n, 4, l) for l in range(1, n + 1)}
    axes |= {coord(n, k, 4) for k in range(1, n + 1)}
    assert seen == set(range(g.n)) - axes


def test_quadrant_rejects_bad_input():
    g = grid_graph(4)
    with pytest.raises(InvalidRegionError):
        quadrant_diagonals(g, 4, 0, 5)
    with pytest.raises(InvalidRegionError):
        quadrant_diagonals(g, 5, 0, 1)


def test_quadrant_rejects_a_disconnected_graph(monkeypatch):
    """The vertices the BFS from x misses are not a diagonal at distance -1."""
    def no_view(g, x):
        raise AssertionError("distances only: no root view is built")

    monkeypatch.setattr(witnesses, "bfs_root_view", no_view)
    g = graph.Graph(16, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(DisconnectedError):
        quadrant_diagonals(g, 4, 0, 3)


@pytest.mark.parametrize("family", ["grid", "prism", "torus"])
@pytest.mark.parametrize("n", range(4, 9))
def test_witnesses_verify_and_match_closed_form(family, n):
    w = witness_for(family, n)
    assert w.verified
    assert len(w.members) == w.claimed_size == closed_form(FamilySpec(family, (n,)))


@pytest.mark.parametrize("family", ["grid", "prism", "torus"])
@pytest.mark.parametrize("n", [4, 5])
def test_witness_is_tight_at_desk_scale(family, n):
    w = witness_for(family, n)
    assert vx_exact(w.graph, w.root).value == w.claimed_size
    assert vv_exact(w.graph).value == w.claimed_size


def test_each_witness_runs_one_bfs(monkeypatch):
    # the diagonals and the visibility check read one root view of the root,
    # also on a fresh graph
    calls = []
    real = graph.bfs_distances
    for module in (graph, witnesses):
        monkeypatch.setattr(module, "bfs_distances", lambda g, x: calls.append(x) or real(g, x))
    for family in ("grid", "prism", "torus"):
        for n in range(4, 10):
            calls.clear()
            w = witness_for(family, n)
            assert calls == [w.root], (family, n)


def test_witness_sets_are_pinned():
    # one digest over every construction of the three families at n = 4..24
    h = hashlib.sha256()
    for family in ("grid", "prism", "torus"):
        for n in range(4, 25):
            w = witness_for(family, n)
            h.update(repr((family, n, w.root, sorted(w.members))).encode())
    assert h.hexdigest() == "da4136afb580b8cacaddad231bed19d0e654d4af0e781e79024dd5478b1b6396"


def test_witness_examples():
    assert grid_witness(4).claimed_size == 9
    assert grid_witness(6).claimed_size == 20
    assert grid_witness(7).claimed_size == 27
    assert prism_witness(5).claimed_size == 14
    assert prism_witness(8).claimed_size == 34
    assert prism_witness(7).claimed_size == 27
    assert torus_witness(5).claimed_size == 12
    assert torus_witness(7).claimed_size == 26
    assert torus_witness(8).claimed_size == 33


def test_witness_roots():
    assert grid_witness(6).root_coords() == (2, 2)
    assert prism_witness(7).root_coords() == (2, 4)
    assert torus_witness(8).root_coords() == (4, 4)


def test_witness_rejects_small_n():
    for family in ("grid", "prism", "torus"):
        with pytest.raises(InvalidParameterError):
            witness_for(family, 3)
    with pytest.raises(InvalidParameterError):
        witness_for("cycle", 6)
    # the closed form's range check comes first, not an id out of the tiny graph
    for builder, n in ((grid_witness, 1), (prism_witness, 2), (torus_witness, 3)):
        with pytest.raises(InvalidParameterError, match="closed form needs every parameter >= 4"):
            builder(n)


def test_witness_json_shape():
    w = grid_witness(5)
    payload = w.to_json_dict()
    assert payload["family"] == "grid"
    assert payload["root"] == {"id": w.root + 1, "row": 2, "col": 2}
    assert payload["claimed_size"] == 14
    assert payload["verified"] is True
    assert len(payload["set"]) == 14
    assert all(isinstance(v, int) and 1 <= v <= 25 for v in payload["set"])
