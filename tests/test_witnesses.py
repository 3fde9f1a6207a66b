import hashlib

import pytest

from vertexvis import cli, graph, witnesses
from vertexvis.bounds import CLOSED_FORMS, closed_form
from vertexvis.errors import InvalidParameterError
from vertexvis.generators import FamilySpec, generate, grid_graph, torus_graph
from vertexvis.graph import bfs_distances
from vertexvis.solvers import vv_exact, vx_exact
from vertexvis.witnesses import WITNESS_BUILDERS, witness_for


def coord(n, k, l):
    return (k - 1) * n + (l - 1)


def test_quadrant_diagonal_sizes_grid6(monkeypatch):
    def no_view(g, x):
        raise AssertionError("distances only: no root view is built")

    monkeypatch.setattr(witnesses, "bfs_root_view", no_view)
    g, x = grid_graph(6), coord(6, 2, 2)
    diags = witnesses._diagonals(6, bfs_distances(g, x)[0], x, 3)
    assert [len(d) for d in diags] == [1, 2, 3, 4, 3, 2, 1]


def test_quadrant_diagonal_sizes_grid4():
    g, x = grid_graph(4), coord(4, 2, 2)
    diags = witnesses._diagonals(4, bfs_distances(g, x)[0], x, 3)
    assert [len(d) for d in diags] == [1, 2, 1]


def test_quadrant_diagonal_sizes_torus5():
    g = torus_graph(5)
    x = coord(5, 3, 3)
    for q in (1, 2, 3, 4):
        assert [len(d) for d in witnesses._diagonals(5, bfs_distances(g, x)[0], x, q)] == [1, 2, 1]


def test_quadrants_partition():
    n = 7
    g = torus_graph(n)
    x = coord(n, 4, 4)
    seen = set()
    for q in (1, 2, 3, 4):
        for diag in witnesses._diagonals(n, bfs_distances(g, x)[0], x, q):
            for v in diag:
                assert v not in seen
                seen.add(v)
    axes = {coord(n, 4, l) for l in range(1, n + 1)}
    axes |= {coord(n, k, 4) for k in range(1, n + 1)}
    assert seen == set(range(g.n)) - axes


@pytest.mark.parametrize("family", ["grid", "prism", "torus"])
@pytest.mark.parametrize("n", range(4, 9))
def test_witnesses_verify_and_match_closed_form(family, n):
    w = witness_for(family, n)
    assert w.verified
    assert len(w.members) == w.claimed_size == closed_form(FamilySpec(family, (n,)))


def test_witnesses_read_the_family_table():
    # each WITNESS_BUILDERS family has a closed form and its graph from
    # generate, and table offers exactly those families
    table = cli.build_parser()._subparsers._group_actions[0].choices["table"]
    (family_arg,) = [a for a in table._actions if a.dest == "family"]
    assert tuple(family_arg.choices) == tuple(WITNESS_BUILDERS)
    for family in WITNESS_BUILDERS:
        assert family in CLOSED_FORMS
        for n in range(4, 13):
            assert witness_for(family, n).graph == generate(FamilySpec(family, (n,))), (family, n)


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
    monkeypatch.setattr(graph, "bfs_distances", lambda g, x: calls.append(x) or real(g, x))
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
    assert witness_for("grid", 4).claimed_size == 9
    assert witness_for("grid", 6).claimed_size == 20
    assert witness_for("grid", 7).claimed_size == 27
    assert witness_for("prism", 5).claimed_size == 14
    assert witness_for("prism", 8).claimed_size == 34
    assert witness_for("prism", 7).claimed_size == 27
    assert witness_for("torus", 5).claimed_size == 12
    assert witness_for("torus", 7).claimed_size == 26
    assert witness_for("torus", 8).claimed_size == 33


def test_witness_roots():
    assert witness_for("grid", 6).root_coords() == (2, 2)
    assert witness_for("prism", 7).root_coords() == (2, 4)
    assert witness_for("torus", 8).root_coords() == (4, 4)


def test_witness_rejects_small_n():
    for family in ("grid", "prism", "torus"):
        with pytest.raises(InvalidParameterError):
            witness_for(family, 3)
    with pytest.raises(InvalidParameterError):
        witness_for("cycle", 6)
    # the closed form's range check comes first, not an id out of the tiny graph
    for family, n in (("grid", 1), ("prism", 2), ("torus", 3)):
        with pytest.raises(InvalidParameterError, match="closed form needs every parameter >= 4"):
            witness_for(family, n)


def test_witness_json_shape():
    w = witness_for("grid", 5)
    payload = w.to_json_dict()
    assert payload["family"] == "grid"
    assert payload["root"] == {"id": w.root + 1, "row": 2, "col": 2}
    assert payload["claimed_size"] == 14
    assert payload["verified"] is True
    assert len(payload["set"]) == 14
    assert all(isinstance(v, int) and 1 <= v <= 25 for v in payload["set"])
