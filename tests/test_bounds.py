import math
import random
import time

import pytest

from vertexvis import bounds, graph, solvers, visibility
from vertexvis.bounds import (
    COMPLETE_PRODUCT_NOTE,
    TORUS_EVEN_NOTE,
    block_graph_value,
    bounds_report,
    cartesian_bounds,
    characterize_extremal,
    closed_form,
    closed_form_notes,
)
from vertexvis.errors import (
    CompleteGraphError,
    IdOutOfRangeError,
    InvalidParameterError,
    NotBlockGraphError,
    UnsupportedFamilyError,
)
from vertexvis.generators import (
    FamilySpec,
    cocktail_party,
    complete_graph,
    cycle_graph,
    generate,
    parse_family_spec,
    path_graph,
    random_block_graph,
    random_connected_graph,
    random_tree,
    star_graph,
)
from vertexvis.graph import Graph
from vertexvis.solvers import vv_exact, vx_exact

BOWTIE = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])


def entry(report, name):
    return next(e for e in report.entries if e.name == name)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_cocktail_bounds_pin_the_value(k):
    g = cocktail_party(k)
    rep = bounds_report(g)
    lo = entry(rep, "max_degree_lower")
    hi = entry(rep, "degree_order_upper")
    assert lo.value == 2 * k - 2
    assert hi.applicable and hi.value == 2 * k - 2
    assert vv_exact(g).value == 2 * k - 2


def test_star_center_eccentricity_bounds_coincide():
    g = star_graph(6)
    rep = bounds_report(g, x=0)
    assert entry(rep, "eccentricity_lower").value == 6
    assert entry(rep, "eccentricity_upper").value == 6


def test_p4_interior_root_bounds():
    rep = bounds_report(path_graph(4), x=1)
    assert entry(rep, "max_distant_lower").value == 2
    assert entry(rep, "stress_upper").value == 2
    assert vx_exact(path_graph(4), 1).value == 2


def test_report_scopes_and_sandwich(small_graphs):
    rng = random.Random(67)
    for g in rng.sample(small_graphs, 60):
        x = rng.randrange(g.n)
        rep = bounds_report(g, x=x, compute_mu=True, compute_exact=True)
        vv = vv_exact(g).value
        vx = vx_exact(g, x).value
        for e in rep.entries:
            if not e.applicable:
                continue
            target = vv if e.scope == "vv" else vx
            if e.kind == "lower":
                assert e.value <= target, (e, g)
            else:
                assert target <= e.value, (e, g)
        assert rep.exact_value == vx


def test_report_json_schema():
    rep = bounds_report(path_graph(4), x=1, compute_exact=True)
    payload = rep.to_json_dict()
    assert set(payload) == {"graph", "root", "bounds", "mu", "exact"}
    assert set(payload["graph"]) == {"n", "m", "delta"}
    for b in payload["bounds"]:
        assert set(b) == {"name", "kind", "value", "applicable", "provenance", "scope"}
    assert payload["exact"] == {"value": 2, "root": 2}


def test_report_solves_share_one_deadline(monkeypatch):
    g = random_connected_graph(16, 0.25, 3)
    seen = []
    for name in ("mu_brute", "vv_exact", "vx_exact"):
        real = getattr(bounds, name)
        monkeypatch.setattr(bounds, name, lambda g, *rest, real=real: (
            seen.append((real.__name__, rest[-1])) or real(g, *rest)))
    deadline = time.monotonic() + 60
    rep = bounds_report(g, compute_mu=True, compute_exact=True, deadline=deadline)
    assert seen == [("mu_brute", deadline), ("vv_exact", deadline)]
    assert rep.mu is not None and rep.exact_value == vv_exact(g).value
    seen.clear()
    bounds_report(g, x=2, compute_mu=True, compute_exact=True, deadline=deadline)
    assert seen == [("mu_brute", deadline), ("vx_exact", deadline)]


def test_report_refuses_a_bad_root_before_any_work(monkeypatch):
    # connectivity is cached when the graph is built, so only the root's own
    # check can refuse 99, and it must come before the exponential mu pass
    g = random_connected_graph(16, 0.25, 1)
    assert g._connected

    def fail(*args):
        raise AssertionError("mu_brute ran before the root was checked")

    monkeypatch.setattr(bounds, "mu_brute", fail)
    with pytest.raises(IdOutOfRangeError):
        bounds_report(g, 99, compute_mu=True)


def test_per_root_entries_run_one_bfs(monkeypatch):
    # maximally distant vertices, stress vertices, the eccentricity and
    # connectivity all come from one root view, also on a fresh graph; so do
    # the per-root solves, the set check and each per-root predicate
    calls = []
    real = graph.bfs_distances
    for module in (bounds, graph, solvers, visibility):
        if hasattr(module, "bfs_distances"):
            monkeypatch.setattr(module, "bfs_distances", lambda g, x: calls.append(x) or real(g, x))
    entries = (
        bounds_report,
        vx_exact,
        solvers.vx_greedy,
        lambda g, x: visibility.is_x_visibility_set(g, x, ()),
        lambda g, x: visibility.clear_reachable(g, x, ()),
        lambda g, x: visibility.is_visible_from(g, x, (), 0),
        visibility.maximally_distant,
        visibility.stress_vertices,
    )
    for spec, x in (("grid:9", 40), ("figure1:2", 3), ("cocktail:5", 7)):
        for entry in entries:
            g = generate(parse_family_spec(spec))
            assert g._connected is None, spec
            calls.clear()
            entry(g, x)
            assert calls == [x], (spec, entry)


def test_characterize_examples():
    assert characterize_extremal(complete_graph(5)) == "top"
    assert characterize_extremal(star_graph(4)) == "top"
    assert characterize_extremal(path_graph(4)) == "second"
    assert characterize_extremal(cycle_graph(6)) == "other"
    with pytest.raises(InvalidParameterError, match="at least 2 vertices"):
        characterize_extremal(path_graph(1))


def test_characterize_iff_small(small_graphs):
    for g in small_graphs:
        vv = vv_exact(g).value
        label = characterize_extremal(g)
        assert (vv == g.n - 1) == (label == "top")
        assert (vv == g.n - 2) == (label == "second")


def test_closed_form_values():
    assert closed_form(FamilySpec("grid", (5,))) == 14
    assert closed_form(FamilySpec("prism", (5,))) == 14
    assert closed_form(FamilySpec("torus", (5,))) == 12
    assert closed_form(FamilySpec("prism", (6,))) == 19
    assert closed_form(FamilySpec("torus", (6,))) == 19
    assert closed_form(FamilySpec("torus", (8,))) == 33
    assert closed_form(FamilySpec("cycle", (9,))) == 2
    assert closed_form(FamilySpec("path", (2,))) == 1
    assert closed_form(FamilySpec("complete", (7,))) == 6
    assert closed_form(FamilySpec("kxk", (3, 2))) == 4
    assert closed_form(FamilySpec("kxk", (4, 3))) == 9


def test_closed_form_rejects():
    with pytest.raises(InvalidParameterError):
        closed_form(FamilySpec("grid", (3,)))
    with pytest.raises(UnsupportedFamilyError):
        closed_form(FamilySpec("figure1", (1,)))


# Each closed form's smallest parameter, written out independently of the
# table so that a changed range in CLOSED_FORMS shows here.
SMALLEST_SPECS = {
    "path": (2,),
    "cycle": (3,),
    "complete": (2,),
    "grid": (4,),
    "prism": (4,),
    "torus": (4,),
    "kxk": (2, 2),
}


def test_every_closed_form_row_is_listed():
    assert set(bounds.CLOSED_FORMS) == set(SMALLEST_SPECS)


@pytest.mark.parametrize("family", sorted(SMALLEST_SPECS))
def test_closed_form_range_starts_at_the_smallest_parameter(family):
    smallest = SMALLEST_SPECS[family]
    for i in range(len(smallest)):
        below = tuple(a - 1 if j == i else a for j, a in enumerate(smallest))
        with pytest.raises(InvalidParameterError, match=f"needs every parameter >= {smallest[i]}"):
            closed_form(FamilySpec(family, below))
    spec = FamilySpec(family, smallest)
    assert closed_form(spec) == vv_exact(generate(spec)).value


def test_closed_form_notes():
    assert closed_form_notes(FamilySpec("kxk", (3, 2))) == (COMPLETE_PRODUCT_NOTE,)
    assert closed_form_notes(FamilySpec("torus", (6,))) == (TORUS_EVEN_NOTE,)
    assert closed_form_notes(FamilySpec("torus", (4,))) == ()
    assert closed_form_notes(FamilySpec("torus", (7,))) == ()
    assert closed_form_notes(FamilySpec("grid", (6,))) == ()


def test_cartesian_bounds_examples():
    assert cartesian_bounds(complete_graph(3), complete_graph(2)) == (4, 4)
    assert cartesian_bounds(path_graph(4), path_graph(4)) == (8, 12)
    assert cartesian_bounds(cycle_graph(6), cycle_graph(6)) == (12, 30)
    # orientation normalized: smaller factor first gives the same answer
    assert cartesian_bounds(complete_graph(2), complete_graph(3)) == (4, 4)


def test_block_graph_value_examples():
    assert block_graph_value(BOWTIE) == 4
    tree = random_tree(9, seed=71)
    leaves = sum(1 for v in range(tree.n) if tree.degree(v) == 1)
    assert block_graph_value(tree) == leaves
    assert block_graph_value(path_graph(5)) == 2
    with pytest.raises(NotBlockGraphError):
        block_graph_value(cycle_graph(4))
    with pytest.raises(CompleteGraphError):
        block_graph_value(complete_graph(4))


def test_block_graph_value_matches_solver():
    for i in range(6):
        g = random_block_graph(9, seed=200 + i)
        assert block_graph_value(g) == vv_exact(g).value


def test_eccentricity_bound_rounding(small_graphs):
    rng = random.Random(73)
    for g in rng.sample(small_graphs, 40):
        x = rng.randrange(g.n)
        rep = bounds_report(g, x=x)
        from vertexvis.graph import bfs_root_view

        ecc = bfs_root_view(g, x).ecc
        assert entry(rep, "eccentricity_lower").value == math.ceil((g.n - 1) / ecc)
