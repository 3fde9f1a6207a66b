"""Census gate: every connected graph on 2-7 vertices, every root.

The graph atlas (995 connected graphs, 6,780 roots) ships inside networkx,
so nothing is downloaded.  Each test reads one shared census: vx_exact,
vx_brute, vx_greedy and bounds_report at every root, vv_exact per graph.
Every bound checked must also be attained somewhere in the atlas, so a
bound moved by one in its unsafe direction fails here.
"""

from collections import Counter

import networkx as nx
import pytest

from vertexvis.bounds import block_graph_value, bounds_report, characterize_extremal
from vertexvis.graph import Graph, is_block_graph
from vertexvis.solvers import max_leaf_spanning_tree, vv_exact, vx_brute, vx_exact, vx_greedy
from vertexvis.visibility import has_universal_vertex, is_x_visibility_set


class Case:
    """One atlas graph with its per-root solves and reports."""

    def __init__(self, g: Graph):
        self.g = g
        self.exact = [vx_exact(g, x) for x in range(g.n)]
        self.brute = [vx_brute(g, x) for x in range(g.n)]
        self.greedy = [vx_greedy(g, x) for x in range(g.n)]
        self.reports = [bounds_report(g, x, compute_mu=True) for x in range(g.n)]
        self.values = [res.value for res in self.exact]
        self.vv = max(self.values)


@pytest.fixture(scope="module")
def census() -> list[Case]:
    cases = [
        Case(Graph(a.number_of_nodes(), a.edges()))
        for a in nx.graph_atlas_g()
        if a.number_of_nodes() >= 2 and nx.is_connected(a)
    ]
    assert len(cases) == 995 and sum(case.g.n for case in cases) == 6780
    return cases


def test_exact_matches_brute_force_at_every_root(census):
    for case in census:
        assert case.values == [res.value for res in case.brute], case.g.adj


def test_exact_and_greedy_witnesses_are_visibility_sets(census):
    for case in census:
        g = case.g
        for x, (exact, greedy) in enumerate(zip(case.exact, case.greedy)):
            assert len(exact.witness) == exact.value and len(greedy.witness) == greedy.value
            assert is_x_visibility_set(g, x, exact.witness), (g.adj, x)
            assert is_x_visibility_set(g, x, greedy.witness), (g.adj, x)
            assert greedy.value <= exact.value


def test_every_bound_holds_at_its_scope_and_is_attained(census):
    """vx entries bound the root's value and are counted per root; vv
    entries, the same at every root, bound the maximum and are counted per
    graph.  degree_order_upper applies exactly when no vertex is universal."""
    attained, checked = Counter(), Counter()
    for case in census:
        no_universal = has_universal_vertex(case.g) is None
        for x, report in enumerate(case.reports):
            for entry in report.entries:
                if entry.name == "degree_order_upper":
                    assert entry.applicable == no_universal, (case.g.adj, x)
                if not entry.applicable or (entry.scope == "vv" and x > 0):
                    continue
                truth = case.values[x] if entry.scope == "vx" else case.vv
                if entry.kind == "lower":
                    assert entry.value <= truth, (case.g.adj, x, entry)
                else:
                    assert entry.value >= truth, (case.g.adj, x, entry)
                checked[entry.name] += 1
                attained[entry.name] += entry.value == truth
    assert set(checked) == {
        "order_upper", "max_degree_lower", "degree_order_upper", "mutual_visibility_lower",
        "max_distant_lower", "stress_upper", "eccentricity_lower", "eccentricity_upper",
    }
    assert all(attained[name] > 0 for name in checked), attained


def test_vv_is_the_maximum_at_its_smallest_root(census):
    for case in census:
        res = vv_exact(case.g)
        assert (res.value, res.root) == (case.vv, case.values.index(case.vv)), case.g.adj
        assert is_x_visibility_set(case.g, res.root, res.witness)


def test_characterize_extremal_names_the_top_two_values(census):
    for case in census:
        kind = characterize_extremal(case.g)
        assert (kind == "top") == (case.vv == case.g.n - 1), case.g.adj
        assert (kind == "second") == (case.vv == case.g.n - 2), case.g.adj


def test_max_leaf_and_block_graph_values_against_vv(census):
    blocks = 0
    for case in census:
        g = case.g
        if g.n >= 3:
            assert max_leaf_spanning_tree(g).value >= case.vv, g.adj
        if is_block_graph(g) and g.m < g.n * (g.n - 1) // 2:
            assert block_graph_value(g) == case.vv, g.adj
            blocks += 1
    assert blocks > 0
