"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Exact per-root solutions are cached module-wide so the bound and
formula criteria reuse the work done by the oracle-equivalence criterion.
"""

import math
import random
import time

import pytest

from vertexvis.bounds import (
    bounds_report,
    characterize_extremal,
    closed_form,
    closed_form_notes,
)
from vertexvis.generators import (
    FamilySpec,
    cartesian_product,
    complete_graph,
    complete_product,
    cycle_graph,
    figure_family,
    generate,
    np_gadget,
    random_block_graph,
    random_connected_graph,
    random_graph_no_isolated,
    random_tree,
)
from vertexvis.graph import bfs_root_view, is_geodetic
from vertexvis.solvers import (
    max_leaf_spanning_tree,
    mu_brute,
    vv_exact,
    vx_brute,
    vx_exact,
)
from vertexvis.visibility import (
    is_x_visibility_set,
    maximally_distant,
    stress_vertices,
    simplicial_vertices,
)
from vertexvis.witnesses import witness_for

from oracles import diameter, independence_number

_exact_cache: dict[int, list[int]] = {}


def exact_all_roots(g) -> list[int]:
    """Exact visibility number per root, cached by graph identity."""
    key = id(g)
    if key not in _exact_cache:
        _exact_cache[key] = [vx_exact(g, x).value for x in range(g.n)]
    return _exact_cache[key]


@pytest.fixture(scope="module")
def corpus(small_graphs, random_corpus):
    return small_graphs + random_corpus


def test_criterion_1_oracle_equivalence(corpus, small_graphs):
    start = time.monotonic()
    checked = 0
    for g in corpus:
        exact = exact_all_roots(g)
        for x in range(g.n):
            brute = vx_brute(g, x).value
            assert exact[x] == brute, (g, x, exact[x], brute)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"criterion 1 took {elapsed:.0f}s"
    print(
        f"\n[criterion 1] PASS - exact == brute at {checked} roots over "
        f"{len(corpus)} graphs ({len(small_graphs)} exhaustive <=5, 200 random 6..10) "
        f"in {elapsed:.1f}s"
    )


DESK_VALUES = [
    ("grid", 4, 9),
    ("grid", 5, 14),
    ("prism", 4, 9),
    ("prism", 5, 14),
    ("torus", 4, 9),
    ("torus", 5, 12),
]


def test_criterion_2_desk_scale_table():
    for family, n, want in DESK_VALUES:
        g = generate(FamilySpec(family, (n,)))
        start = time.monotonic()
        got = vv_exact(g).value
        elapsed = time.monotonic() - start
        assert got == want, (family, n, got, want)
        assert elapsed < 600, (family, n, elapsed)
    print("[criterion 2] PASS - grid/prism/torus at n in {4,5} match exactly")


def test_criterion_2_extended_grid_prism():
    assert vv_exact(generate(FamilySpec("grid", (6,)))).value == 20
    assert vv_exact(generate(FamilySpec("prism", (6,)))).value == 19
    print("[criterion 2 extended] PASS - grid(6)=20, prism(6)=19")


def test_criterion_2_closed_forms_to_12():
    cases = [("path", n) for n in range(2, 13)]
    cases += [("cycle", n) for n in range(3, 13)]
    cases += [("complete", n) for n in range(2, 13)]
    cases += [("grid", n) for n in range(4, 13)]
    cases += [("prism", n) for n in range(4, 13)]
    cases += [("torus", n) for n in range(5, 12, 2)]
    for family, n in cases:
        spec = FamilySpec(family, (n,))
        got = vv_exact(generate(spec)).value
        assert got == closed_form(spec), (family, n, got)
        assert not closed_form_notes(spec)
    # even torus: the exact value exceeds the tabulated one (see the note)
    for n in (8, 10, 12):
        spec = FamilySpec("torus", (n,))
        got = vv_exact(generate(spec)).value
        assert got == (n * n + n - 2) // 2 > closed_form(spec), (n, got)
        assert closed_form_notes(spec)
    print(
        "[criterion 2 closed forms] PASS - path/cycle/complete up to n=12, "
        "grid/prism n=4..12 and odd torus n=5..11 match the closed form; even "
        "torus n=8,10,12 give (n^2+n-2)/2"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the tabulated even-torus value 19 at n=6 is only a lower bound: the "
        "exact solver finds 20, and the 20-vertex set re-verifies by "
        "independent path enumeration (see closed_form_notes for torus)"
    ),
)
def test_criterion_2_extended_torus():
    assert vv_exact(generate(FamilySpec("torus", (6,)))).value == 19


def test_criterion_3_witnesses_4_to_12():
    start = time.monotonic()
    for family in ("grid", "prism", "torus"):
        for n in range(4, 13):
            w = witness_for(family, n)
            assert w.verified
            want = closed_form(FamilySpec(family, (n,)))
            assert len(w.members) == want, (family, n, len(w.members), want)
            assert is_x_visibility_set(w.graph, w.root, w.members)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"criterion 3 took {elapsed:.0f}s"
    print(
        f"[criterion 3] PASS - 27 witnesses verified at tabulated sizes "
        f"in {elapsed:.1f}s"
    )


def test_criterion_4_figure_family():
    g, labels = figure_family(1)
    assert vx_exact(g, labels["x"]).value == 10
    assert vx_exact(g, labels["y"][0]).value == 10
    assert vx_exact(g, labels["z"][0]).value == 10
    assert vx_exact(g, labels["a"][0]).value == 9
    assert vx_exact(g, labels["b"][0]).value == 8
    assert vx_exact(g, labels["c"][0]).value == 8
    assert vv_exact(g).value == 10
    ml1 = max_leaf_spanning_tree(g).value
    assert ml1 == 11
    g2, _ = figure_family(2)
    assert vv_exact(g2).value == 20
    ml2 = max_leaf_spanning_tree(g2).value
    assert ml2 == 22
    # the leaf-count gap grows linearly with the number of copies
    assert ml1 - 10 == 1 and ml2 - 20 == 2
    print(
        "[criterion 4] PASS - one copy: vv=10 at the three hubs, 9/8/8 at "
        "a/b/c, maxleaf=11; two copies: vv=20, maxleaf=22"
    )


def test_criterion_5_reduction_identity():
    rng = random.Random(20240605)
    bases = []
    for i in range(25):
        n = rng.randint(4, 9)
        p = rng.uniform(0.3, 0.7)
        bases.append(random_graph_no_isolated(n, p, seed=2000 + i))
    # larger bases, whose vertex-cover group the search has to branch on
    for i, n in enumerate(range(20, 31, 2)):
        bases.append(random_connected_graph(n, 8 / (n - 1), 3000 + i))
    for i, g in enumerate(bases):
        red = np_gadget(g)
        assert diameter(red.gprime) == 2
        apex_value = vx_exact(red.gprime, red.apex).value
        want = g.m + independence_number(g)
        assert apex_value == want, (i, g.n, apex_value, want)
    print(
        "[criterion 5] PASS - apex visibility equals edge count plus "
        "independence number on 31 gadgets, all of diameter 2"
    )


def test_criterion_6_bound_sandwich(corpus):
    violations = 0
    for g in corpus:
        per_root = exact_all_roots(g)
        roots = range(g.n) if g.n == 2 else [v for v in range(g.n) if g.degree(v) > 1]
        vv = max(per_root[x] for x in roots)
        n, delta = g.n, g.max_degree()
        rep = bounds_report(g)
        for e in rep.entries:
            if not e.applicable or e.scope != "vv":
                continue
            if e.kind == "lower" and not e.value <= vv:
                violations += 1
            if e.kind == "upper" and not vv <= e.value:
                violations += 1
        label = characterize_extremal(g)
        if (vv == n - 1) != (label == "top"):
            violations += 1
        if (vv == n - 2) != (label == "second"):
            violations += 1
        for x in range(g.n):
            vx = per_root[x]
            ecc = bfs_root_view(g, x).ecc
            if not len(maximally_distant(g, x)) <= vx:
                violations += 1
            if not vx <= n - len(stress_vertices(g, x)) - 1:
                violations += 1
            if not math.ceil((n - 1) / ecc) <= vx:
                violations += 1
            if not vx <= n - ecc:
                violations += 1
            if g.n >= 3 and g.degree(x) == 1 and not vx < vv:
                violations += 1
    assert violations == 0
    print(
        f"[criterion 6] PASS - zero bound/characterization/leaf-root "
        f"violations across {len(corpus)} graphs"
    )


def test_criterion_7_structure_formulas(corpus):
    geodetic_graphs = [g for g in corpus if is_geodetic(g)]
    geodetic_graphs += [random_tree(n, seed=300 + n) for n in range(6, 13)]
    for g in geodetic_graphs:
        per_root = (
            exact_all_roots(g)
            if id(g) in _exact_cache
            else [vx_exact(g, x).value for x in range(g.n)]
        )
        for x in range(g.n):
            assert per_root[x] == len(maximally_distant(g, x)), (g, x)
    block_checked = 0
    for i in range(20):
        n = 8 + i % 7  # 8..14
        g = random_block_graph(n, seed=3000 + i)
        s = len(simplicial_vertices(g))
        assert vv_exact(g).value == s, (i, n)
        block_checked += 1
    for m, n, want in [(3, 2, 4), (4, 3, 9)]:
        g = complete_product(m, n)
        assert vv_exact(g).value == want == closed_form(FamilySpec("kxk", (m, n)))
        assert closed_form_notes(FamilySpec("kxk", (m, n)))  # discrepancy surfaced
    print(
        f"[criterion 7] PASS - maximally-distant counts on {len(geodetic_graphs)} "
        f"geodetic graphs, simplicial counts on {block_checked} block graphs, "
        f"complete products 4 and 9 with the note attached"
    )


def test_criterion_8_mu_crosscheck(corpus, small_graphs):
    k2c6 = cartesian_product(complete_graph(2), cycle_graph(6))
    assert mu_brute(k2c6) == 6
    assert max(mu_brute(k2c6) - 1, k2c6.max_degree()) <= vv_exact(k2c6).value
    checked = 0
    mu_targets = small_graphs + corpus[len(small_graphs):][:30]
    for g in mu_targets:
        mu = mu_brute(g)
        per_root = exact_all_roots(g)
        roots = range(g.n) if g.n == 2 else [v for v in range(g.n) if g.degree(v) > 1]
        vv = max(per_root[x] for x in roots)
        assert max(mu - 1, g.max_degree()) <= vv, (g, mu, vv)
        checked += 1
    print(
        f"[criterion 8] PASS - mu(K_2 box C_6) = 6 and the general lower "
        f"bound held on {checked} graphs with mu computed"
    )
