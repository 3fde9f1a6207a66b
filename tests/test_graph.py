import random
import re
import time

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vertexvis import graph
from vertexvis.errors import (
    DisconnectedError,
    DuplicateEdgeError,
    GraphFormatError,
    IdOutOfRangeError,
    SelfLoopError,
    SolveTimeoutError,
    TooLargeError,
    VertexVisError,
)
from vertexvis.generators import (
    cartesian_product,
    cocktail_party,
    complete_graph,
    cycle_graph,
    grid_graph,
    np_gadget,
    path_graph,
    random_connected_graph,
    random_tree,
)
from vertexvis.graph import (
    MAX_FILE_VERTICES,
    Graph,
    _parse_lines,
    bfs_distances,
    bfs_root_view,
    connected_view,
    format_graph,
    interval,
    is_block_graph,
    is_connected,
    is_geodetic,
    mask_to_set,
    parse_graph,
    read_graph_file,
    to_external_ids,
)

from oracles import (
    adjacency_by_pair_set,
    format_graph_reference,
    all_shortest_paths,
    bfs_dist,
    live_root_views,
    unique_geodesics_by_paths,
)

BOWTIE = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])


def test_build_singleton():
    g = Graph(1, [])
    assert g.n == 1 and g.m == 0


def test_equal_graphs_hash_equal():
    a = Graph(4, [(0, 1), (1, 2), (2, 3)])
    b = Graph(4, [(2, 3), (1, 0), (2, 1)])
    c = Graph(4, [(0, 1), (1, 2), (0, 3)])
    assert a == b and hash(a) == hash(b) and a != c
    seen = {a: "path"}
    assert seen[b] == "path" and c not in seen
    assert len({a, b, c}) == 2


def test_build_path():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.max_degree() == 2
    assert g.adj[1] == (0, 2)


def test_build_cocktail_counts():
    g = cocktail_party(3)
    assert g.m == 12 and g.max_degree() == 4


@st.composite
def edge_lists(draw):
    """(n, edges): a simple graph's edges in random order and orientation,
    sometimes with one bad edge inserted (a repeat in either orientation, a
    self-loop, or an id out of range)."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [
        (v, u) if draw(st.booleans()) else (u, v)
        for u, v in draw(st.lists(st.sampled_from(pairs), unique=True))
    ] if pairs else []
    kind = draw(st.sampled_from(("none", "repeat", "flipped", "loop", "range")))
    if kind in ("repeat", "flipped") and edges:
        u, v = draw(st.sampled_from(edges))
        bad = (u, v) if kind == "repeat" else (v, u)
    elif kind == "loop":
        bad = (draw(st.integers(0, n - 1)),) * 2
    elif kind == "range":
        bad = (draw(st.integers(0, n - 1)), draw(st.sampled_from((-1, n))))
    else:
        return n, edges
    edges.insert(draw(st.integers(0, len(edges))), bad)
    return n, edges


@given(edge_lists())
@settings(max_examples=500, deadline=None)
def test_build_matches_pair_set_reference(case):
    n, edges = case
    try:
        expected = adjacency_by_pair_set(n, edges)
    except VertexVisError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            Graph(n, edges)
        return
    g = Graph(n, edges)
    assert (g.adj, g.adj_mask, g.m) == expected


def test_build_rejects_bad_input():
    with pytest.raises(SelfLoopError):
        Graph(3, [(0, 0)])
    with pytest.raises(DuplicateEdgeError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(IdOutOfRangeError):
        Graph(3, [(0, 3)])
    with pytest.raises(IdOutOfRangeError):
        Graph(0, [])


def test_build_caps_the_vertex_count():
    assert Graph(MAX_FILE_VERTICES, []).n == MAX_FILE_VERTICES
    with pytest.raises(TooLargeError, match="above the limit of 20000 vertices"):
        Graph(MAX_FILE_VERTICES + 1, iter(()))


def test_bfs_path_end():
    rv = bfs_root_view(path_graph(4), 0)
    assert rv.dist == (0, 1, 2, 3)
    assert rv.ecc == 3
    assert rv.order == (0, 1, 2, 3)
    assert rv.starts == (0, 1, 2, 3, 4)


def test_bfs_cycle_antipode():
    rv = bfs_root_view(cycle_graph(6), 2)
    assert rv.ecc == 3
    assert rv.order[rv.starts[3]:rv.starts[4]] == (5,)


def test_bfs_grid_corner():
    g = cartesian_product(path_graph(4), path_graph(4))
    assert bfs_root_view(g, 0).ecc == 6


def test_root_view_invariants(small_graphs):
    for g in small_graphs:
        for x in range(g.n):
            rv = bfs_root_view(g, x)
            assert sorted(rv.order) == list(range(g.n))
            assert len(rv.starts) == rv.ecc + 2 and rv.starts[-1] == g.n
            for d in range(rv.ecc + 1):
                layer = rv.order[rv.starts[d]:rv.starts[d + 1]]
                assert layer and all(rv.dist[v] == d for v in layer)
            for v in range(g.n):
                preds = mask_to_set(rv.dag_in_mask[v])
                assert rv.dag_in[v] == tuple(sorted(preds))
                if v == x:
                    assert not preds
                    continue
                assert preds
                for u in preds:
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
            assert mask_to_set(rv.dag_in_mask[y]) == penultimate


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


def test_is_connected_matches_bfs_and_builds_no_root_view(monkeypatch):
    # every root view is built by graph.bfs_root_view; count its calls
    built = []
    monkeypatch.setattr(graph, "bfs_root_view",
                        lambda g, x: built.append(x) or bfs_root_view(g, x))
    rng = random.Random(20261018)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(1, 150)
        p = rng.choice((0.5, 1.0, 2.0, 4.0, 8.0)) / n
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = Graph(n, edges)
        built.clear()
        connected = is_connected(g)
        assert built == []
        assert connected == (len(bfs_dist(g, 0)) == n), (n, edges)
        # connected_view reads the same answer off the one view it builds
        h = Graph(n, edges)
        if connected:
            view = connected_view(h, n - 1)
            assert view.root == n - 1 and len(view.order) == n
        else:
            with pytest.raises(DisconnectedError):
                connected_view(h, n - 1)
        assert built == [n - 1]
        outcomes[connected] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_bfs_distances_match_networkx():
    # seeded G(n, p) graphs, n = 1 and disconnected ones included
    rng = random.Random(20261018)
    for n in [1] + [rng.randint(1, 40) for _ in range(150)]:
        p = rng.choice((0.5, 1.0, 2.0, 4.0)) / n
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        h = nx.Graph(list(g.edges()))
        h.add_nodes_from(range(g.n))
        assert is_connected(g) == nx.is_connected(h)
        for x in range(0, g.n, 3):
            reach = nx.single_source_shortest_path_length(h, x)
            expected = [reach.get(v, -1) for v in range(g.n)]
            dist, order = bfs_distances(g, x)
            assert dist == expected
            assert sorted(order) == sorted(reach) and order[0] == x
            assert all(dist[u] <= dist[v] for u, v in zip(order, order[1:]))
            placed = {x}
            for v in order[1:]:
                assert any(dist[u] == dist[v] - 1 and u in placed for u in g.adj[v])
                placed.add(v)
            assert bfs_root_view(g, x).dist == tuple(expected)


def test_geodetic_examples():
    assert is_geodetic(random_tree(9, seed=3))
    assert not is_geodetic(cycle_graph(4))
    assert is_geodetic(cycle_graph(5))


def test_geodetic_matches_path_enumeration(small_graphs):
    for g in small_graphs:
        assert is_geodetic(g) == unique_geodesics_by_paths(g)


def test_geodetic_adds_no_root_view():
    g = random_tree(300, seed=5)
    bfs_root_view(g, 7)
    before = live_root_views()
    assert is_geodetic(g)
    assert live_root_views() <= before
    h = cycle_graph(6)
    assert not is_geodetic(h) and live_root_views() <= before + 1


def test_interval_builds_no_root_view():
    # interval reads distances only: it builds no root view
    g = random_tree(300, seed=0)
    view = bfs_root_view(g, 7)
    before = live_root_views()
    for v in range(g.n - 1):
        assert interval(g, v, v + 1) == interval(g, v + 1, v)
    assert live_root_views() <= before


def test_block_graph_examples():
    assert is_block_graph(BOWTIE)
    assert not is_block_graph(cycle_graph(4))
    assert is_block_graph(random_tree(10, seed=5))
    assert is_block_graph(complete_graph(5))


def test_external_id_round_trip():
    assert to_external_ids({0, 2, 5}) == [1, 3, 6]


def test_graph_file_round_trip():
    g = cocktail_party(3)
    text = format_graph(g, comment="round trip")
    again = parse_graph(text)
    assert again == g


def test_format_graph_matches_the_per_edge_reference():
    rng = random.Random(18)
    sparse = [Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.1])
              for n in range(2, 40, 3)]  # isolated vertices and vertices with no later neighbor
    cases = sparse + [
        path_graph(1),
        path_graph(7),
        cycle_graph(9),
        complete_graph(6),
        cocktail_party(4),
        grid_graph(6),
        random_tree(200, seed=3),
        np_gadget(cycle_graph(3)).gprime,
        np_gadget(random_connected_graph(30, 0.2, 4)).gprime,
    ]
    for g in cases:
        for comment in (None, "", "one line", "first\nsecond\n\nfourth\n"):
            assert format_graph(g, comment) == format_graph_reference(g, comment), (g, comment)


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


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


GAPS = st.text(alphabet=" \t", min_size=1, max_size=3)
FILLER = st.sampled_from(("", "  ", "\t", "c", "c a comment", "  c indented", "comment"))


@given(graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_parse_round_trip_through_noise(g, data):
    text = format_graph(g, comment="written by format_graph")
    again = parse_graph(text)
    assert again == g and again.adj_mask == g.adj_mask and again.m == g.m
    draw = data.draw
    lines = text.splitlines()
    head = [line for line in lines if not line.startswith("e")]
    out = []
    for line in head + draw(st.permutations(lines[len(head):])):
        out.extend(draw(st.lists(FILLER, max_size=2)))
        tokens = line.split()
        if tokens[0] == "e" and draw(st.booleans()):
            tokens[1], tokens[2] = tokens[2], tokens[1]
        lead = draw(st.sampled_from(("", " ", "\t ")))
        out.append(lead + "".join(t + draw(GAPS) for t in tokens))
    eol = draw(st.sampled_from(("\n", "\r\n")))
    noisy = eol.join(out) + draw(st.sampled_from(("", eol, eol + eol)))
    again = parse_graph(noisy)
    assert again == g and again.adj_mask == g.adj_mask and again.m == g.m


MUTATION_PIECES = [*"0123456789 \t\r\n\x0b\x1cepcq-+_x.\u0661", "1", "2", "01", "-1", "20001", "e", "p"]
MUTATIONS = ("insert", "delete", "replace", "token", "repeat line")
# line ends of str.splitlines() that a graph file reads as token separators
LINE_BREAK_PIECES = ["\x0c", "\x1d", "\x1e", "\x85", "\u2028"]


def mutate(text: str, op: str, pos: int, piece: str) -> str:
    """text with one edit at a position taken modulo its length."""
    i = pos % (len(text) + 1)
    if op == "insert":
        return text[:i] + piece + text[i:]
    if op == "delete":
        return text[:i] + text[i + 1:]
    if op == "replace":
        return text[:i] + piece + text[i + 1:]
    if op == "token":
        parts = re.split(r"(\s+)", text)
        parts[2 * (pos % ((len(parts) + 1) // 2))] = piece
        return "".join(parts)
    if op == "drop final newline":
        return text[:-1]
    lines = text.splitlines(keepends=True)
    if not lines:
        return text
    j = pos % len(lines)
    if op == "repeat line":
        lines.insert(j, lines[j])
    elif op == "blank line":
        lines.insert(j, "\n")
    elif op == "indent":
        lines[j] = " \t"[pos % 2] + lines[j]
    else:  # "e as id": the first or second id of an edge line becomes "e"
        edges = [k for k, line in enumerate(lines)
                 if line.startswith("e ") and len(line.split()) >= 3]
        if edges:
            k = edges[pos % len(edges)]
            tokens = lines[k].split()
            tokens[1 + pos % 2] = "e"
            lines[k] = " ".join(tokens) + "\n"
    return "".join(lines)


@given(
    graphs(max_n=6),
    st.lists(
        st.tuples(
            st.sampled_from(MUTATIONS),
            st.integers(0, 10**6),
            st.sampled_from(MUTATION_PIECES),
        ),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=500, deadline=None)
def test_parse_mutated_files_parse_or_raise_format_error(g, mutations):
    text = format_graph(g)
    for op, pos, piece in mutations:
        text = mutate(text, op, pos, piece)
    try:
        h = parse_graph(text)
    except GraphFormatError:
        return
    assert h.m == sum(map(len, h.adj)) // 2
    for v, nb in enumerate(h.adj):
        assert list(nb) == sorted(set(nb)) and v not in nb
        assert all(v in h.adj[u] for u in nb)
        assert h.adj_mask[v] == sum(1 << u for u in nb)


def parse_outcome(parse, text):
    """(adj, adj_mask, m) of the parsed graph, or the error message."""
    try:
        g = parse(text)
    except GraphFormatError as exc:
        return str(exc)
    return g.adj, g.adj_mask, g.m


@st.composite
def dense_graphs(draw):
    """Graphs with m >= 2n, which parse_graph reads as one token stream."""
    n = draw(st.integers(5, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    dropped = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs) - 2 * n))
    return Graph(n, [pair for pair in pairs if pair not in dropped])


@given(
    st.one_of(graphs(max_n=8), dense_graphs()),
    st.sampled_from((None, "written by format_graph")),
    st.sampled_from(MUTATIONS + ("drop final newline", "blank line", "indent", "e as id")),
    st.integers(0, 10**6),
    st.sampled_from(MUTATION_PIECES + LINE_BREAK_PIECES),
)
@settings(max_examples=1000, deadline=None)
def test_parse_matches_the_line_loop_on_single_mutations(g, comment, op, pos, piece):
    """parse_graph reads dense canonical files as one token stream; on every
    file one edit away from canonical it must agree with the line loop."""
    text = mutate(format_graph(g, comment), op, pos, piece)
    assert parse_outcome(parse_graph, text) == parse_outcome(_parse_lines, text)


def test_e_as_id_skips_edge_lines_without_two_ids():
    # an earlier edit can leave an "e" line of fewer than three tokens
    assert mutate("p 3 1\ne 1\n", "e as id", 1, "") == "p 3 1\ne 1\n"
    assert mutate("p 3 2\ne 1\ne 1 2\n", "e as id", 1, "") == "p 3 2\ne 1\ne 1 e\n"


@given(
    st.one_of(graphs(max_n=8), dense_graphs()),
    st.sampled_from((None, "written by format_graph")),
    st.lists(
        st.tuples(
            st.sampled_from(MUTATIONS + ("drop final newline", "blank line", "indent", "e as id")),
            st.integers(0, 10**6),
            st.sampled_from(MUTATION_PIECES + LINE_BREAK_PIECES),
        ),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=500, deadline=None)
def test_parse_matches_the_line_loop_on_chained_mutations(g, comment, edits):
    """Both parse routes agree on files up to three edits away from canonical."""
    text = format_graph(g, comment)
    for op, pos, piece in edits:
        text = mutate(text, op, pos, piece)
    assert parse_outcome(parse_graph, text) == parse_outcome(_parse_lines, text)


def clique_with_paths(k: int, lengths) -> Graph:
    """K_k with a pendant path of each given length hung on clique vertex 0,
    1, ...: clique vertices are dense and path vertices sparse in the
    token route's sense."""
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    n = k
    for i, length in enumerate(lengths):
        for j in range(length):
            edges.append((i if j == 0 else n - 1, n))
            n += 1
    return Graph(n, edges)


def count_row_masks(monkeypatch) -> list:
    """A list that grows by one for each mask the token route reads from a
    byte row (its ``int(row, 2)``)."""
    rows = []

    def counting_int(value, *base):
        if base == (2,):
            rows.append(value)
        return int(value, *base)

    monkeypatch.setattr(graph, "int", counting_int, raising=False)
    return rows


def test_both_mask_builds_round_trip(monkeypatch):
    monkeypatch.setattr(graph, "_parse_lines", None)
    rows = count_row_masks(monkeypatch)
    rng = random.Random(25)
    bases = [random_connected_graph(n, 9 / (n - 1), rng.randrange(1 << 30)) for n in (40, 50, 60)]
    cases = [np_gadget(base).gprime for base in bases]
    cases.append(clique_with_paths(12, (3, 5, 8)))
    for g in cases:
        dense = sum(len(nb) * graph._ROW_DEGREE >= g.n for nb in g.adj)
        assert 0 < dense < g.n
        del rows[:]
        h = parse_graph(format_graph(g))
        assert (h.n, h.m, h.adj, h.adj_mask) == (g.n, g.m, g.adj, g.adj_mask)
        assert len(rows) == dense


@st.composite
def faulty_dense_files(draw):
    """A canonical file of a clique with four pendant paths (n > 32,
    m >= 2n) in which one edge line is replaced by a repeated edge or a
    self-loop, placed on clique (dense) vertices or path (sparse) ones."""
    k = draw(st.integers(12, 13))
    g = clique_with_paths(k, draw(st.lists(st.integers(6, 7), min_size=4, max_size=4)))
    lines = format_graph(g).splitlines(keepends=True)
    dense = draw(st.booleans())
    if draw(st.booleans()):  # self-loop
        v = draw(st.integers(0, k - 1) if dense else st.integers(k, g.n - 1))
        ends = [v, v]
    else:
        edges = [(u, v) for u, v in g.edges() if (u < k, v < k) == (dense, dense)]
        ends = list(draw(st.permutations(draw(st.sampled_from(edges)))))
    j = draw(st.integers(1, len(lines) - 1))
    assume(sorted(map(int, lines[j].split()[1:])) != sorted(w + 1 for w in ends))
    lines[j] = f"e {ends[0] + 1} {ends[1] + 1}\n"
    ids = " ".join(lines[1:]).split()
    for w in ends:  # the faulty lists take the build the case names
        assert (ids.count(str(w + 1)) * graph._ROW_DEGREE >= g.n) == dense
    return "".join(lines)


@given(faulty_dense_files())
@settings(max_examples=300, deadline=None)
def test_parse_words_mask_faults_like_the_line_loop(text):
    """A repeated edge or self-loop that reaches the token route's masks,
    on a vertex of either build, is worded exactly as the line loop words
    it."""
    outcome = parse_outcome(parse_graph, text)
    assert isinstance(outcome, str)
    assert outcome == parse_outcome(_parse_lines, text)


@pytest.mark.parametrize("text, message", [
    ("e 1 2\n", "line 1: edge before 'p' header"),
    ("c x\np 3 1\np 3 1\n", "line 3: second 'p' header"),
    ("p 3\n", "line 1: expected 'p <n> <m>'"),
    ("p 3 x\n", "line 1: bad header numbers"),
    ("p 0 0\n", f"line 1: n=0 outside 1..{MAX_FILE_VERTICES}"),
    (f"p {MAX_FILE_VERTICES + 1} 0\n",
     f"line 1: n={MAX_FILE_VERTICES + 1} outside 1..{MAX_FILE_VERTICES}"),
    ("p 10000000000 1\n", f"line 1: n=10000000000 outside 1..{MAX_FILE_VERTICES}"),
    ("p 3 -1\n", "line 1: m=-1 outside 0..3 for n=3"),
    ("p 3 4\n", "line 1: m=4 outside 0..3 for n=3"),
    ("p 3 1\ne 1\n", "line 2: expected 'e <u> <v>'"),
    ("p 3 1\ne 1 2 3\n", "line 2: expected 'e <u> <v>'"),
    ("p 3 1\ne 1 x\n", "line 2: bad edge id 'x'"),
    ("p 3 1\ne 1 4\n", "line 2: edge id 4 outside 1..3"),
    ("p 3 1\ne 0 1\n", "line 2: edge id 0 outside 1..3"),
    ("p 3 1\n\ne 3 3\n", "line 3: self-loop at vertex 3"),
    ("p 3 2\ne 1 2\x0b\ne 3 3\n", "line 3: self-loop at vertex 3"),
    ("p 3 2\ne 1 2\ne 2 1\n", "line 3: duplicate edge (1,2)"),
    ("p 3 3\ne 2 3\nc x\ne 1 2\ne 03 +2\n", "line 5: duplicate edge (2,3)"),
    ("p 3 1\nq 1 2\n", "line 2: unknown record 'q'"),
    ("c only a comment\n", "missing 'p <n> <m>' header"),
    ("p 3 2\ne 1 2\n", "header declares 2 edges, file has 1"),
])
def test_parse_errors_name_line_and_one_based_ids(text, message):
    with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
        parse_graph(text)


# a canonical file of 360 edges; line 1 is the header, line 181 an edge
MID_FILE = format_graph(Graph(120, [(i, (i + d) % 120) for d in (1, 2, 5) for i in range(120)]))


def test_parse_reads_dense_format_graph_output_without_the_line_loop(monkeypatch):
    monkeypatch.setattr(graph, "_parse_lines", None)
    dense = (complete_graph(300), cocktail_party(5), parse_graph(MID_FILE))
    for g in (*dense, random_connected_graph(60, 0.2, seed=1)):
        for comment in (None, "two\ncomment lines"):
            h = parse_graph(format_graph(g, comment))
            assert h == g and h.adj_mask == g.adj_mask and h.m == g.m
    # the header is read alike on both routes, so the body alone picks one
    for text in (MID_FILE.replace("\n", "\r\n"), "\n  c indented\n" + MID_FILE):
        h = parse_graph(text)
        assert h == dense[2] and h.adj_mask == dense[2].adj_mask


@pytest.mark.parametrize("line, fault, message", [
    (181, "e 1", "line 181: expected 'e <u> <v>'"),
    (181, "e 1 2 3", "line 181: expected 'e <u> <v>'"),
    (181, "e 1\x0c2", "line 181: duplicate edge (1,2)"),
    (181, "e 1 60\u20283", "line 181: expected 'e <u> <v>'"),
    (181, "e 1 x", "line 181: bad edge id 'x'"),
    (181, "e 1 e", "line 181: bad edge id 'e'"),
    (181, "e 1 121", "line 181: edge id 121 outside 1..120"),
    (181, "e 0 1", "line 181: edge id 0 outside 1..120"),
    (181, "e 3 3", "line 181: self-loop at vertex 3"),
    (181, "e 2 1", "line 181: duplicate edge (1,2)"),
    (181, "e 03 +2", "line 181: duplicate edge (2,3)"),
    (181, "q 1 2", "line 181: unknown record 'q'"),
    (181, "p 120 360", "line 181: second 'p' header"),
    (181, None, "header declares 360 edges, file has 359"),
    (1, "p 120", "line 1: expected 'p <n> <m>'"),
    (1, "p 120 x", "line 1: bad header numbers"),
    (1, "p 0 0", f"line 1: n=0 outside 1..{MAX_FILE_VERTICES}"),
    (1, "p 120 7141", "line 1: m=7141 outside 0..7140 for n=120"),
])
def test_parse_errors_name_their_line_in_the_middle_of_a_canonical_file(line, fault, message):
    lines = MID_FILE.splitlines()
    lines[line - 1:line] = [] if fault is None else [fault]
    with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
        parse_graph("\n".join(lines) + "\n")


@pytest.mark.parametrize("last, message", [
    ("e 1 60\ne 1\n61", "line 361: expected 'e <u> <v>'"),
    ("e 1 60 e 2 61\ne 3 62\n", "line 360: expected 'e <u> <v>'"),
    ("e 1 60 e\n2 61\n", "line 360: expected 'e <u> <v>'"),
    ("e 1 60\n3 4 60\ne 5 70\n", "line 361: unknown record '3'"),
])
def test_parse_errors_in_the_last_lines_of_a_canonical_file(last, message):
    """Faults that keep some of the counts the token stream checks."""
    head = "".join(MID_FILE.splitlines(keepends=True)[:359])
    with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
        parse_graph(head + last)


@pytest.mark.parametrize("extra, outcome", [
    ("x 1 2", "unknown record 'x'"),
    ("x 1 60", "unknown record 'x'"),  # would add a new edge (1,60)
    ("", None),
    *((f"c note{c}more", None) for c in "\u2028\x85\u2029"),
])
@pytest.mark.parametrize("line", [1, 181, 362], ids=["start", "middle", "end"])
def test_parse_gives_the_line_loop_outcome_with_one_extra_line(extra, outcome, line):
    """One line more than a canonical file's header declares.  An `x` line
    keeps every count the token route checks but the number of lines; a
    blank one leaves a slice short of three tokens a line, and a comment
    holding U+2028, U+0085 or U+2029 stays one line.  Either way
    parse_graph gives what the line loop gives."""
    lines = MID_FILE.splitlines()
    lines.insert(line - 1, extra)
    text = "\n".join(lines) + "\n"
    got = parse_outcome(parse_graph, text)
    assert got == parse_outcome(_parse_lines, text)
    if outcome is None:
        assert got == parse_outcome(parse_graph, MID_FILE)
    else:
        assert got == f"line {line}: {outcome}"


# MID_FILE has m >= 2n and takes the token route; SPARSE_FILE has m < 2n
SPARSE_FILE = format_graph(Graph(120, [(i, (i + 1) % 120) for i in range(120)]))


@pytest.mark.parametrize("text", [MID_FILE, SPARSE_FILE], ids=["token-route", "line-loop"])
def test_parse_refuses_an_expired_deadline(monkeypatch, text):
    if text == MID_FILE:  # the token route must raise itself, not hand over
        monkeypatch.setattr(graph, "_parse_lines", None)
    with pytest.raises(SolveTimeoutError, match="^graph parsing exceeded its time budget$"):
        parse_graph(text, time.monotonic() - 1)


@pytest.mark.parametrize("text", [MID_FILE, SPARSE_FILE], ids=["token-route", "line-loop"])
def test_parse_without_a_deadline_builds_the_same_graph(tmp_path, text):
    path = tmp_path / "g.gr"
    path.write_text(text, encoding="utf-8")
    g = parse_graph(text)
    far = time.monotonic() + 3600
    for h in (parse_graph(text, None), _parse_lines(text, None), read_graph_file(path, None),
              parse_graph(text, far), _parse_lines(text, far)):
        assert (h.n, h.m, h.adj, h.adj_mask) == (g.n, g.m, g.adj, g.adj_mask)


def test_the_line_loop_checks_the_deadline_once_per_block(monkeypatch):
    checks = []
    monkeypatch.setattr(graph, "check_deadline", lambda deadline, what: checks.append(what))
    monkeypatch.setattr(graph, "_BLOCK_LINES", 50)
    _parse_lines(SPARSE_FILE)  # 121 lines: blocks of 50, 50 and 21
    assert checks == ["graph parsing"] * 3


@pytest.mark.parametrize("body", [MID_FILE, SPARSE_FILE, ""],
                         ids=["token-route", "line-loop", "no-header"])
def test_the_header_reader_checks_the_deadline_in_a_long_prelude(monkeypatch, body):
    """60 comment lines hold more than one block of 50, so _header checks
    the deadline before line 51; with no header after them, only that
    check can raise."""
    monkeypatch.setattr(graph, "_BLOCK_LINES", 50)
    text = "c prelude\n" * 60 + body
    for parse in (parse_graph, _parse_lines):
        with pytest.raises(SolveTimeoutError, match="^graph parsing exceeded its time budget$"):
            parse(text, time.monotonic() - 1)


def test_parse_reads_noncanonical_ids_like_int():
    g = parse_graph("p 3 2\ne 01 +2\ne 0_3 2\n")
    assert g == Graph(3, [(0, 1), (1, 2)]) and g.adj_mask == (2, 5, 2)


def test_read_graph_file_rejects_non_utf8(tmp_path):
    path = tmp_path / "binary.gr"
    path.write_bytes(b"p 2 1\n\xff\xfe\n")
    with pytest.raises(GraphFormatError, match="not UTF-8"):
        read_graph_file(path)


BYTE_ORDER_MARK = "\ufeff".encode()


@pytest.mark.parametrize("text", [MID_FILE, "p 3 2\ne 01 +2\ne 0_3 2\n"],
                         ids=["canonical", "noncanonical"])
def test_read_graph_file_skips_one_leading_byte_order_mark(tmp_path, monkeypatch, text):
    plain, marked = tmp_path / "plain.gr", tmp_path / "marked.gr"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(BYTE_ORDER_MARK + text.encode())
    g = read_graph_file(plain)
    if text == MID_FILE:  # the mark must not send a canonical file to the line loop
        monkeypatch.setattr(graph, "_parse_lines", None)
    h = read_graph_file(marked)
    assert (h.n, h.m, h.adj, h.adj_mask) == (g.n, g.m, g.adj, g.adj_mask)


@pytest.mark.parametrize("text, message", [
    ("\ufeffp 3 1\ne 1 2\n", "line 1: unknown record '\\ufeffp'"),
    ("p 3 1\n\ufeffe 1 2\n", "line 2: unknown record '\\ufeffe'"),
    ("p 3 1\ne 1 \ufeff2\n", "line 2: bad edge id '\\ufeff2'"),
])
def test_read_graph_file_refuses_a_byte_order_mark_after_the_start(tmp_path, text, message):
    path = tmp_path / "marked.gr"
    path.write_bytes(BYTE_ORDER_MARK + text.encode())
    with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
        read_graph_file(path)
