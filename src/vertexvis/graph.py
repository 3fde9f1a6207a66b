"""Immutable simple graphs and the BFS distance machinery everything else consumes.

Vertices are integers 0..n-1 inside the library; graph files and the CLI use
1-based ids.  :func:`bfs_distances` is the one BFS discovery loop: hop
distances and the BFS order from one root.  A :class:`RootView` bundles
everything that BFS can tell us: those, the eccentricity, and the DAG of
shortest-path predecessors (``dag_in_mask``).  Shortest-path trees rooted at
x are exactly the ways of assigning each non-root vertex one parent out of
its ``dag_in_mask``, which is why the solvers lean on this structure so
heavily.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import NamedTuple

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    GraphFormatError,
    IdOutOfRangeError,
    InvalidParameterError,
    SelfLoopError,
    TooLargeError,
    check_deadline,
)

__all__ = [
    "Graph",
    "RootView",
    "bfs_distances",
    "bfs_root_view",
    "interval",
    "is_connected",
    "is_geodetic",
    "is_block_graph",
    "require_connected",
    "parse_graph",
    "format_graph",
    "read_graph_file",
    "write_graph_file",
    "to_external_ids",
    "mask_to_set",
]


# largest n of any graph: a `p <n> <m>` header, a family spec, a product or
# Graph() asking for more is refused before anything of size n is allocated
# (adj_mask of a sparse graph takes about n**2 / 16 bytes, so a short file
# or spec must not be able to ask for gigabytes)
MAX_FILE_VERTICES = 20_000


def check_vertex_count(n: int, spec=None) -> None:
    """Refuse n above MAX_FILE_VERTICES, naming the spec when one is given."""
    if n > MAX_FILE_VERTICES:
        head = f"n={n}" if spec is None else f"{spec} has n={n},"
        raise TooLargeError(f"{head} above the limit of {MAX_FILE_VERTICES} vertices")


class Graph:
    """Simple undirected graph with sorted adjacency lists.

    Instances are immutable after construction.  ``adj_mask[v]`` is the
    neighborhood of v as a bitmask; the exponential solvers work on these
    masks directly.  It holds its edges only: a root view, and connectivity,
    are values its callers compute and keep.
    """

    __slots__ = ("n", "m", "adj", "adj_mask")

    def __init__(self, n: int, edges):
        """Build from 0-based edge pairs in one pass.

        A duplicate is caught when bit v of u's mask is already set, so
        ``adj_mask`` is built as the edges arrive and no set of pairs is kept.
        """
        if n < 1:
            raise IdOutOfRangeError(f"graph needs at least one vertex, got n={n}")
        check_vertex_count(n)
        neighbors = [[] for _ in range(n)]
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise IdOutOfRangeError(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            bit = 1 << v
            mu = masks[u]
            if mu & bit:
                raise DuplicateEdgeError(f"duplicate edge ({min(u, v)},{max(u, v)})")
            masks[u] = mu | bit
            masks[v] |= 1 << u
            neighbors[u].append(v)
            neighbors[v].append(u)
        for nb in neighbors:
            nb.sort()
        self._set_adjacency(tuple(map(tuple, neighbors)), masks)

    @classmethod
    def _from_lists(cls, neighbors: list[list[int]], masks: list[int]) -> Graph:
        """A graph over checked neighbor lists and masks (sorts the lists)."""
        for nb in neighbors:
            nb.sort()
        return cls._from_sorted(tuple(map(tuple, neighbors)), masks)

    @classmethod
    def _from_sorted(cls, adj: tuple[tuple[int, ...], ...], masks) -> Graph:
        """A graph over checked sorted neighbor tuples and masks, taken as they are."""
        g = cls.__new__(cls)
        g._set_adjacency(adj, masks)
        return g

    def _set_adjacency(self, adj: tuple[tuple[int, ...], ...], masks) -> None:
        """Take over checked sorted neighbor tuples and their masks."""
        self.n = len(adj)
        self.m = sum(map(len, adj)) // 2
        self.adj = adj
        self.adj_mask = tuple(masks)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max(len(nb) for nb in self.adj)

    def edges(self):
        """Yield edges as ordered pairs (u, v) with u < v, sorted."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise IdOutOfRangeError(f"vertex {v} outside 0..{self.n - 1}")

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj == other.adj
        )

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class RootView(NamedTuple):
    """Everything BFS from one root tells us.

    dist[v] is the hop distance, -1 when v is unreachable.  ``order`` lists
    reachable vertices by nondecreasing distance (root first), so the
    vertices at distance d are a slice of it.  ``dag_in_mask[v]`` is the
    bitmask of the neighbors of v one step closer to the root, i.e. the
    penultimate vertices of all shortest root,v-paths (0 for the root and
    for unreachable vertices).  ``starts[d]`` is where layer d begins in
    ``order``, and ``starts[ecc + 1]`` is ``len(order)``.
    """

    root: int
    dist: tuple[int, ...]
    ecc: int
    order: tuple[int, ...]
    starts: tuple[int, ...]
    dag_in_mask: tuple[int, ...]

    @property
    def dag_in(self) -> tuple[tuple[int, ...], ...]:
        """The sets of ``dag_in_mask`` as ascending tuples, built on each call."""
        return tuple(tuple(sorted(mask_to_set(mask))) for mask in self.dag_in_mask)


def bfs_distances(g: Graph, x: int) -> tuple[list[int], list[int]]:
    """(dist, order) of a BFS from x: dist[v] is the hop distance, -1 when v
    is unreachable, and order lists the reachable vertices by nondecreasing
    distance, x first, each after a neighbor one step closer.  The package's
    one discovery loop; it keeps nothing."""
    g.check_vertex(x)
    n = g.n
    dist = [-1] * n
    dist[x] = 0
    order = [x]
    for u in order:  # order is the queue: it grows while it is walked
        if len(order) == n:  # no scan once every vertex is reached
            break
        du = dist[u] + 1
        for w in g.adj[u]:
            if dist[w] < 0:
                dist[w] = du
                order.append(w)
    return dist, order


def bfs_root_view(g: Graph, x: int) -> RootView:
    """BFS artifact rooted at x, built anew on every call.  The view is a
    value: a caller that reads it twice keeps it and passes it on, and one
    needing only distances calls bfs_distances.

    After bfs_distances, one walk over ``order`` builds each layer's mask
    and gives v the neighbors inside the layer above it, so no edge is
    scanned twice."""
    dist, order = bfs_distances(g, x)
    adj_mask = g.adj_mask
    dag_in_mask = [0] * g.n
    starts = [0]
    above = layer = d = 0
    for i, v in enumerate(order):
        if dist[v] != d:
            above, layer, d = layer, 0, dist[v]
            starts.append(i)
        layer |= 1 << v
        dag_in_mask[v] = adj_mask[v] & above
    starts.append(len(order))
    return RootView(
        root=x,
        dist=tuple(dist),
        ecc=d,
        order=tuple(order),
        starts=tuple(starts),
        dag_in_mask=tuple(dag_in_mask),
    )


def is_connected(g: Graph) -> bool:
    """Whether the BFS order from vertex 0 holds all n vertices, computed
    on each call.  No root view is built."""
    return len(bfs_distances(g, 0)[1]) == g.n


def require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise DisconnectedError("operation requires a connected graph")


def connected_view(g: Graph, x: int) -> RootView:
    """The checked root view of x: refuses an out-of-range x, then (as
    require_connected does) a graph its BFS order does not cover.  Per-root
    requests take their one BFS and their connectivity from here."""
    view = bfs_root_view(g, x)
    if len(view.order) < g.n:
        raise DisconnectedError("operation requires a connected graph")
    return view


def interval(g: Graph, x: int, y: int) -> frozenset[int]:
    """Open interval I(x,y): vertices on shortest x,y-paths, excluding x and y.

    A vertex v lies on some shortest x,y-path exactly when
    d(x,v) + d(v,y) = d(x,y).
    """
    g.check_vertex(x)
    g.check_vertex(y)
    if x == y:
        raise InvalidParameterError("interval endpoints must differ")
    dx, order = bfs_distances(g, x)
    if len(order) < g.n:
        raise DisconnectedError("operation requires a connected graph")
    dy = bfs_distances(g, y)[0]
    d = dx[y]
    return frozenset(
        v for v in range(g.n) if v != x and v != y and dx[v] + dy[v] == d
    )


def is_geodetic(g: Graph) -> bool:
    """True when every vertex pair is joined by exactly one shortest path.

    Every DAG parent of v starts at least one shortest path to v, so v has
    exactly one shortest path from the root when ``dag_in_mask[v]`` has one
    bit: one path to each vertex, by induction over the BFS order.
    """
    for x in range(g.n):
        rv = connected_view(g, x)
        if any(mask.bit_count() != 1 for v, mask in enumerate(rv.dag_in_mask) if v != x):
            return False
    return True


def _biconnected_components(g: Graph):
    """Yield the edge sets of biconnected components (Hopcroft-Tarjan, iterative)."""
    n = g.n
    disc = [-1] * n
    low = [0] * n
    timer = 0
    edge_stack: list[tuple[int, int]] = []
    for start in range(n):
        if disc[start] >= 0:
            continue
        stack = [(start, -1, iter(g.adj[start]))]
        disc[start] = low[start] = timer
        timer += 1
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent:
                    continue
                if disc[w] < 0:
                    edge_stack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, iter(g.adj[w])))
                    advanced = True
                    break
                if disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if advanced:
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    comp = []
                    while edge_stack:
                        e = edge_stack.pop()
                        comp.append(e)
                        if e == (u, v):
                            break
                    yield comp


def is_block_graph(g: Graph) -> bool:
    """True when every biconnected component induces a complete subgraph."""
    require_connected(g)
    for comp in _biconnected_components(g):
        verts = set()
        for u, v in comp:
            verts.add(u)
            verts.add(v)
        k = len(verts)
        if len(comp) != k * (k - 1) // 2:
            return False
    return True


# ---------------------------------------------------------------------------
# vertex-set helpers (internal 0-based <-> external 1-based)

def mask_to_set(mask: int) -> frozenset[int]:
    """The set bits of mask, taken from the top, so each step works on a
    shorter int."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    return frozenset(out)


def to_external_ids(vertices) -> list[int]:
    """Sorted 1-based ids, the only form that appears in files and reports."""
    return sorted(v + 1 for v in vertices)


# ---------------------------------------------------------------------------
# graph file format: `p <n> <m>` header, `e <u> <v>` lines, 1-based ids,
# comment records (first token starting with `c`) and blank lines ignored.
# Every line ends at "\n"; any other whitespace, the "\r" of CRLF included,
# only separates tokens.

_SLICE_CHARS = 1 << 16  # body split at a time: a few thousand lines
_BLOCK_LINES = 1 << 12  # lines the line loop reads between deadline checks
# a vertex of degree >= n / _ROW_DEGREE reads its mask from one byte row: at
# n = 300 the row costs about what the bit-table sum does at degree n/8 and
# 0.65-0.8x above n/4; at n = 2,000 it is cheaper from about n/16 on
# (Python 3.11, 2-core x86-64 VM)
_ROW_DEGREE = 8


def parse_graph(text: str, deadline=None) -> Graph:
    """Parse the `p`/`e` file format.

    Both routes read the lines up to the ``p`` record with _header.  A body
    in the layout format_graph writes (m >= 2n lines starting ``e ``, the
    last ending "\\n") is split a slice at a time.  With three tokens per
    line, the second and third of them ids spelled "1".."n", the ``e``
    starting each line falls on every third token, so each line is one
    edge.  A vertex of degree >= n/8 reads its mask from one byte row (a
    "1" per neighbor, read by ``int(row, 2)``); the others sum a table of
    bits.  Either way a repeated edge or self-loop leaves fewer bits than
    list entries, which one bit-count check finds.  Sparser bodies (where
    that per-vertex work costs more than the split saves), other layouts
    and bodies failing a check go to the line loop, the only one to word
    body errors; both routes build the same graphs.  Each slice, and each
    block of _BLOCK_LINES lines of the line loop, first checks the deadline.
    """
    n, m, pos, _ = _header(text, deadline)
    lines_ok = text.startswith("e ", pos) and text.count("\ne ", pos) == m - 1
    if m < 2 * n or not (lines_ok and text.endswith("\n")):
        return _parse_lines(text, deadline)
    vertex = {str(i + 1): i for i in range(n)}.__getitem__
    neighbors = [[] for _ in range(n)]
    lines = 0
    try:
        while pos < len(text):
            check_deadline(deadline, "graph parsing")
            end = text.find("\n", pos + _SLICE_CHARS) + 1 or len(text)
            tokens = text[pos:end].split()
            count = text.count("\n", pos, end)
            if len(tokens) != 3 * count:
                return _parse_lines(text, deadline)
            lines += count
            pos = end
            for u, v in zip(map(vertex, tokens[1::3]), map(vertex, tokens[2::3])):
                neighbors[u].append(v)
                neighbors[v].append(u)
    except KeyError:
        return _parse_lines(text, deadline)
    if lines != m:
        return _parse_lines(text, deadline)
    bits = [1 << i for i in range(n)]
    zeros = b"0" * n
    masks = []
    for nb in neighbors:
        if len(nb) * _ROW_DEGREE < n:
            masks.append(sum(map(bits.__getitem__, nb)))
        else:
            row = bytearray(zeros)
            for w in nb:
                row[w] = 49  # ord("1")
            row.reverse()  # bit w is character n - 1 - w of the base-2 spelling
            masks.append(int(row, 2))
    if any(mask.bit_count() != len(nb) for mask, nb in zip(masks, neighbors)):
        return _parse_lines(text, deadline)
    return Graph._from_lists(neighbors, masks)


def _header(text: str, deadline=None) -> tuple[int, int, int, int]:
    """(n, m, pos, lineno) of the ``p`` record: its checked counts, refused
    before any allocation, where the line after it starts, and its 1-based
    line number.  The lines before it may only be blank or comments.  The
    deadline is checked before each further block of _BLOCK_LINES lines."""
    pos = lineno = 0
    while pos < len(text):
        if lineno and not lineno % _BLOCK_LINES:
            check_deadline(deadline, "graph parsing")
        lineno += 1
        end = text.find("\n", pos) + 1 or len(text)
        parts = text[pos:end].split()
        pos = end
        if not parts or parts[0][0] == "c":
            continue
        if parts[0] == "e":
            raise GraphFormatError(f"line {lineno}: edge before 'p' header")
        if parts[0] != "p":
            raise GraphFormatError(f"line {lineno}: unknown record {parts[0]!r}")
        if len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'p <n> <m>'")
        try:
            n, m = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: bad header numbers") from exc
        if not 1 <= n <= MAX_FILE_VERTICES:
            raise GraphFormatError(
                f"line {lineno}: n={n} outside 1..{MAX_FILE_VERTICES}"
            )
        if not 0 <= m <= n * (n - 1) // 2:
            raise GraphFormatError(
                f"line {lineno}: m={m} outside 0..{n * (n - 1) // 2} for n={n}"
            )
        return n, m, pos, lineno
    raise GraphFormatError("missing 'p <n> <m>' header")


def _parse_lines(text: str, deadline=None) -> Graph:
    """The line loop: after _header it reads lines, and Graph(n, edges)
    checks each edge it yields.  Ids not spelled "1".."n" go through
    ``int()`` (``01``, ``+2``).  Every rejected line raises ``line N: ...``
    with 1-based ids, Graph's refusals worded from the last edge yielded.
    The deadline is checked before each block of _BLOCK_LINES lines."""
    n, declared_m, pos, p_line = _header(text, deadline)
    ids = {str(i + 1): i for i in range(n)}
    lines = text[pos:].split("\n")
    lineno = u = v = 0  # the line and pair of the last edge yielded

    def edges():
        nonlocal lineno, u, v
        for first in range(0, len(lines), _BLOCK_LINES):
            check_deadline(deadline, "graph parsing")
            for lineno, raw in enumerate(lines[first:first + _BLOCK_LINES], start=p_line + 1 + first):
                parts = raw.split()
                if parts and parts[0] == "e":
                    if len(parts) != 3:
                        raise GraphFormatError(f"line {lineno}: expected 'e <u> <v>'")
                    u = ids.get(parts[1])
                    if u is None:
                        u = _file_id(parts[1], n, lineno)
                    v = ids.get(parts[2])
                    if v is None:
                        v = _file_id(parts[2], n, lineno)
                    yield u, v
                elif not parts or parts[0][0] == "c":
                    continue
                elif parts[0] == "p":
                    raise GraphFormatError(f"line {lineno}: second 'p' header")
                else:
                    raise GraphFormatError(f"line {lineno}: unknown record {parts[0]!r}")

    try:
        g = Graph(n, edges())
    except SelfLoopError:
        raise GraphFormatError(f"line {lineno}: self-loop at vertex {u + 1}") from None
    except DuplicateEdgeError:
        raise GraphFormatError(
            f"line {lineno}: duplicate edge ({min(u, v) + 1},{max(u, v) + 1})"
        ) from None
    if declared_m != g.m:
        raise GraphFormatError(f"header declares {declared_m} edges, file has {g.m}")
    return g


def _file_id(token: str, n: int, lineno: int) -> int:
    """0-based id of a 1-based id token that is not in canonical form."""
    try:
        i = int(token)
    except ValueError as exc:
        raise GraphFormatError(f"line {lineno}: bad edge id {token!r}") from exc
    if not 1 <= i <= n:
        raise GraphFormatError(f"line {lineno}: edge id {i} outside 1..{n}")
    return i - 1


def format_graph(g: Graph, comment: str | None = None) -> str:
    """The file text of g, a vertex at a time: the ids of the neighbors
    above u, one slice of its sorted list, are gathered by one itemgetter
    call and joined under one ``e u `` head."""
    lines = [f"c {part}" for part in comment.splitlines()] if comment else []
    lines.append(f"p {g.n} {g.m}")
    ids = [str(v + 1) for v in range(g.n)]
    for u, nb in enumerate(g.adj):
        above = nb[bisect_right(nb, u):]
        if above:
            head = f"e {ids[u]} "
            # with one index, itemgetter returns the id itself, not a tuple
            found = itemgetter(*above)(ids)
            if len(above) > 1:
                found = ("\n" + head).join(found)
            lines.append(head + found)
    lines.append("")
    return "\n".join(lines)


def read_text(path) -> str:
    """The UTF-8 text of a graph or vertex-set file, less one leading BOM."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_graph_file(path, deadline=None) -> Graph:
    return parse_graph(read_text(path), deadline)


def write_graph_file(path, g: Graph, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_graph(g, comment))
