"""Independent reference implementations used only by the tests.

Everything here works from raw adjacency lists with its own BFS; nothing is
shared with the library's sweep machinery, so agreement between the two is
meaningful evidence.
"""

import gc
from collections import deque
from itertools import combinations

from vertexvis.errors import DuplicateEdgeError, IdOutOfRangeError, SelfLoopError
from vertexvis.graph import Graph, RootView, mask_to_set


def bfs_dist(g: Graph, x: int) -> dict[int, int]:
    dist = {x: 0}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def all_shortest_paths(g: Graph, x: int, y: int) -> list[tuple[int, ...]]:
    """Every shortest x,y-path as a vertex tuple, by forward DFS over
    distance-increasing edges that stay on some geodesic."""
    dx = bfs_dist(g, x)
    dy = bfs_dist(g, y)
    target = dx[y]
    paths: list[tuple[int, ...]] = []

    def extend(path):
        u = path[-1]
        if u == y:
            paths.append(tuple(path))
            return
        for w in g.adj[u]:
            if w in dx and dx[w] == len(path) and dx[w] + dy.get(w, -1) == target:
                path.append(w)
                extend(path)
                path.pop()

    extend([x])
    return paths


def visible_by_paths(g: Graph, x: int, s, y: int) -> bool:
    """Definition-level check: some shortest x,y-path meets s only in {x, y}."""
    s = set(s)
    return any(
        all(v not in s for v in p[1:-1]) for p in all_shortest_paths(g, x, y)
    )


def xvis_by_paths(g: Graph, x: int, s) -> bool:
    s = set(s)
    return x not in s and all(visible_by_paths(g, x, s, y) for y in s)


def mutual_by_paths(g: Graph, s) -> bool:
    s = set(s)
    return all(visible_by_paths(g, u, s, v) for u, v in combinations(sorted(s), 2))


def vx_by_paths(g: Graph, x: int) -> int:
    """Definition-level visibility number; only sensible for tiny graphs."""
    others = [v for v in range(g.n) if v != x]
    best = 0
    for k in range(len(others), 0, -1):
        if k <= best:
            break
        for combo in combinations(others, k):
            if xvis_by_paths(g, x, combo):
                best = k
                break
    return best


def unique_geodesics_by_paths(g: Graph) -> bool:
    return all(
        len(all_shortest_paths(g, x, y)) == 1
        for x in range(g.n)
        for y in range(x + 1, g.n)
    )


def _connected_edge_mask(n: int, pairs, mask: int) -> bool:
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    comps = n
    for i, (u, v) in enumerate(pairs):
        if (mask >> i) & 1:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                comps -= 1
    return comps == 1


def vx_brute_reference(g: Graph, x: int) -> tuple[int, frozenset[int]]:
    """(value, witness) of vx_brute as it enumerated before the zero-bit
    insertion: subset number picks of the vertices other than x, mapped bit
    by bit through an index table, is kept when it is larger than the best
    so far and visible, so the enumeration order decides the witness.  On
    the BFS DAG from x, a vertex is clear when it is x or a non-member with
    a clear parent; the members are visible when each has a clear parent."""
    dist = bfs_dist(g, x)
    order = sorted(dist, key=dist.__getitem__)
    parents = {v: [u for u in g.adj[v] if dist[u] == dist[v] - 1] for v in order}
    others = [v for v in range(g.n) if v != x]
    best_size, best = 0, frozenset()
    for picks in range(1 << len(others)):
        members = set()
        rest = picks
        while rest:
            low = rest & -rest
            members.add(others[low.bit_length() - 1])
            rest ^= low
        if len(members) > best_size:
            clear = {x}
            for v in order[1:]:
                if v not in members and any(u in clear for u in parents[v]):
                    clear.add(v)
            if all(any(u in clear for u in parents[v]) for v in members):
                best_size, best = len(members), frozenset(members)
    return best_size, best


def connected_graphs_upto(nmax: int = 5):
    """All labeled connected graphs on 2..nmax vertices, as Graph objects."""
    for n in range(2, nmax + 1):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            if not _connected_edge_mask(n, pairs, mask):
                continue
            edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
            yield Graph(n, edges)


def min_cds_size(g: Graph) -> int:
    """Size of a smallest connected dominating set of the connected graph g
    (n <= 10): vertex subsets tried by increasing size, each checked for
    domination and then for connectivity by a BFS inside the subset."""
    assert g.n <= 10
    for k in range(1, g.n + 1):
        for subset in combinations(range(g.n), k):
            members = set(subset)
            if len(members.union(*(g.adj[v] for v in subset))) < g.n:
                continue
            seen, queue = {subset[0]}, deque([subset[0]])
            while queue:
                for w in g.adj[queue.popleft()]:
                    if w in members and w not in seen:
                        seen.add(w)
                        queue.append(w)
            if seen == members:
                return k
    raise AssertionError("a connected graph dominates itself")


def diameter(g: Graph) -> int:
    return max(max(bfs_dist(g, x).values()) for x in range(g.n))


def adjacency_by_pair_set(n: int, edges):
    """(adj, adj_mask, m) of a simple graph, checked with a set of sorted
    pairs and masks summed from the finished lists.  Raises the library's
    error type and message for the first bad edge in the given order."""
    if n < 1:
        raise IdOutOfRangeError(f"graph needs at least one vertex, got n={n}")
    seen = set()
    neighbors = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise IdOutOfRangeError(f"edge ({u},{v}) outside 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge ({key[0]},{key[1]})")
        seen.add(key)
        neighbors[u].append(v)
        neighbors[v].append(u)
    adj = tuple(tuple(sorted(nb)) for nb in neighbors)
    return adj, tuple(sum(1 << u for u in nb) for nb in adj), len(seen)


def vv_all_roots(g: Graph):
    """vv the way it was computed before symmetry pruning: vx_exact at every
    non-leaf root (every root when n = 2), the first maximum kept."""
    from vertexvis.solvers import vx_exact

    roots = [0] if g.n == 2 else [v for v in range(g.n) if g.degree(v) > 1]
    best = None
    for x in roots:
        res = vx_exact(g, x)
        if best is None or res.value > best.value:
            best = res
    return best


def cover_groups_reference(rv: RootView) -> list:
    """The parent-cover groups of rv as they were built before the groups
    came from masks: one union-find over the predecessor lists of every
    vertex from layer 2 on.  Each group as _encode returns it,
    (cands, sets, covers), in the order of its smallest vertex."""
    link: dict[int, int] = {}

    def find(a: int) -> int:
        while link[a] != a:
            link[a] = a = link[link[a]]
        return a

    constraints = [preds for v, preds in enumerate(rv.dag_in) if rv.dist[v] >= 2]
    for preds in constraints:
        for p in preds:
            link.setdefault(p, p)
        head = find(preds[0])
        for p in preds[1:]:
            link[find(p)] = head
    groups: dict[int, list] = {}
    for preds in constraints:
        groups.setdefault(find(preds[0]), []).append(preds)
    out = []
    for members in groups.values():
        cands = sorted({p for preds in members for p in preds})
        pos = {p: i for i, p in enumerate(cands)}
        sets = []
        covers = [0] * len(cands)
        for j, preds in enumerate(members):
            mask = 0
            for p in preds:
                mask |= 1 << pos[p]
                covers[pos[p]] |= 1 << j
            sets.append(mask)
        out.append((cands, sets, covers))
    return out


def encoded_groups(rv: RootView) -> list:
    """Every parent-cover group of rv, closed by a shared candidate or not,
    as the library encodes a group for its solvers: (cands, sets, covers)."""
    from vertexvis.solvers import _encode, _layer_groups

    return [_encode(rv.dag_in_mask, union, members) for union, members in _layer_groups(rv)]


def cover_groups_frozen(rv: RootView):
    """The parent-cover groups of rv as _cover_groups yielded them before
    shared-candidate groups were closed at the merge: each layer in
    vertex-id order, a constraint merging every group it meets, and every
    group encoded as (cands, sets, covers)."""
    masks, order, starts = rv.dag_in_mask, rv.order, rv.starts
    for d in range(2, rv.ecc + 1):
        groups: list[tuple[int, list[int]]] = []
        seen = 0
        for v in sorted(order[starts[d]:starts[d + 1]]):
            union, members = masks[v], [v]
            if union & seen:
                apart = []
                for group in groups:
                    if group[0] & union:
                        union |= group[0]
                        members += group[1]
                    else:
                        apart.append(group)
                groups = apart
            seen |= union
            groups.append((union, members))
        for union, members in groups:
            cands = sorted(mask_to_set(union))
            pos = {p: i for i, p in enumerate(cands)}
            sets = []
            covers = [0] * len(cands)
            for j, v in enumerate(sorted(members)):
                mask = 0
                rest = masks[v]
                while rest:
                    top = rest.bit_length() - 1
                    rest ^= 1 << top
                    i = pos[top]
                    mask |= 1 << i
                    covers[i] |= 1 << j
                sets.append(mask)
            yield cands, sets, covers


def solve_root_frozen(rv: RootView, solve_group) -> tuple[int, frozenset[int], list]:
    """(value, witness, tree items) of a root as _solve_root built them
    before shared-candidate groups were closed at the merge: solve_group
    on every group of cover_groups_frozen, its picks mapped back through
    cands, then every non-root vertex in BFS order hung off its smallest
    DAG parent among the picks and the root."""
    chosen = 1 << rv.root
    for cands, sets, covers in cover_groups_frozen(rv):
        picked = solve_group(sets, covers)
        for i, p in enumerate(cands):
            if (picked >> i) & 1:
                chosen |= 1 << p
    tree = []
    for v in rv.order[1:]:
        allowed = rv.dag_in_mask[v] & chosen
        tree.append((v, (allowed & -allowed).bit_length() - 1))
    leaves = frozenset(range(len(rv.dist))) - {p for _, p in tree}
    return len(leaves), leaves, tree


def live_root_views() -> int:
    """Number of RootView objects alive in this process."""
    return sum(isinstance(o, RootView) for o in gc.get_objects())


def greedy_group_reference(sets: list[int], covers: list[int]) -> int:
    """The greedy cover of one group as it was before the lazy heap: each
    step scans every candidate for the most uncovered constraints and takes
    the first maximum, so ties go to the smallest candidate."""
    full = (1 << len(sets)) - 1
    chosen = covered = 0
    while covered != full:
        uncovered = full & ~covered
        best_i, best_gain = -1, 0
        for i, cov in enumerate(covers):
            gain = (cov & uncovered).bit_count()
            if gain > best_gain:
                best_i, best_gain = i, gain
        chosen |= 1 << best_i
        covered |= covers[best_i]
    return chosen


def maximally_distant_reference(g: Graph, x: int) -> frozenset[int]:
    """Maximally distant vertices the way they were found before the root
    view: one BFS, then a scan of every vertex's neighbours for one farther
    from x."""
    dist = bfs_dist(g, x)
    return frozenset(y for y in range(g.n) if all(dist[z] <= dist[y] for z in g.adj[y]))


def stress_vertices_reference(g: Graph, x: int) -> frozenset[int]:
    """Stress vertices for x the way they were found before the dominator
    pass: for each y != x, one sweep of the BFS order from x with y
    blocked; y qualifies when some maximally distant z other than x and y
    is left unreached.  The sweep starts at y, since the vertices before it
    in BFS order are reached either way, and skips a y that is no vertex's
    BFS parent, since no shortest path passes through it."""
    dist = bfs_dist(g, x)
    order = sorted(dist, key=dist.__getitem__)
    parents = [sum(1 << u for u in g.adj[v] if dist[u] == dist[v] - 1) for v in order]
    far = [z for z in order[1:] if all(dist[w] <= dist[z] for w in g.adj[z])]
    out = set()
    before = 1 << x
    for i, y in enumerate(order[1:], start=1):
        if any(dist[w] > dist[y] for w in g.adj[y]):
            reach = before
            for v, mask in zip(order[i + 1:], parents[i + 1:]):
                if mask & reach:
                    reach |= 1 << v
            if any(z != y and not (reach >> z) & 1 for z in far):
                out.add(y)
        before |= 1 << y
    return frozenset(out)


def min_group_cover_reference(sets: list[int], covers: list[int]) -> int:
    """The parent-cover kernel as it was before unit propagation looked only
    at the constraints of new exclusions: every pass of a node rescans every
    uncovered constraint for units, the lower bound and the live candidates.
    The kernel must make the same decisions, so it returns the same mask."""
    full = (1 << len(sets)) - 1
    best_mask = greedy_group_reference(sets, covers)
    best_size = best_mask.bit_count()

    def search(chosen: int, size: int, excluded: int, covered: int):
        nonlocal best_mask, best_size
        while True:
            uncovered = full & ~covered
            if not uncovered:
                if size < best_size:
                    best_size, best_mask = size, chosen
                return
            forced = used = lb = live = twice = 0
            rest = uncovered
            while rest:
                low = rest & -rest
                rest ^= low
                allowed = sets[low.bit_length() - 1] & ~excluded
                if allowed == 0:
                    return
                if allowed & (allowed - 1) == 0:
                    forced |= allowed
                if not allowed & used:
                    lb += 1
                    used |= allowed
                twice |= live & allowed
                live |= allowed
            if forced:
                size += forced.bit_count()
                if size >= best_size:
                    return
                chosen |= forced
                while forced:
                    low = forced & -forced
                    covered |= covers[low.bit_length() - 1]
                    forced ^= low
                continue
            if size + lb >= best_size:
                return
            drop = 0
            rest = live & ~twice
            while rest:
                low = rest & -rest
                rest ^= low
                j = (covers[low.bit_length() - 1] & uncovered).bit_length() - 1
                if sets[j] & live & (twice | (low - 1)):
                    drop |= low
            if drop:
                excluded |= drop
                continue
            pick, pick_gain = -1, 1
            rest = twice
            while rest:
                low = rest & -rest
                rest ^= low
                gain = (covers[low.bit_length() - 1] & uncovered).bit_count()
                if gain > pick_gain:
                    pick, pick_gain = low.bit_length() - 1, gain
            search(chosen | 1 << pick, size + 1, excluded, covered | covers[pick])
            if size + 1 >= best_size:
                return
            excluded |= 1 << pick

    search(0, 0, 0, 0)
    return best_mask


def cartesian_product_reference(g: Graph, h: Graph) -> Graph:
    """G box H as it was built before the per-vertex build: one edge list
    (each H-edge once per row, then each G-edge once per column) through
    Graph(n, edges), vertex (a, b) at id a * n(H) + b."""
    nh = h.n
    edges = []
    for a in range(g.n):
        base = a * nh
        for b, b2 in h.edges():
            edges.append((base + b, base + b2))
    for a, a2 in g.edges():
        for b in range(nh):
            edges.append((a * nh + b, a2 * nh + b))
    return Graph(g.n * nh, edges)


def np_gadget_reference(g: Graph) -> tuple[Graph, int, dict, int]:
    """(gprime, apex, edge_vertex_map, k_offset) of the hardness gadget as it
    was built before the per-vertex build: one edge list (original edges,
    apex spokes, edge-vertex legs, then the edge-vertex clique) through
    Graph(n, edges)."""
    n, m = g.n, g.m
    apex = n
    original_edges = list(g.edges())
    edges = list(original_edges)
    edges += [(v, apex) for v in range(n)]
    edge_ids = {}
    for idx, (u, v) in enumerate(original_edges):
        ev = n + 1 + idx
        edge_ids[(u, v)] = ev
        edges.append((u, ev))
        edges.append((v, ev))
    evs = sorted(edge_ids.values())
    edges += [(a, b) for i, a in enumerate(evs) for b in evs[i + 1:]]
    return Graph(n + 1 + m, edges), apex, edge_ids, m


def format_graph_reference(g: Graph, comment: str | None = None) -> str:
    """The graph file text as it was written before the per-vertex writer:
    one f-string per edge of Graph.edges()."""
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    lines.append(f"p {g.n} {g.m}")
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"
