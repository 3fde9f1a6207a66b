"""Independent checks for every answer the benchmark receives.

Nothing here calls the solvers.  A certificate is checked against a BFS
written in this file, and values are compared with references computed
here: closed forms for the product families, a leaf count for trees, and
m + alpha(base) for hardness gadgets, with alpha from the branch and bound
below.  Only ``is_x_visibility_set`` is taken from the program: every
witness must also pass the program's own visibility checker.
"""

from __future__ import annotations

from collections import deque


def bfs_dist(adj, root: int) -> list[int]:
    """Hop distances from root over adjacency lists; -1 when unreachable."""
    dist = [-1] * len(adj)
    dist[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def certificate_problems(adj, root: int, payload: dict, is_visible) -> list[str]:
    """Reasons to reject a solver answer (empty when it is certified).

    payload is the CLI's JSON: 1-based ``root``, ``value``, ``witness`` and
    ``tree`` (child -> parent).  The tree must give every non-root vertex a
    neighbour one BFS layer closer to the root, its leaf set must equal the
    witness, the witness size must equal the value, and the witness must
    pass ``is_visible(root, witness)``.
    """
    n = len(adj)
    if payload.get("root") != root + 1:
        return [f"root {payload.get('root')} != {root + 1}"]
    tree = payload.get("tree")
    witness = payload.get("witness")
    if not isinstance(tree, dict) or not isinstance(witness, list):
        return ["missing tree or witness"]
    problems = []
    dist = bfs_dist(adj, root)
    parents = {}
    for key, p in tree.items():
        v = int(key) - 1
        p -= 1
        if not (0 <= v < n and 0 <= p < n) or v == root:
            problems.append(f"tree entry {key}->{p + 1} out of range")
            continue
        parents[v] = p
        if p not in adj[v]:
            problems.append(f"tree edge {key}-{p + 1} is not a graph edge")
        elif dist[p] != dist[v] - 1:
            problems.append(f"tree edge {key}-{p + 1} does not step one layer")
    if len(parents) != n - 1:
        problems.append(f"tree covers {len(parents)} of {n - 1} non-root vertices")
    internal = set(parents.values())
    leaves = {v for v in range(n) if v != root and v not in internal}
    members = {v - 1 for v in witness}
    if members != leaves:
        problems.append("witness is not the leaf set of the tree")
    if len(members) != payload.get("value") or len(witness) != len(members):
        problems.append(f"witness size {len(witness)} != value {payload.get('value')}")
    if root in members or not all(0 <= v < n for v in members):
        problems.append("witness holds the root or an id out of range")
    elif not is_visible(root, members):
        problems.append("witness is not a visibility set")
    return problems


# ---------------------------------------------------------------------------
# reference values

def family_value(family: str, args: tuple[int, ...]) -> int:
    """vv of the families in the families-vv corpus.

    Grid, prism and odd torus follow the published closed forms.  Even
    toruses use (n^2+n-2)/2, the exactly computed value, which exceeds the
    tabulated (n^2+2)/2 from n = 6 on.  K_m x K_n gives mn - min(m, n), and
    the cocktail-party graph on 2k vertices gives 2k - 2.
    """
    if family == "grid":
        (n,) = args
        return (n * n + n - 2) // 2
    if family == "prism":
        (n,) = args
        return {
            0: (2 * n * n + n) // 4,
            1: (n * n + 3) // 2,
            2: (2 * n * n + n - 2) // 4,
            3: (n * n + n - 2) // 2,
        }[n % 4]
    if family == "torus":
        (n,) = args
        if n % 2 == 0:
            return (n * n + n - 2) // 2
        return (n * n - 1) // 2 if n % 4 == 1 else (n * n + 3) // 2
    if family == "figure1":
        return 10 * args[0]
    if family == "kxk":
        m, n = args
        return m * n - min(m, n)
    if family == "cocktail":
        return 2 * args[0] - 2
    raise ValueError(f"no reference for family {family!r}")


def tree_value(adj, root: int) -> int:
    """vx of a tree: its only shortest-path tree is the tree itself, so the
    witness is every degree-1 vertex other than the root."""
    return sum(1 for v in range(len(adj)) if v != root and len(adj[v]) == 1)


def independence_number(adj) -> int:
    """Maximum independent set size: branch on a highest-degree vertex,
    finish by formula once every remaining component is a path or cycle."""
    n = len(adj)
    masks = [sum(1 << w for w in adj[v]) for v in range(n)]
    best = 0

    def path_cycle_value(allowed: int) -> int:
        total = 0
        rest = allowed
        while rest:
            start = (rest & -rest).bit_length() - 1
            comp, frontier = 1 << start, 1 << start
            while frontier:
                grown = 0
                f = frontier
                while f:
                    low = f & -f
                    grown |= masks[low.bit_length() - 1]
                    f ^= low
                frontier = grown & allowed & ~comp
                comp |= frontier
            rest &= ~comp
            size = comp.bit_count()
            degrees = [(masks[v] & comp).bit_count() for v in _bits(comp)]
            is_cycle = size >= 3 and all(d == 2 for d in degrees)
            total += size // 2 if is_cycle else (size + 1) // 2
        return total

    def search(allowed: int, count: int) -> None:
        nonlocal best
        if count + allowed.bit_count() <= best:
            return
        pick, pick_deg = -1, -1
        for v in _bits(allowed):
            d = (masks[v] & allowed).bit_count()
            if d > pick_deg:
                pick, pick_deg = v, d
        if pick_deg <= 2:
            best = max(best, count + path_cycle_value(allowed))
            return
        bit = 1 << pick
        search(allowed & ~(masks[pick] | bit), count + 1)
        search(allowed & ~bit, count)

    search((1 << n) - 1, 0)
    return best


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
