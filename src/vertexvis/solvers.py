"""Exact solvers with certificates, plus a scalable greedy heuristic.

The exact route for the visibility number of a root x rests on one fact:
shortest-path trees rooted at x are exactly the parent assignments over the
BFS DAG, and the visibility number of x equals the maximum number of leaves
such a tree can have.  Writing P for the set of internal vertices (x always
included once n >= 2), P must meet dag_in(v) for every non-root v, and any
such P can be realized, so

    vx(g, x) = n - min{ |P| : P hits every dag_in(v), v != x }.

That minimum hitting set splits into independent groups: the root covers
layer 1, every other dag_in(v) lies inside the layer above v, and the
constraints of a layer that share a candidate are merged by their masks.
A group whose constraints share a candidate takes the smallest one, its
greedy cover and a smallest cover, in _solve_root.  Any other is solved
from its greedy cover (all that vx_greedy keeps) as the incumbent of a
branch and bound over bitmasks: take or exclude the candidate covering the
most uncovered constraints, with unit propagation, a dominance rule, a
disjoint-candidate-set lower bound and smallest-id tie-breaking.  The
order of these prunings within a node is stated once, in the docstring of
_min_group_cover.  On a vertex-cover group this is the
take-a-vertex-or-its-neighbours rule.
Every solver returns a certificate, never a bare number: a witness set that
re-verifies through the visibility module, and a parent map realizing the
matching shortest-path tree.

The vertex visibility number solves only the roots that can win.  An
automorphism carries shortest paths to shortest paths, so it maps each root
to a root of the same value.  Twins are joined at once; any other root x is
joined to the smallest root r of its colour-refinement cell only through an
automorphism sigma with sigma(r) = x that an individualization-refinement
search with a node budget found and that maps every edge to an edge,
checked edge by edge against adj_mask.  Each search node does three steps,
each once: extend (build a map, backing up at most BACKUPS times); else
refine, then branch in ascending order.  Each class minimum x then gets an
upper bound from its BFS: n - 1 minus, per layer, a greedy packing of
pairwise disjoint constraints.  Class minima are solved in descending
bound, ties to the smaller id, until the bound falls below the best value,
or meets it at a larger id.  The smallest root of maximum value is a class
minimum whose bound is at least its value, so it is solved, and the same
vx_exact call as in a loop over all roots gives the value, root, witness
and tree.

The maximum leaf count over all spanning trees (not just shortest-path
trees) is computed through the classical duality with minimum connected
dominating sets: for connected graphs on at least three vertices the two
quantities add up to n.
"""

from __future__ import annotations

from functools import partial
from heapq import heapify, heappop, heapreplace
from itertools import combinations
from typing import NamedTuple

from .errors import InvalidParameterError, TooLargeError, check_deadline
from .generators import np_gadget
from .graph import (Graph, RootView, bfs_distances, bfs_root_view, connected_view,
                    mask_to_set, require_connected, to_external_ids)
from .visibility import _members_all_visible, _pairwise_visible

__all__ = [
    "SolveResult",
    "MaxLeafResult",
    "vx_exact",
    "vx_brute",
    "vx_greedy",
    "vv_exact",
    "max_leaf_spanning_tree",
    "mu_brute",
]


# largest n each exhaustive solver accepts; above it, TooLargeError
BRUTE_CAP = 22
MU_CAP = 16
ALPHA_CAP = 30
MCDS_CAP = 32


class SolveResult(NamedTuple):
    """An exact (or heuristic lower-bound) value plus its certificate.

    witness is a visibility set for root of size value; tree, when present,
    maps every non-root vertex to its parent in a shortest-path tree whose
    leaf set is exactly witness.
    """

    value: int
    root: int
    witness: frozenset[int]
    tree: dict[int, int] | None
    method: str

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "root": self.root + 1,
            "witness": to_external_ids(self.witness),
            "tree": None
            if self.tree is None
            else {str(v + 1): p + 1 for v, p in self.tree.items()},
            "method": self.method,
        }


class MaxLeafResult(NamedTuple):
    """Maximum spanning-tree leaf count with a realizing tree."""

    value: int
    root: int
    tree: dict[int, int]
    leaves: frozenset[int]

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "root": self.root + 1,
            "leaves": to_external_ids(self.leaves),
            "tree": {str(v + 1): p + 1 for v, p in self.tree.items()},
        }


def _require_solvable(g: Graph, x: int) -> RootView:
    """The connected_view of x, refused below two vertices."""
    rv = connected_view(g, x)
    if g.n < 2:
        raise InvalidParameterError("need at least 2 vertices")
    return rv


# ---------------------------------------------------------------------------
# minimum parent cover, one independent group of constraints at a time

def _layer_groups(rv: RootView):
    """Yield the independent groups of parent-cover constraints of rv as
    (union, members): the mask of the group's candidates and the vertices
    whose dag_in_mask the group holds.  The root covers layer 1.  Every later constraint, the dag_in_mask of a
    vertex, lies inside the layer above it, so groups never span two
    layers.  A layer is walked in BFS order, where the vertices one parent
    discovered are adjacent.  The unions of a layer's groups are disjoint,
    so a constraint inside the newest group's union joins that group; any
    other starts a new group when it meets no candidate seen so far, and
    otherwise merges the groups it meets."""
    masks, order, starts = rv.dag_in_mask, rv.order, rv.starts
    for d in range(2, rv.ecc + 1):
        groups: list[tuple[int, list[int]]] = []
        seen = last = 0
        for v in order[starts[d]:starts[d + 1]]:
            union = masks[v]
            if union | last == last:
                members.append(v)
                continue
            members = [v]
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
            last = union
            groups.append((union, members))
        yield from groups


def _encode(masks, union: int, members: list[int]):
    """(cands, sets, covers) of one group: its candidate ids ascending, from
    one walk down the bits of union, each constraint (members in vertex-id
    order) as a bitmask over positions in cands, and each candidate's
    constraints as a bitmask over positions in sets."""
    cands = []
    while union:
        top = union.bit_length() - 1
        union ^= 1 << top
        cands.append(top)
    cands.reverse()
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
    return cands, sets, covers


def _root_bound(rv: RootView) -> int:
    """An upper bound on the visibility number of rv.root: n - 1 minus, per
    layer from 2 on, a greedy packing of pairwise disjoint constraints,
    fewest candidates first, ties by vertex id.  Disjoint constraints need
    distinct internal vertices; constraints of different groups are
    disjoint, so the packing of a layer is the sum over its groups."""
    masks, order, starts = rv.dag_in_mask, rv.order, rv.starts
    packed = 0
    for d in range(2, rv.ecc + 1):
        used = 0
        for _, _, mask in sorted([(masks[v].bit_count(), v, masks[v])
                                  for v in order[starts[d]:starts[d + 1]]]):
            if not mask & used:
                used |= mask
                packed += 1
    return len(rv.dist) - 1 - packed


def _greedy_group(sets: list[int], covers: list[int]) -> int:
    """Feasible cover of one group by repeated max-coverage choice, ties to
    the smallest candidate; returns a mask over the group's candidates.

    Lazy greedy (Minoux, "Accelerated greedy algorithms for maximizing
    submodular set functions", 1978): a heap holds (-gain, i) with gains
    from when they were last computed.  Gains only fall as constraints get
    covered, so a stale key overestimates; the top's gain is recomputed and
    the top is taken when it is unchanged, else pushed back under the new
    key.  A taken top has the largest gain, smallest id on ties, so the
    picks are those of a full scan per step."""
    full = (1 << len(sets)) - 1
    heap = [(-cov.bit_count(), i) for i, cov in enumerate(covers)]
    heapify(heap)
    chosen = covered = 0
    while covered != full:
        key, i = heap[0]
        gain = (covers[i] & ~covered).bit_count()
        if gain == -key:
            heappop(heap)
            chosen |= 1 << i
            covered |= covers[i]
        else:
            heapreplace(heap, (-gain, i))
    return chosen


def _min_group_cover(sets: list[int], covers: list[int], deadline) -> int:
    """Smallest cover of one group, as a mask over its candidates, from the
    greedy cover as incumbent (_solve_root closes the groups whose
    constraints share a candidate).  A node propagates units, bounds by the
    constraints with disjoint candidates, and drops each candidate covering
    one uncovered constraint j when another candidate of j covers two or
    more, or only j with a smaller id (swapping keeps the cover's size).
    Then it takes, or else excludes, the candidate covering the most
    uncovered constraints, smallest id on ties.

    Each pass runs in this order: propagate, bound, scan, drop, branch.
    Every uncovered constraint keeps an allowed candidate: each starts with
    one, a drop keeps its smallest one-constraint candidate or one covering
    two or more, and a branch excludes one of two or more.  Only an
    exclusion can leave it just one, so propagation reads the constraints in
    touched: those of the candidates excluded since the last pass, and every
    one at the root.  Every allowed candidate of an uncovered constraint
    covers it, so it was live at the last pass (not chosen, not excluded,
    covering something uncovered): the last pass's live less the excluded
    gives the bound without a scan.  The packing walks the uncovered
    constraints upwards: it packs the first one left, drops from the walk
    every constraint of its candidates, and returns once the bound prunes.
    A packed constraint with no excluded candidate has all its candidates
    live, so it drops its neighbourhood, the constraints of its candidates,
    as one mask memoized on first use; one with an excluded candidate walks
    its live candidates.  Each uncovered constraint has two or more live
    candidates, so the bound is at most live // 2, and the packing is
    skipped when that could not prune.  Then one scan over live gives this
    pass's live candidates, the ones covering two or more, and the pick.
    Every other walk (units, forced picks, scan, drops) has an order that
    cannot matter and runs from the top bit down; the scan takes the last
    of equal gains, the smallest id.  The deadline is checked every 256
    search nodes."""
    full = (1 << len(sets)) - 1
    best_mask = _greedy_group(sets, covers)
    best_size = best_mask.bit_count()
    node_budget = 0
    # nbhd[j]: the constraints of j's candidates, filled on first use; it
    # holds j, so 0 means not yet filled
    nbhd = [0] * len(sets)

    def search(chosen: int, size: int, excluded: int, covered: int, live: int, touched: int):
        nonlocal best_mask, best_size, node_budget
        node_budget += 1
        if node_budget & 0xFF == 0:
            check_deadline(deadline, "exact visibility solve")
        while True:
            uncovered = full & ~covered
            free = ~excluded
            forced = 0
            rest = touched & uncovered
            while rest:
                i = rest.bit_length() - 1
                rest ^= 1 << i
                allowed = sets[i] & free
                if allowed & (allowed - 1) == 0:
                    forced |= allowed
            if forced:
                # a chosen candidate's constraints are covered, so none is forced
                size += forced.bit_count()
                if size >= best_size:
                    return
                chosen |= forced
                while forced:
                    i = forced.bit_length() - 1
                    forced ^= 1 << i
                    covered |= covers[i]
                uncovered = full & ~covered
            if not uncovered:
                if size < best_size:
                    best_size, best_mask = size, chosen
                return
            # live only shrinks, so the last pass's live, less the excluded,
            # holds every allowed candidate of an uncovered constraint
            live &= free
            if size + live.bit_count() // 2 >= best_size:
                # pack uncovered constraints with pairwise disjoint candidates
                lb = 0
                rest = uncovered
                while rest:
                    j = (rest & -rest).bit_length() - 1
                    lb += 1
                    if size + lb >= best_size:
                        return
                    allowed = sets[j]
                    if allowed & excluded:
                        allowed &= live
                        while allowed:
                            low = allowed & -allowed
                            allowed ^= low
                            rest &= ~covers[low.bit_length() - 1]
                        continue
                    # j is uncovered, so none of its candidates is chosen, and
                    # each one covered j at every scan: all of them are live
                    nb = nbhd[j]
                    if not nb:
                        while allowed:
                            i = allowed.bit_length() - 1
                            allowed ^= 1 << i
                            nb |= covers[i]
                        nbhd[j] = nb
                    rest &= ~nb
            pick, pick_gain = -1, 1
            rest = live
            live = twice = 0
            while rest:
                i = rest.bit_length() - 1
                low = 1 << i
                rest ^= low
                gain = (covers[i] & uncovered).bit_count()
                if gain:
                    live |= low
                    if gain > 1:
                        twice |= low
                        # top-down, so >= leaves the smallest id of the largest gain
                        if gain >= pick_gain:
                            pick, pick_gain = i, gain
            touched = 0
            rest = live & ~twice
            while rest:
                i = rest.bit_length() - 1
                low = 1 << i
                rest ^= low
                one = covers[i] & uncovered
                if sets[one.bit_length() - 1] & live & (twice | (low - 1)):
                    excluded |= low
                    touched |= one
            if touched:
                continue
            # without a drop some live candidate covers two or more
            search(chosen | 1 << pick, size + 1, excluded, covered | covers[pick], live, 0)
            if size + 1 >= best_size:
                return
            excluded |= 1 << pick
            touched = covers[pick]

    search(0, 0, 0, 0, (1 << len(covers)) - 1, full)
    return best_mask


def _hang(rv: RootView, allowed: int) -> tuple[dict[int, int], int]:
    """The shortest-path tree hanging each non-root vertex of rv off its
    smallest DAG parent in allowed, and the mask of the parents it uses."""
    tree: dict[int, int] = {}
    used = 0
    for v in rv.order[1:]:
        cands = rv.dag_in_mask[v] & allowed
        p = (cands & -cands).bit_length() - 1
        tree[v] = p
        used |= 1 << p
    return tree, used


def _solve_root(rv: RootView, solve_group, method: str, what: str,
                deadline) -> SolveResult:
    """Certificate for the root of rv from a cover of every constraint group:
    the root and each group's picks are internal, every other vertex hangs
    off its smallest internal DAG parent, and the witness is the leaf set.
    A group picks the smallest candidate all its constraints hold, as both
    solvers would, else solve_group(sets, covers) on its encoding.  The
    deadline (`what`) is checked first and per group."""
    check_deadline(deadline, what)
    masks = rv.dag_in_mask
    chosen = 1 << rv.root
    for union, members in _layer_groups(rv):
        check_deadline(deadline, what)
        common = union
        for v in members:
            common &= masks[v]
            if not common:
                break
        if common:
            chosen |= common & -common
            continue
        cands, sets, covers = _encode(masks, union, members)
        picked = solve_group(sets, covers)
        for i, p in enumerate(cands):
            if (picked >> i) & 1:
                chosen |= 1 << p
    tree, used = _hang(rv, chosen)
    # the root is the parent of layer 1, so it is in used
    leaves = mask_to_set(((1 << len(rv.dist)) - 1) ^ used)
    return SolveResult(value=len(leaves), root=rv.root, witness=leaves, tree=tree, method=method)


def vx_exact(g: Graph, x: int, deadline: float | None = None) -> SolveResult:
    """Exact visibility number of root x with a maximum-leaf shortest-path
    tree certificate."""
    return _solve_root(_require_solvable(g, x), partial(_min_group_cover, deadline=deadline),
                       "cover_bnb", "exact visibility solve", deadline)


def vx_brute(g: Graph, x: int, deadline: float | None = None) -> SolveResult:
    """Independent oracle: enumerate every subset of V minus x and keep the
    largest visibility set."""
    rv = _require_solvable(g, x)
    if g.n > BRUTE_CAP:
        raise TooLargeError(f"brute force capped at n={BRUTE_CAP}")
    # each subset of the other n - 1 vertices is picks with a zero bit put in at x
    below = (1 << x) - 1
    best_size, best_set = 0, 0
    for picks in range(1 << (g.n - 1)):
        if picks & 0x3FF == 0:
            check_deadline(deadline, "brute-force visibility solve")
        s_mask = picks & below | (picks & ~below) << 1
        size = s_mask.bit_count()
        if size > best_size and _members_all_visible(rv, s_mask):
            best_size, best_set = size, s_mask
    return SolveResult(
        value=best_size,
        root=x,
        witness=mask_to_set(best_set),
        tree=None,
        method="brute",
    )


def vx_greedy(g: Graph, x: int, deadline: float | None = None) -> SolveResult:
    """Greedy parent cover on the BFS DAG: always a valid visibility set,
    never exceeding the exact value.  Polynomial, but the deadline is
    checked before each group all the same."""
    return _solve_root(_require_solvable(g, x), _greedy_group, "greedy",
                       "greedy visibility solve", deadline)


def vv_exact(g: Graph, deadline: float | None = None) -> SolveResult:
    """Maximum visibility number over all roots, ties to the smallest root.

    Leaves are skipped as roots once n >= 3 because their support vertex
    always does strictly better.  So is every root that an automorphism,
    checked edge by edge, maps onto a smaller root (see _root_classes): an
    automorphism carries shortest paths to shortest paths, so both roots
    have the same value.  Every class minimum x gets the upper bound
    _root_bound(x) >= vx(g, x), and the class minima are solved in
    descending bound, ties to the smaller id.  A root is skipped when its
    bound is below the best value so far, or equal to it and the root is
    larger than the best root; every later root is then skipped too.  The
    smallest root of maximum value is a class minimum that no rule skips,
    so the answer is the vx_exact result of the same root as over all
    roots: same value, root, witness and tree.  The one deadline bounds the
    symmetry search, the bound of each class minimum and every solve.
    The view of the smallest root, a class minimum, gives connectivity and its bound."""
    roots = [v for v in range(g.n) if g.degree(v) > 1] or [0]
    first = _require_solvable(g, roots[0])
    rep = _root_classes(g, roots, deadline)
    bounds = []
    for x in roots:
        if rep[x] == x:
            check_deadline(deadline, "vertex visibility solve")
            rv = first if x == roots[0] else bfs_root_view(g, x)
            bounds.append((-_root_bound(rv), x))
    bounds.sort()
    best = vx_exact(g, bounds[0][1], deadline)
    for neg_bound, x in bounds[1:]:
        # no later root can win either: bounds only fall, and ids only rise
        # among equal bounds
        if (-neg_bound, -x) < (best.value, -best.root):
            break
        res = vx_exact(g, x, deadline)
        if (res.value, -res.root) > (best.value, -best.root):
            best = res
    return best


# ---------------------------------------------------------------------------
# root classes: joined only along automorphisms checked edge by edge

# search nodes that the failed automorphism searches of one request may
# expand in all, a failure that expands none counting as one; a search may
# expand what is left, so a graph without useful symmetry pays little
SEARCH_NODES = 16

# back-ups that one _extend call may make before it gives up
BACKUPS = 16


def _root_classes(g: Graph, roots: list[int], deadline) -> list[int]:
    """For every vertex, the smallest id of its class, where classes are
    joined only along automorphisms of g, so every class lies inside one
    orbit.

    Twins (equal open or equal closed neighborhood masks) are swapped by a
    transposition and are joined without a search.  Colour refinement of the
    whole graph puts the vertices that might be equivalent in one cell, and
    every automorphism maps each cell onto itself.  Roots are walked in
    ascending order: a root x that is still the minimum of its class asks
    _automorphism for a sigma with sigma(r) = x, where r is the smallest root
    of x's cell (always the minimum of its own class), and joins v with
    sigma(v) for every v.  Searching ends once failed searches have spent
    SEARCH_NODES nodes.  Which roots stay minima depends on the graph only:
    the search counts nodes and back-ups, not seconds."""
    link = list(range(g.n))

    def find(a: int) -> int:
        while link[a] != a:
            link[a] = a = link[link[a]]
        return a

    def join(a: int, b: int) -> None:
        a, b = find(a), find(b)
        if a != b:
            link[max(a, b)] = min(a, b)

    for masks in (g.adj_mask, [mask | 1 << v for v, mask in enumerate(g.adj_mask)]):
        twin: dict[int, int] = {}
        for v, mask in enumerate(masks):
            if twin.setdefault(mask, v) != v:
                join(twin[mask], v)
    cells = _refine(g, [[len(nb) for nb in g.adj]], deadline)[0]
    first: dict[int, int] = {}
    budget = SEARCH_NODES
    for x in roots:
        r = first.setdefault(cells[x], x)
        if budget > 0 and r < x == find(x):
            sigma, nodes = _automorphism(g, cells, r, x, budget, deadline)
            if sigma is None:
                budget -= max(nodes, 1)
            else:
                for v, w in enumerate(sigma):
                    if v != w:
                        join(v, w)
    return [find(v) for v in range(g.n)]


def _refine(g: Graph, colourings: list[list[int]], deadline) -> list[list[int]] | None:
    """Colour refinement of one or more colourings of g at once, until
    stable: a vertex's next colour names its colour and the multiset of its
    neighbours' colours.  One table names the colours of all colourings, so
    equal ids mean the same thing in each; None as soon as two colourings
    stop having the same number of vertices of each colour."""
    size = len(set().union(*colourings))
    while True:
        check_deadline(deadline, "symmetry search")
        table: dict = {}
        colourings = [
            [table.setdefault((c[v], tuple(sorted(map(c.__getitem__, nb)))), len(table))
             for v, nb in enumerate(g.adj)]
            for c in colourings
        ]
        counts = sorted(colourings[0])
        if any(sorted(c) != counts for c in colourings[1:]):
            return None
        if len(table) == size:
            return colourings
        size = len(table)


def _individualize(ca: list[int], cb: list[int], da: list[int], db: list[int]):
    """Both colourings split by the distances from their individualized
    vertex, under one table; None when the colour counts differ."""
    table: dict = {}
    ca = [table.setdefault(key, len(table)) for key in zip(ca, da)]
    cb = [table.setdefault(key, len(table)) for key in zip(cb, db)]
    return (ca, cb) if sorted(ca) == sorted(cb) else None


def _extend(g: Graph, ca: list[int], cb: list[int], order: list[int]) -> list[int] | None:
    """Map sending each colour class of ca into the same class of cb, vertex
    by vertex in order (each vertex after some neighbour).  v goes to an
    unused vertex w of its class whose neighbours among the images so far
    are exactly the images of v's neighbours so far: v itself when it
    qualifies, else the smallest such w.  At a vertex with no such w the map
    backs up to the latest placed vertex with an untried image and resumes
    there, at most BACKUPS times; None after that, or when the finished map
    fails _is_automorphism."""
    adj_mask = g.adj_mask
    free: dict[int, int] = {}
    for w, c in enumerate(cb):
        free[c] = free.get(c, 0) | 1 << w
    sigma = [-1] * len(ca)
    untried = [-1] * len(order)     # images left to try per position; -1: all
    images, backups, i = 0, BACKUPS, 0
    while i < len(order):
        v = order[i]
        cand = free.get(ca[v], 0) & untried[i]
        need = 0
        for u in g.adj[v]:
            s = sigma[u]
            if s >= 0:
                need |= 1 << s
                cand &= adj_mask[s]
        w = v if (cand >> v) & 1 and adj_mask[v] & images == need else -1
        while w < 0 and cand:
            low = cand & -cand
            cand ^= low
            if adj_mask[low.bit_length() - 1] & images == need:
                w = low.bit_length() - 1
        if w >= 0:
            sigma[v] = w
            images |= 1 << w
            free[ca[v]] ^= 1 << w
            untried[i] = cand & ~(1 << w)
            i += 1
            continue
        j = i - 1
        while j >= 0 and not untried[j]:
            j -= 1
        if j < 0 or not backups:
            return None
        backups -= 1
        untried[j + 1:i + 1] = [-1] * (i - j)
        for u in order[j:i]:
            images ^= 1 << sigma[u]
            free[ca[u]] ^= 1 << sigma[u]
            sigma[u] = -1
        i = j
    return sigma if _is_automorphism(g, sigma) else None


def _is_automorphism(g: Graph, sigma: list[int]) -> bool:
    """Whether the bijection sigma maps every edge of g to an edge, checked
    edge by edge against adj_mask."""
    adj_mask = g.adj_mask
    for u, nb in enumerate(g.adj):
        image = adj_mask[sigma[u]]
        for w in nb:
            if not (image >> sigma[w]) & 1:
                return False
    return True


def _automorphism(g: Graph, cells: list[int], r: int, x: int, budget: int, deadline):
    """(sigma, nodes): an automorphism sigma of g with sigma(r) = x, as a
    list, or None when there is none or budget nodes did not find one, and
    the number of nodes expanded.

    Individualization-refinement (McKay and Piperno, "Practical graph
    isomorphism, II", 2014) on two colourings at once: the cells seen from r
    and from x.  An individualized vertex is seeded with its BFS distances.
    A node does three steps, each once: extend; else refine, then branch in
    ascending order.  It extends its colourings to a map (_extend, in BFS
    order from r, backing up at most BACKUPS times, and preferring v -> v
    vertex by vertex); if that fails it refines them, failing when the
    refinement does, and branches on its largest class (the first met on
    ties): the smallest vertex of that class goes to each member in
    ascending order.  _extend returns only maps that _is_automorphism
    accepts."""
    nodes = 0
    dr, order = bfs_distances(g, r)

    def search(ca: list[int], cb: list[int]) -> list[int] | None:
        nonlocal nodes
        nodes += 1
        check_deadline(deadline, "symmetry search")
        sigma = _extend(g, ca, cb, order)
        if sigma is not None:
            return sigma
        refined = _refine(g, [ca, cb], deadline)
        if refined is None:
            return None
        ca, cb = refined
        sizes: dict[int, int] = {}
        for c in ca:
            sizes[c] = sizes.get(c, 0) + 1
        colour = max(sizes, key=sizes.__getitem__)
        dv = bfs_distances(g, ca.index(colour))[0]
        for t in (w for w, c in enumerate(cb) if c == colour):
            if nodes >= budget:
                return None
            split = _individualize(ca, cb, dv, bfs_distances(g, t)[0])
            if split is not None:
                sigma = search(*split)
                if sigma is not None:
                    return sigma
        return None

    seeded = _individualize(cells, cells, dr, bfs_distances(g, x)[0])
    return (None if seeded is None else search(*seeded)), nodes


# ---------------------------------------------------------------------------
# maximum-leaf spanning trees via minimum connected dominating sets

def _greedy_cds(g: Graph) -> int:
    """Internal vertices of a BFS tree from a max-degree vertex, each vertex
    under its smallest DAG parent: a connected dominating set used as the
    starting incumbent."""
    start = max(range(g.n), key=lambda v: (g.degree(v), -v))
    return _hang(bfs_root_view(g, start), -1)[1]


def _min_cds(g: Graph, deadline) -> int:
    """Exact minimum connected dominating set as a mask (n >= 3, connected).

    Grows connected sets from each possible minimum-id anchor inside the
    closed neighborhood of a smallest-degree vertex; degree-1 vertices are
    never needed and are excluded up front.
    """
    check_deadline(deadline, "max-leaf spanning tree solve")
    n = g.n
    full = (1 << n) - 1
    closed = [g.adj_mask[v] | (1 << v) for v in range(n)]
    leaf_mask = 0
    for v in range(n):
        if g.degree(v) == 1:
            leaf_mask |= 1 << v

    best_mask = _greedy_cds(g)
    best_size = best_mask.bit_count()
    node_budget = 0

    def neighborhood(mask: int) -> int:
        out = 0
        rest = mask
        while rest:
            low = rest & -rest
            out |= g.adj_mask[low.bit_length() - 1]
            rest ^= low
        return out

    def search(s_mask: int, size: int, excluded: int, dominated: int):
        nonlocal best_mask, best_size, node_budget
        node_budget += 1
        if node_budget & 0xFF == 0:
            check_deadline(deadline, "max-leaf spanning tree solve")
        if dominated == full:
            if size < best_size:
                best_size, best_mask = size, s_mask
            return
        if size + 1 >= best_size:
            return
        allowed = full & ~s_mask & ~excluded
        # dominated is the closed neighborhood of s_mask, which allowed excludes
        frontier = dominated & allowed
        # allowed vertices reachable from the frontier without leaving allowed
        reach = frontier
        while True:
            grown = reach | (neighborhood(reach) & allowed)
            if grown == reach:
                break
            reach = grown
        undominated = full & ~dominated
        rest = undominated
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            rest ^= low
            if not closed[w] & reach:
                return
        # each future pick dominates at most maxcover new vertices, and the
        # reach check above leaves maxcover >= 1
        maxcover = 0
        rest = reach
        while rest:
            low = rest & -rest
            c = low.bit_length() - 1
            rest ^= low
            k = (closed[c] & undominated).bit_count()
            if k > maxcover:
                maxcover = k
        undom_cnt = undominated.bit_count()
        lb = -(-undom_cnt // maxcover)
        if size + lb >= best_size:
            return
        pick, pick_gain = -1, -1
        rest = frontier
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            rest ^= low
            gain = (closed[u] & undominated).bit_count()
            if gain > pick_gain:
                pick, pick_gain = u, gain
        ubit = 1 << pick
        search(s_mask | ubit, size + 1, excluded, dominated | closed[pick])
        search(s_mask, size, excluded | ubit, dominated)

    # a leaf-free minimum connected dominating set always exists (n >= 3)
    # and must meet the closed neighborhood of any vertex; split on the
    # smallest member it takes there
    anchor = min(range(n), key=lambda v: (g.degree(v), v))
    candidates = [
        r for r in range(n)
        if (closed[anchor] >> r) & 1 and not (leaf_mask >> r) & 1
    ]
    banned_below = 0
    for r in candidates:
        search(1 << r, 1, (leaf_mask | banned_below) & ~(1 << r), closed[r])
        banned_below |= 1 << r
    return best_mask


def max_leaf_spanning_tree(g: Graph, deadline: float | None = None) -> MaxLeafResult:
    """Maximum number of leaves over all spanning trees, with a tree
    realizing it.  Computed as n minus the minimum connected dominating set
    size for n >= 3; the one- and two-vertex graphs are direct."""
    require_connected(g)
    if g.n == 1:
        return MaxLeafResult(value=1, root=0, tree={}, leaves=frozenset({0}))
    if g.n == 2:
        return MaxLeafResult(
            value=2, root=0, tree={1: 0}, leaves=frozenset({0, 1})
        )
    if g.n > MCDS_CAP:
        raise TooLargeError(f"exact max-leaf capped at n={MCDS_CAP}")
    cds = _min_cds(g, deadline)
    root = (cds & -cds).bit_length() - 1
    # a BFS tree of the induced connected dominating set, each member under
    # the one that discovered it (its first neighbour in BFS order), then
    # every other vertex hangs off its smallest dominator
    inside = Graph(g.n, [(u, w) for u, w in g.edges() if (cds >> u) & (cds >> w) & 1])
    order = bfs_distances(inside, root)[1]
    rank = {v: i for i, v in enumerate(order)}
    tree = {w: min(inside.adj[w], key=rank.__getitem__) for w in order[1:]}
    for v in range(g.n):
        if not (cds >> v) & 1:
            dom = g.adj_mask[v] & cds
            tree[v] = (dom & -dom).bit_length() - 1
    internal = {root} | set(tree.values())
    leaves = frozenset(v for v in range(g.n) if v not in internal)
    return MaxLeafResult(
        value=g.n - cds.bit_count(), root=root, tree=tree, leaves=leaves
    )


# ---------------------------------------------------------------------------
# brute-force mutual visibility; the independence number through the gadget

def mu_brute(g: Graph, deadline: float | None = None) -> int:
    """Largest mutual-visibility set size by descending-size enumeration;
    valid because subsets of mutual-visibility sets stay mutually visible."""
    require_connected(g)
    n = g.n
    if n > MU_CAP:
        raise TooLargeError(f"mutual-visibility brute force capped at n={MU_CAP}")
    views = [bfs_root_view(g, v) for v in range(n)]
    checked = 0
    # any two vertices see each other, so for n >= 2 the loop ends by k = 2
    for k in range(n, 1, -1):
        for combo in combinations(range(n), k):
            checked += 1
            if checked & 0xFF == 0:
                check_deadline(deadline, "mutual-visibility brute force")
            if _pairwise_visible(views, combo):
                return k
    return 1


def alpha_brute(g: Graph, deadline: float | None = None) -> int:
    """Maximum independent set size through the paper's hardness gadget:
    the apex of np_gadget(g) has visibility number m(g) + alpha(g).  Refuses
    n > ALPHA_CAP, then (in np_gadget) a graph with an isolated vertex.  Not
    exported; it stays here because the benchmark's oracle test calls it."""
    if g.n > ALPHA_CAP:
        raise TooLargeError(f"independence brute force capped at n={ALPHA_CAP}")
    red = np_gadget(g)
    return vx_exact(red.gprime, red.apex, deadline).value - red.k_offset
