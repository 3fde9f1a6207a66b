"""Deterministic extremal visibility sets for square grids, prisms, toruses.

Each construction fixes a root, partitions the coordinate quadrants around
it into equal-distance diagonals, takes ceil(|D|/2) alternating vertices
from every diagonal D, and appends a residue-dependent handful of axis
vertices.  Each builder makes one root view and holds it: the selection
reads its distances and the visibility check sweeps it.  A construction
that fails that check raises WitnessRejectedError rather than returning
quietly, and its size is checked against the family's closed-form target,
which each builder takes before it builds anything, so an n below the
closed form's range is refused there.

Coordinates are 1-based (row k, column l) with vertex id (k-1)*n + (l-1),
matching the product id convention from the generators module.
"""

from __future__ import annotations

from typing import NamedTuple

from .bounds import closed_form
from .errors import InvalidParameterError, InvalidRegionError, WitnessRejectedError
from .generators import FamilySpec, grid_graph, prism_graph, torus_graph
from .graph import Graph, RootView, bfs_distances, bfs_root_view, to_external_ids
from .visibility import _members_all_visible

__all__ = [
    "WitnessResult",
    "quadrant_diagonals",
    "grid_witness",
    "prism_witness",
    "torus_witness",
    "WITNESS_BUILDERS",
    "witness_for",
]


class WitnessResult(NamedTuple):
    family: str
    n: int
    graph: Graph
    root: int
    members: frozenset[int]
    claimed_size: int
    verified: bool

    def root_coords(self) -> tuple[int, int]:
        return (self.root // self.n + 1, self.root % self.n + 1)

    def to_json_dict(self) -> dict:
        row, col = self.root_coords()
        return {
            "family": self.family,
            "n": self.n,
            "root": {"id": self.root + 1, "row": row, "col": col},
            "set": to_external_ids(self.members),
            "claimed_size": self.claimed_size,
            "verified": self.verified,
        }


def _coord_id(n: int, k: int, l: int) -> int:
    return (k - 1) * n + (l - 1)


def _diagonals(n: int, dist, x: int, quadrant: int) -> list[list[int]]:
    # walking the quadrant's own rows in order lists each diagonal by row
    xr, xc = divmod(x, n)
    rows = range(xr) if quadrant in (1, 2) else range(xr + 1, n)
    cols = range(xc) if quadrant in (1, 4) else range(xc + 1, n)
    groups: dict[int, list[int]] = {}
    for r in rows:
        for v in range(r * n + cols.start, r * n + cols.stop):
            groups.setdefault(dist[v], []).append(v)
    return [groups[d] for d in sorted(groups)]


def quadrant_diagonals(g: Graph, n: int, x: int, quadrant: int) -> list[list[int]]:
    """Diagonals of one coordinate quadrant around x.

    Quadrant 1 is above-left of x (smaller row, smaller column), then 2
    above-right, 3 below-right, 4 below-left.  A diagonal collects the
    quadrant vertices at one graph distance from x, listed by increasing
    row; diagonals are returned by increasing distance.  No root view is built.
    """
    if g.n != n * n:
        raise InvalidRegionError("graph is not an n-by-n product")
    g.check_vertex(x)
    if quadrant not in (1, 2, 3, 4):
        raise InvalidRegionError(f"quadrant must be 1..4, got {quadrant}")
    return _diagonals(n, bfs_distances(g, x)[0], x, quadrant)


def _selection(rv: RootView, n, parities: dict[int, bool]) -> set[int]:
    out: set[int] = set()
    for quadrant, from_top in parities.items():
        for diag in _diagonals(n, rv.dist, rv.root, quadrant):
            # ceil(|D|/2) alternating vertices, from the smallest row when
            # from_top, else from the largest; odd-length diagonals keep
            # both ends either way
            out.update(diag[0::2] if from_top else diag[::-1][0::2])
    return out


def _finish(family: str, n: int, target: int, g: Graph, rv: RootView,
            members: set[int]) -> WitnessResult:
    if len(members) != target:
        raise WitnessRejectedError(
            f"{family}({n}) witness has size {len(members)}, wanted {target}"
        )
    if not _members_all_visible(rv, sum(1 << v for v in members)):
        raise WitnessRejectedError(f"{family}({n}) witness failed verification")
    return WitnessResult(
        family=family,
        n=n,
        graph=g,
        root=rv.root,
        members=frozenset(members),
        claimed_size=target,
        verified=True,
    )


def grid_witness(n: int) -> WitnessResult:
    """Extremal set for the square grid, rooted at (2,2): the whole first
    column, the first row except (1,2), and alternating diagonal vertices
    of the lower-right quadrant."""
    target = closed_form(FamilySpec("grid", (n,)))
    g = grid_graph(n)
    rv = bfs_root_view(g, _coord_id(n, 2, 2))
    members = {_coord_id(n, k, 1) for k in range(1, n + 1)}
    members |= {_coord_id(n, 1, l) for l in range(1, n + 1) if l != 2}
    members |= _selection(rv, n, {3: True})
    return _finish("grid", n, target, g, rv, members)


def prism_witness(n: int) -> WitnessResult:
    """Extremal set for the square prism (path rows, cyclic columns),
    rooted at (2, ceil(n/2)): the first row except the root column,
    alternating diagonals of both lower quadrants, plus the first-row
    center and, when n = 1 mod 4, the last-row center."""
    target = closed_form(FamilySpec("prism", (n,)))
    g = prism_graph(n)
    c = (n + 1) // 2
    rv = bfs_root_view(g, _coord_id(n, 2, c))
    members = {_coord_id(n, 1, l) for l in range(1, n + 1) if l != c}
    members |= _selection(rv, n, {3: True, 4: True})
    members.add(_coord_id(n, 1, c))
    if n % 4 == 1:
        members.add(_coord_id(n, n, c))
    return _finish("prism", n, target, g, rv, members)


def _torus_extras(n: int, c: int) -> list[tuple[int, int]]:
    if n % 4 == 1:
        return []
    if n % 4 == 3:
        return [(c, 1), (c, n)]
    if n % 4 == 0:
        return [(c, 1)]
    return [(c, n), (n, c)]


def torus_witness(n: int) -> WitnessResult:
    """Extremal set for the square torus, rooted at the center
    (ceil(n/2), ceil(n/2)): alternating diagonals of all four quadrants
    plus residue-dependent axis vertices."""
    target = closed_form(FamilySpec("torus", (n,)))
    g = torus_graph(n)
    c = (n + 1) // 2
    rv = bfs_root_view(g, _coord_id(n, c, c))
    # Quadrant parities: the upper quadrants (1, 2) alternate from their top
    # row and the lower ones from their bottom row (the pattern is symmetric
    # under rotating the picture around the root), except for n = 2 mod 4,
    # where the split is left/right instead (1, 4 from the top).  Chosen so
    # the verification gate passes for every n in 4..24; other parities fail,
    # e.g. all-from-top at n = 6 leaves a member with every predecessor
    # selected.
    top = (1, 4) if n % 4 == 2 else (1, 2)
    members = _selection(rv, n, {q: q in top for q in range(1, 5)})
    for k, l in _torus_extras(n, c):
        members.add(_coord_id(n, k, l))
    return _finish("torus", n, target, g, rv, members)


WITNESS_BUILDERS = {"grid": grid_witness, "prism": prism_witness, "torus": torus_witness}


def witness_for(family: str, n: int) -> WitnessResult:
    try:
        builder = WITNESS_BUILDERS[family]
    except KeyError:
        raise InvalidParameterError(
            f"witness constructions exist for {', '.join(WITNESS_BUILDERS)}; "
            f"got {family!r}"
        ) from None
    return builder(n)
