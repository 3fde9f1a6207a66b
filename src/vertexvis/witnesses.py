"""Deterministic extremal visibility sets for square grids, prisms, toruses.

Each construction fixes a root, partitions the coordinate quadrants around
it into equal-distance diagonals, takes ceil(|D|/2) alternating vertices
from every diagonal D, and appends a residue-dependent handful of axis
vertices.  A WITNESS_BUILDERS row holds only what differs between families,
the root and that member rule; witness_for, the module's one entry point,
runs the rest for all of them.  It takes the family's closed-form target
before it builds anything, so an n below the closed form's range is refused
there, builds the graph with generate and one root view, which the member
rule reads and the visibility check sweeps, and raises WitnessRejectedError
for a set of the wrong size or one that fails that check rather than
returning quietly.

Coordinates are 1-based (row k, column l) with vertex id (k-1)*n + (l-1),
matching the product id convention from the generators module.
"""

from __future__ import annotations

from typing import NamedTuple

from .bounds import closed_form
from .errors import InvalidParameterError, WitnessRejectedError
from .generators import FamilySpec, generate
from .graph import Graph, RootView, bfs_root_view, to_external_ids
from .visibility import _members_all_visible

__all__ = ["WitnessResult", "WITNESS_BUILDERS", "witness_for"]


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
    """Diagonals of one coordinate quadrant around x, read off dist, the
    distances from x.

    Quadrant 1 is above-left of x (smaller row, smaller column), then 2
    above-right, 3 below-right, 4 below-left.  A diagonal collects the
    quadrant vertices at one graph distance from x, listed by increasing
    row (walking the quadrant's own rows in order does that); diagonals are
    returned by increasing distance.
    """
    xr, xc = divmod(x, n)
    rows = range(xr) if quadrant in (1, 2) else range(xr + 1, n)
    cols = range(xc) if quadrant in (1, 4) else range(xc + 1, n)
    groups: dict[int, list[int]] = {}
    for r in rows:
        for v in range(r * n + cols.start, r * n + cols.stop):
            groups.setdefault(dist[v], []).append(v)
    return [groups[d] for d in sorted(groups)]


def _selection(rv: RootView, n, parities: dict[int, bool]) -> set[int]:
    out: set[int] = set()
    for quadrant, from_top in parities.items():
        for diag in _diagonals(n, rv.dist, rv.root, quadrant):
            # ceil(|D|/2) alternating vertices, from the smallest row when
            # from_top, else from the largest; odd-length diagonals keep
            # both ends either way
            out.update(diag[0::2] if from_top else diag[::-1][0::2])
    return out


def _grid_members(n: int, rv: RootView) -> set[int]:
    members = {_coord_id(n, k, 1) for k in range(1, n + 1)}
    members |= {_coord_id(n, 1, l) for l in range(1, n + 1) if l != 2}
    return members | _selection(rv, n, {3: True})


def _prism_members(n: int, rv: RootView) -> set[int]:
    members = {_coord_id(n, 1, l) for l in range(1, n + 1)}
    if n % 4 == 1:
        members.add(_coord_id(n, n, (n + 1) // 2))
    return members | _selection(rv, n, {3: True, 4: True})


def _torus_members(n: int, rv: RootView) -> set[int]:
    c = (n + 1) // 2
    # Quadrant parities: the upper quadrants (1, 2) alternate from their top
    # row and the lower ones from their bottom row (the pattern is symmetric
    # under rotating the picture around the root), except for n = 2 mod 4,
    # where the split is left/right instead (1, 4 from the top).  Chosen so
    # the verification gate passes for every n in 4..24; other parities fail,
    # e.g. all-from-top at n = 6 leaves a member with every predecessor
    # selected.
    top = (1, 4) if n % 4 == 2 else (1, 2)
    members = _selection(rv, n, {q: q in top for q in range(1, 5)})
    # the axis vertices by n mod 4 = 0, 1, 2, 3
    extras = ([(c, 1)], [], [(c, n), (n, c)], [(c, 1), (c, n)])[n % 4]
    return members | {_coord_id(n, k, l) for k, l in extras}


# family -> (root (row, col) from n, member rule over the root's view)
WITNESS_BUILDERS = {
    "grid": (lambda n: (2, 2), _grid_members),
    "prism": (lambda n: (2, (n + 1) // 2), _prism_members),
    "torus": (lambda n: ((n + 1) // 2, (n + 1) // 2), _torus_members),
}


def witness_for(family: str, n: int) -> WitnessResult:
    """The verified construction of a WITNESS_BUILDERS family at n."""
    try:
        root, member_rule = WITNESS_BUILDERS[family]
    except KeyError:
        raise InvalidParameterError(
            f"witness constructions exist for {', '.join(WITNESS_BUILDERS)}; "
            f"got {family!r}"
        ) from None
    spec = FamilySpec(family, (n,))
    target = closed_form(spec)
    g = generate(spec)
    rv = bfs_root_view(g, _coord_id(n, *root(n)))
    members = member_rule(n, rv)
    if len(members) != target:
        raise WitnessRejectedError(
            f"{family}({n}) witness has size {len(members)}, wanted {target}"
        )
    if not _members_all_visible(rv, sum(1 << v for v in members)):
        raise WitnessRejectedError(f"{family}({n}) witness failed verification")
    return WitnessResult(family, n, g, rv.root, frozenset(members),
                         claimed_size=target, verified=True)

