"""Closed-form values, general bounds, and the provenance-tagged report.

Every entry in a report carries the mathematical reason it holds, a kind
(lower/upper), and a scope: "vv" entries bound the maximum visibility
number of the graph, "vx" entries bound the visibility number of the one
root the report was asked about.  Per-root lower bounds also bound vv (a
root's value never exceeds the maximum), but per-root upper bounds do not.

CLOSED_FORMS is the one place for a family's tabulated value and the
smallest parameter it holds from.  Two of its rows are known to disagree with
exact computation and are reported with their discrepancy notes instead of
being silently corrected or silently repeated; see closed_form_notes.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

from .errors import (
    CompleteGraphError,
    InvalidParameterError,
    NotBlockGraphError,
    UnsupportedFamilyError,
)
from .generators import FamilySpec
from .graph import Graph, is_block_graph, require_connected
from .solvers import _require_solvable, mu_brute, vv_exact, vx_exact
from .visibility import (
    _maximally_distant_mask,
    _stress_mask,
    has_spanning_double_star,
    has_universal_vertex,
    simplicial_vertices,
)

__all__ = [
    "BoundEntry",
    "BoundsReport",
    "bounds_report",
    "characterize_extremal",
    "closed_form",
    "closed_form_notes",
    "cartesian_bounds",
    "block_graph_value",
    "COMPLETE_PRODUCT_NOTE",
    "TORUS_EVEN_NOTE",
]

COMPLETE_PRODUCT_NOTE = (
    "complete products K_m box K_n (m >= n >= 2): the product bounds pin the "
    "value to mn-n = (m-1)n, and exact solves agree (K_3 box K_2 gives 4, "
    "K_4 box K_3 gives 9); the sometimes-quoted closed form mn-m contradicts "
    "both and is not used"
)

TORUS_EVEN_NOTE = (
    "square torus, even n >= 6: the tabulated value (n^2+2)/2 is a verified "
    "lower bound but not the maximum; exact solves give (n^2+n-2)/2 (20 at "
    "n=6, 35 at n=8, 54 at n=10, 77 at n=12), packing the full antipodal "
    "row, which the diagonal-alternation counting behind the tabulated "
    "value does not allow"
)


class BoundEntry(NamedTuple):
    name: str
    kind: str  # "lower" | "upper"
    value: int
    applicable: bool
    provenance: str
    scope: str  # "vv" | "vx"

    def to_json_dict(self) -> dict:
        return self._asdict()


class BoundsReport(NamedTuple):
    n: int
    m: int
    delta: int
    root: int | None
    entries: tuple[BoundEntry, ...]
    mu: int | None = None
    exact_value: int | None = None
    exact_root: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "graph": {"n": self.n, "m": self.m, "delta": self.delta},
            "root": None if self.root is None else self.root + 1,
            "bounds": [e.to_json_dict() for e in self.entries],
            "mu": self.mu,
            "exact": None
            if self.exact_value is None
            else {"value": self.exact_value, "root": self.exact_root + 1},
        }


def bounds_report(
    g: Graph,
    x: int | None = None,
    compute_mu: bool = False,
    compute_exact: bool = False,
    deadline: float | None = None,
) -> BoundsReport:
    """Assemble every applicable bound; per-root entries appear only when a
    root is given.  The mutual-visibility entry is exponential to evaluate
    and therefore opt-in; when skipped it is reported as not applicable
    rather than estimated.  _require_solvable checks the graph, and a
    root, before any work and returns the root's view (vertex 0's without
    one): the per-root entries read it, and an exact solve at x builds its
    own.  Its mu and exact solves and the stress-vertex pass share the one
    deadline."""
    rv = _require_solvable(g, 0 if x is None else x)
    n, delta = g.n, g.max_degree()
    entries: list[BoundEntry] = []
    entries.append(
        BoundEntry(
            "order_upper",
            "upper",
            n - 1,
            True,
            "a visibility set excludes its root",
            "vv",
        )
    )
    entries.append(
        BoundEntry(
            "max_degree_lower",
            "lower",
            delta,
            True,
            "the open neighborhood of a max-degree vertex is a visibility set from it",
            "vv",
        )
    )
    universal = has_universal_vertex(g)
    entries.append(
        BoundEntry(
            "degree_order_upper",
            "upper",
            (n * delta - 1) // (delta + 1),
            universal is None,
            "without a universal vertex, members outside the root's "
            "neighborhood need unblocked outside neighbors; counting both "
            "sides gives floor((n*delta-1)/(delta+1))",
            "vv",
        )
    )
    mu_value: int | None = None
    if compute_mu:
        mu_value = mu_brute(g, deadline)
    entries.append(
        BoundEntry(
            "mutual_visibility_lower",
            "lower",
            (mu_value - 1) if mu_value is not None else 0,
            mu_value is not None,
            "dropping one vertex from a maximum mutual-visibility set leaves "
            "a visibility set from the dropped vertex",
            "vv",
        )
    )
    if x is not None:
        entries.append(
            BoundEntry(
                "max_distant_lower",
                "lower",
                _maximally_distant_mask(rv).bit_count(),
                True,
                "some maximum visibility set for the root contains every "
                "maximally distant vertex",
                "vx",
            )
        )
        entries.append(
            BoundEntry(
                "stress_upper",
                "upper",
                n - _stress_mask(rv, deadline).bit_count() - 1,
                True,
                "no maximum visibility set for the root needs a stress vertex",
                "vx",
            )
        )
        entries.append(
            BoundEntry(
                "eccentricity_lower",
                "lower",
                math.ceil((n - 1) / rv.ecc),
                True,
                "a largest distance layer is a visibility set from the root",
                "vx",
            )
        )
        entries.append(
            BoundEntry(
                "eccentricity_upper",
                "upper",
                n - rv.ecc,
                True,
                "a geodesic to an eccentric vertex meets a visibility set at "
                "most once",
                "vx",
            )
        )
    exact_value = exact_root = None
    if compute_exact:
        if x is not None:
            res = vx_exact(g, x, deadline)
        else:
            res = vv_exact(g, deadline)
        exact_value, exact_root = res.value, res.root
    return BoundsReport(
        n=n,
        m=g.m,
        delta=delta,
        root=x,
        entries=tuple(entries),
        mu=mu_value,
        exact_value=exact_value,
        exact_root=exact_root,
    )


def characterize_extremal(g: Graph) -> str:
    """Classify the graph: "top" when the maximum visibility number is n-1
    (exactly the graphs with a universal vertex), "second" when it is n-2
    (no universal vertex but a spanning double star), else "other"."""
    _require_solvable(g, 0)
    if has_universal_vertex(g) is not None:
        return "top"
    if has_spanning_double_star(g):
        return "second"
    return "other"


# Tabulated maximum visibility numbers: family -> (smallest parameter, value
# formula).  The formula takes the spec's parameters and holds whenever every
# one of them is at least the smallest.
CLOSED_FORMS: dict[str, tuple[int, Callable[..., int]]] = {
    "path": (2, lambda n: 2 if n >= 3 else 1),
    "cycle": (3, lambda n: 2),
    "complete": (2, lambda n: n - 1),
    "grid": (4, lambda n: (n * n + n - 2) // 2),
    # prism and torus: the value by n mod 4 = 0, 1, 2, 3
    "prism": (4, lambda n: ((2 * n * n + n) // 4, (n * n + 3) // 2,
                            (2 * n * n + n - 2) // 4, (n * n + n - 2) // 2)[n % 4]),
    "torus": (4, lambda n: ((n * n + 2) // 2, (n * n - 1) // 2,
                            (n * n + 2) // 2, (n * n + 3) // 2)[n % 4]),
    "kxk": (2, lambda m, n: m * n - min(m, n)),
}


def closed_form(spec: FamilySpec) -> int:
    """Tabulated maximum visibility number of a family spec, from CLOSED_FORMS.

    The complete-product and even-torus entries carry discrepancy notes;
    see closed_form_notes.
    """
    try:
        least, formula = CLOSED_FORMS[spec.family]
    except KeyError:
        raise UnsupportedFamilyError(f"no closed form for family {spec.family!r}") from None
    if min(spec.args) < least:
        raise InvalidParameterError(
            f"{spec}: the {spec.family} closed form needs every parameter >= {least}"
        )
    return formula(*spec.args)


def closed_form_notes(spec: FamilySpec) -> tuple[str, ...]:
    """Discrepancy notes attached to a closed-form value, empty for the
    families whose tabulated values agree with exact computation."""
    if spec.family == "kxk":
        return (COMPLETE_PRODUCT_NOTE,)
    if spec.family == "torus" and spec.args[0] >= 6 and spec.args[0] % 2 == 0:
        return (TORUS_EVEN_NOTE,)
    return ()


def cartesian_bounds(g: Graph, h: Graph) -> tuple[int, int]:
    """General sandwich for a Cartesian product: layers through a max-degree
    vertex give the lower bound, and a full factor layer plus a full
    co-layer cannot both fit, giving the upper bound.  Factors are
    normalized so the first is the larger one."""
    require_connected(g)
    require_connected(h)
    if g.n < h.n:
        g, h = h, g
    lower = max(g.max_degree() * h.n, h.max_degree() * g.n)
    upper = (g.n - 1) * h.n
    return lower, upper


def block_graph_value(g: Graph) -> int:
    """Maximum visibility number of a non-complete block graph: the number
    of simplicial vertices (both sides of the distance-based sandwich meet
    there)."""
    require_connected(g)
    if not is_block_graph(g):
        raise NotBlockGraphError("graph has a non-complete biconnected component")
    if g.m == g.n * (g.n - 1) // 2:
        raise CompleteGraphError("complete graph: the value is n - 1")
    return len(simplicial_vertices(g))
