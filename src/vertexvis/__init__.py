"""Exact computation of vertex visibility numbers of graphs.

A visibility set for a root x is a vertex set S, x excluded, such that every
member can be reached from x along at least one shortest path whose interior
avoids S.  The package computes the largest such set for one root or over
all roots (with certificates), evaluates every applicable closed-form bound,
constructs verified extremal sets for square grids, prisms, and toruses, and
materializes the independent-set hardness gadget.
"""

from .bounds import (
    BoundEntry,
    BoundsReport,
    block_graph_value,
    bounds_report,
    cartesian_bounds,
    characterize_extremal,
    closed_form,
    closed_form_notes,
)
from .errors import (
    CompleteGraphError,
    DisconnectedError,
    DuplicateEdgeError,
    GraphFormatError,
    IdOutOfRangeError,
    InvalidParameterError,
    InvalidRegionError,
    IsolatedVertexError,
    NotBlockGraphError,
    SelfLoopError,
    SolveTimeoutError,
    TooLargeError,
    UnsupportedFamilyError,
    VertexVisError,
    WitnessRejectedError,
)
from .generators import (
    FamilySpec,
    ReductionResult,
    cartesian_product,
    cocktail_party,
    complete_graph,
    complete_product,
    cycle_graph,
    double_star,
    figure_family,
    generate,
    grid_graph,
    np_gadget,
    parse_family_spec,
    path_graph,
    prism_graph,
    random_block_graph,
    random_connected_graph,
    random_graph_no_isolated,
    random_tree,
    star_graph,
    torus_graph,
)
from .graph import (
    Graph,
    RootView,
    bfs_root_view,
    format_graph,
    interval,
    is_block_graph,
    is_connected,
    is_geodetic,
    parse_graph,
    read_graph_file,
    to_external_ids,
    write_graph_file,
)
from .solvers import (
    MaxLeafResult,
    SolveResult,
    max_leaf_spanning_tree,
    mu_brute,
    vv_exact,
    vx_brute,
    vx_exact,
    vx_greedy,
)
from .visibility import (
    clear_reachable,
    has_spanning_double_star,
    has_universal_vertex,
    is_mutual_visibility_set,
    is_visible_from,
    is_x_visibility_set,
    maximally_distant,
    simplicial_vertices,
    stress_vertices,
)
from .witnesses import (
    WitnessResult,
    grid_witness,
    prism_witness,
    quadrant_diagonals,
    torus_witness,
    witness_for,
)

__version__ = "0.1.0"
