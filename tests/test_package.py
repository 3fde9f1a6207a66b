import types

import vertexvis
from vertexvis import bounds, errors, generators, graph, solvers, visibility, witnesses

# the names the package exported when they were listed by hand
LISTED = (
    "BoundEntry", "BoundsReport", "CompleteGraphError", "DisconnectedError",
    "DuplicateEdgeError", "FamilySpec", "Graph", "GraphFormatError", "IdOutOfRangeError",
    "InvalidParameterError", "InvalidRegionError", "IsolatedVertexError", "MaxLeafResult",
    "NotBlockGraphError", "ReductionResult", "RootView", "SelfLoopError", "SolveResult",
    "SolveTimeoutError", "TooLargeError", "UnsupportedFamilyError", "VertexVisError",
    "WitnessRejectedError", "WitnessResult", "bfs_root_view", "block_graph_value",
    "bounds_report", "cartesian_bounds", "cartesian_product", "characterize_extremal",
    "clear_reachable", "closed_form", "closed_form_notes", "cocktail_party", "complete_graph",
    "complete_product", "cycle_graph", "double_star", "figure_family", "format_graph",
    "generate", "grid_graph", "grid_witness", "has_spanning_double_star",
    "has_universal_vertex", "interval", "is_block_graph", "is_connected", "is_geodetic",
    "is_mutual_visibility_set", "is_visible_from", "is_x_visibility_set",
    "max_leaf_spanning_tree", "maximally_distant", "mu_brute", "np_gadget",
    "parse_family_spec", "parse_graph", "path_graph", "prism_graph", "prism_witness",
    "quadrant_diagonals", "random_block_graph", "random_connected_graph",
    "random_graph_no_isolated", "random_tree", "read_graph_file", "simplicial_vertices",
    "star_graph", "stress_vertices", "to_external_ids", "torus_graph", "torus_witness",
    "vv_exact", "vx_brute", "vx_exact", "vx_greedy", "witness_for", "write_graph_file",
)

# public in their modules before, package names since the package re-exports __all__
ADDED = ("bfs_distances", "mask_to_set", "require_connected", "FAMILIES", "FIGURE_EDGES",
         "COMPLETE_PRODUCT_NOTE", "TORUS_EVEN_NOTE", "WITNESS_BUILDERS")

MODULES = (bounds, errors, generators, graph, solvers, visibility, witnesses)


def test_every_listed_name_is_still_exported():
    assert len(LISTED) == 79
    missing = [name for name in LISTED + ADDED if not hasattr(vertexvis, name)]
    assert missing == []


def test_package_names_are_the_modules_all():
    star: dict = {}
    exec("from vertexvis import *", star)
    exported = {name for name, value in star.items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == {name for module in MODULES for name in module.__all__}
    assert exported == set(LISTED + ADDED)
    assert len(errors.__all__) == 15
