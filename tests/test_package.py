import os
import subprocess
import sys
import types

import pytest

import vertexvis
from vertexvis import bounds, errors, generators, graph, solvers, visibility, witnesses

# the names the package exported when they were listed by hand
LISTED = (
    "BoundEntry", "BoundsReport", "CompleteGraphError", "DisconnectedError",
    "DuplicateEdgeError", "FamilySpec", "Graph", "GraphFormatError", "IdOutOfRangeError",
    "InvalidParameterError", "IsolatedVertexError", "MaxLeafResult",
    "NotBlockGraphError", "ReductionResult", "RootView", "SelfLoopError", "SolveResult",
    "SolveTimeoutError", "TooLargeError", "UnsupportedFamilyError", "VertexVisError",
    "WitnessRejectedError", "WitnessResult", "bfs_root_view", "block_graph_value",
    "bounds_report", "cartesian_bounds", "cartesian_product", "characterize_extremal",
    "clear_reachable", "closed_form", "closed_form_notes", "cocktail_party", "complete_graph",
    "complete_product", "cycle_graph", "double_star", "figure_family", "format_graph",
    "generate", "grid_graph", "has_spanning_double_star",
    "has_universal_vertex", "interval", "is_block_graph", "is_connected", "is_geodetic",
    "is_mutual_visibility_set", "is_visible_from", "is_x_visibility_set",
    "max_leaf_spanning_tree", "maximally_distant", "mu_brute", "np_gadget",
    "parse_family_spec", "parse_graph", "path_graph", "prism_graph",
    "random_block_graph", "random_connected_graph",
    "random_graph_no_isolated", "random_tree", "read_graph_file", "simplicial_vertices",
    "star_graph", "stress_vertices", "to_external_ids", "torus_graph",
    "vv_exact", "vx_brute", "vx_exact", "vx_greedy", "witness_for", "write_graph_file",
)

# public in their modules before, package names since the package re-exports __all__
ADDED = ("bfs_distances", "mask_to_set", "require_connected", "FAMILIES", "FIGURE_EDGES",
         "COMPLETE_PRODUCT_NOTE", "TORUS_EVEN_NOTE", "WITNESS_BUILDERS")

# deleted: witness_for is the one way to build a witness
REMOVED = ("grid_witness", "prism_witness", "torus_witness", "quadrant_diagonals",
           "InvalidRegionError")

MODULES = (bounds, errors, generators, graph, solvers, visibility, witnesses)


def test_every_listed_name_is_still_exported():
    assert len(LISTED) == 74
    missing = [name for name in LISTED + ADDED if not hasattr(vertexvis, name)]
    assert missing == []


def test_removed_names_are_gone():
    assert [name for name in REMOVED if hasattr(vertexvis, name)] == []
    assert [name for module in MODULES for name in REMOVED
            if name in module.__all__ or hasattr(module, name)] == []


def test_package_names_are_the_modules_all():
    star: dict = {}
    exec("from vertexvis import *", star)
    exported = {name for name, value in star.items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == {name for module in MODULES for name in module.__all__}
    assert exported == set(LISTED + ADDED)
    assert len(errors.__all__) == 14


# each result record's fields, in their documented order
RECORD_FIELDS = {
    "RootView": ("root", "dist", "ecc", "order", "starts", "dag_in_mask"),
    "SolveResult": ("value", "root", "witness", "tree", "method"),
    "MaxLeafResult": ("value", "root", "tree", "leaves"),
    "FamilySpec": ("family", "args"),
    "ReductionResult": ("gprime", "apex", "original_map", "edge_vertex_map", "k_offset"),
    "WitnessResult": ("family", "n", "graph", "root", "members", "claimed_size", "verified"),
    "BoundEntry": ("name", "kind", "value", "applicable", "provenance", "scope"),
    "BoundsReport": ("n", "m", "delta", "root", "entries", "mu", "exact_value", "exact_root"),
}


def _records():
    """One of each record, built from fresh inputs on every call."""
    g = vertexvis.grid_graph(4)
    report = vertexvis.bounds_report(g, 5, compute_exact=True)
    return {
        "RootView": vertexvis.bfs_root_view(g, 5),
        "SolveResult": vertexvis.vx_exact(g, 5),
        "MaxLeafResult": vertexvis.max_leaf_spanning_tree(g),
        "FamilySpec": vertexvis.parse_family_spec("kxk:3,2"),
        "ReductionResult": vertexvis.np_gadget(vertexvis.path_graph(4)),
        "WitnessResult": vertexvis.witness_for("grid", 5),
        "BoundEntry": report.entries[0],
        "BoundsReport": report,
    }


def test_records_keep_their_fields_and_compare_by_value():
    records, again = _records(), _records()
    assert set(records) == set(RECORD_FIELDS)
    for name, record in records.items():
        assert type(record) is getattr(vertexvis, name)
        assert record._fields == RECORD_FIELDS[name]
        assert record == again[name] and record is not again[name], name
        # immutable: assigning a field or a new attribute raises AttributeError
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None
    assert list(records["BoundEntry"].to_json_dict()) == list(RECORD_FIELDS["BoundEntry"])


def test_cli_import_loads_no_dataclasses_or_inspect():
    # before and after in one process, so a site hook that loads either
    # module already cannot trip it
    src = os.path.dirname(os.path.dirname(vertexvis.__file__))
    code = ("import sys; before = set(sys.modules); import vertexvis.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60, check=True).stdout
    assert out == "[]\n"
