"""Command-line front door.

Graphs are read either from a file in the `p/e` line format or from a family
spec like grid:5 or kxk:3,2 (a name from generators.FAMILIES, a colon, and
the parameters; seeded families draw from --seed).  All ids in files, flags,
and output are 1-based.  Exit codes: 0 success, 1 computation error
(disconnected input, caps, timeouts), 2 usage error, 3 verification failure
(the verify and witness verbs).  Each verb returns (exit_code, payload,
lines) and main prints one of them: the payload as JSON with --format json,
else the text lines.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

from .bounds import bounds_report, closed_form_notes
from .errors import (
    GraphFormatError,
    IdOutOfRangeError,
    InvalidParameterError,
    VertexVisError,
    WitnessRejectedError,
    check_deadline,
)
from .generators import (
    FAMILIES,
    FamilySpec,
    generate,
    np_gadget,
    parse_family_spec,
)
from .graph import (
    Graph,
    check_vertex_count,
    format_graph,
    read_graph_file,
    read_text,
    to_external_ids,
    write_graph_file,
)
from .solvers import (
    max_leaf_spanning_tree,
    mu_brute,
    vv_exact,
    vx_brute,
    vx_exact,
    vx_greedy,
)
from .visibility import is_x_visibility_set
from .witnesses import WITNESS_BUILDERS, witness_for


def _load_graph(where: str, seed: int, deadline) -> Graph:
    name, sep, _ = where.partition(":")
    if sep and name in FAMILIES:
        return generate(parse_family_spec(where), seed, deadline)
    return read_graph_file(where, deadline)


def _read_set_file(path: str, n: int):
    members: set[int] = set()
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("#"):
            continue
        try:
            i = int(line)
        except ValueError as exc:
            raise GraphFormatError(
                f"{path}:{lineno}: expected one 1-based id per line"
            ) from exc
        if not 1 <= i <= n:
            raise IdOutOfRangeError(f"{path}:{lineno}: id {i} outside 1..{n}")
        if i - 1 in members:
            raise GraphFormatError(f"{path}:{lineno}: repeated id {i}")
        members.add(i - 1)
    return frozenset(members)


def _cmd_gen(args, g: Graph, _x):
    comment = f"generated from {args.input}"
    if args.output:
        write_graph_file(args.output, g, comment)
        return 0, None, []
    return 0, None, [format_graph(g, comment).rstrip("\n")]


def _cmd_vx(args, g: Graph, x: int):
    solver = {"exact": vx_exact, "brute": vx_brute, "greedy": vx_greedy}[args.method]
    res = solver(g, x, args.deadline)
    at_least = ">= " if args.method == "greedy" else ""
    return 0, res.to_json_dict(), [
        f"root {args.root}: visibility number {at_least}{res.value} ({res.method})",
        f"witness: {to_external_ids(res.witness)}",
    ]


def _cmd_vv(args, g: Graph, _x):
    res = vv_exact(g, args.deadline)
    return 0, res.to_json_dict(), [
        f"vertex visibility number {res.value}, attained at root {res.root + 1}",
        f"witness: {to_external_ids(res.witness)}",
    ]


def _cmd_verify(args, g: Graph, x: int):
    members = _read_set_file(args.set, g.n)
    ok = is_x_visibility_set(g, x, members)
    return 0 if ok else 3, {"root": args.root, "size": len(members), "visible": ok}, [
        f"set of size {len(members)} is" + ("" if ok else " NOT")
        + f" a visibility set for root {args.root}"
    ]


def _cmd_bounds(args, g: Graph, x: int | None):
    report = bounds_report(
        g,
        x=x,
        compute_mu=args.mu,
        compute_exact=args.exact,
        deadline=args.deadline,
    )
    lines = [f"n={report.n} m={report.m} delta={report.delta}"]
    for e in report.entries:
        flag = "" if e.applicable else " (not applicable)"
        lines.append(f"  [{e.scope}] {e.name}: {e.kind} {e.value}{flag}")
    if report.mu is not None:
        lines.append(f"  mutual visibility number: {report.mu}")
    if report.exact_value is not None:
        lines.append(
            f"  exact: {report.exact_value} at root {report.exact_root + 1}"
        )
    return 0, report.to_json_dict(), lines


def _cmd_reduce(args, g: Graph, _x):
    red = np_gadget(g)
    comment = (
        f"visibility gadget of {args.input}; apex {red.apex + 1}; "
        f"threshold offset {red.k_offset}"
    )
    lines = [
        f"gadget: n={red.gprime.n} m={red.gprime.m} apex={red.apex + 1} "
        f"threshold offset={red.k_offset}"
    ]
    if args.output:
        write_graph_file(args.output, red.gprime, comment)
        lines.append(f"graph written to {args.output}")
    elif args.format == "text":  # main prints the payload alone with --format json
        lines.append(format_graph(red.gprime, comment).rstrip("\n"))
    payload = {
        "n": red.gprime.n,
        "m": red.gprime.m,
        "apex": red.apex + 1,
        "k_offset": red.k_offset,
        "original_vertices": [v + 1 for v in red.original_map],
        "edge_vertices": {
            f"{u + 1}-{v + 1}": ev + 1 for (u, v), ev in sorted(red.edge_vertex_map.items())
        },
    }
    return 0, payload, lines


def _cmd_witness(args, _g, _x):
    spec = parse_family_spec(args.spec)
    w = witness_for(spec.family, spec.args[0])
    row, col = w.root_coords()
    notes = closed_form_notes(spec)
    return 0, {**w.to_json_dict(), "notes": list(notes)}, [
        f"{spec}: witness of size {w.claimed_size} at root "
        f"({row},{col}) id {w.root + 1}; verified",
        f"set: {to_external_ids(w.members)}",
    ] + [f"note: {note}" for note in notes]


def _cmd_table(args, _g, _x):
    lo, _, hi = args.range.partition("..")
    try:
        lo_n, hi_n = int(lo), int(hi)
    except ValueError as exc:
        raise InvalidParameterError("range must look like 4..8") from exc
    if lo_n > hi_n:
        raise InvalidParameterError(f"range {args.range} is empty")
    top = FAMILIES[args.family].vertices(hi_n)
    check_vertex_count(top, f"{args.family}:{hi_n}")
    rows = []
    notes: set[str] = set()
    for n in range(lo_n, hi_n + 1):
        check_deadline(args.deadline, "table")
        spec = FamilySpec(args.family, (n,))
        notes.update(closed_form_notes(spec))
        # the witness is built to the closed form, and _finish checks its size
        w = witness_for(args.family, n)
        exact = None
        if args.exact_max is not None and n <= args.exact_max:
            exact = vv_exact(w.graph, args.deadline).value
        rows.append({"n": n, "closed_form": w.claimed_size, "witness": len(w.members),
                     "exact": exact})
    lines = [f"{args.family}: n, closed form, witness size, exact"]
    for r in rows:
        exact = "-" if r["exact"] is None else str(r["exact"])
        lines.append(f"  {r['n']:3d}  {r['closed_form']:6d}  {r['witness']:6d}  {exact:>5}")
    lines += [f"note: {note}" for note in sorted(notes)]
    return 0, {"family": args.family, "rows": rows, "notes": sorted(notes)}, lines


def _cmd_maxleaf(args, g: Graph, _x):
    res = max_leaf_spanning_tree(g, args.deadline)
    return 0, res.to_json_dict(), [
        f"maximum spanning-tree leaf count: {res.value}",
        f"leaves: {to_external_ids(res.leaves)}",
    ]


def _cmd_mu(args, g: Graph, _x):
    value = mu_brute(g, args.deadline)
    return 0, {"mu": value}, [f"mutual visibility number: {value}"]


def _seconds(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:  # false for NaN as well
        raise argparse.ArgumentTypeError(f"expected finite seconds >= 0, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every main() call in this process, built on the first;
    it is shared, so callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="vertexvis",
        description="Exact vertex visibility computations on graphs.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    # options shared by several verbs; each verb takes as parents only those
    # its handler reads
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("input", help="family spec (e.g. grid:5) or graph file")
    source.add_argument("--seed", type=int, default=0, help="seed for random:* specs")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    timed = argparse.ArgumentParser(add_help=False)
    timed.add_argument("--timeout", type=_seconds, default=None,
                       help="seconds for the whole request")
    root_help = "1-based root id"

    p = sub.add_parser("gen", parents=[source], help="materialize a family spec as a graph file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("vx", parents=[source, fmt, timed], help="visibility number of one root")
    p.add_argument("--root", type=int, required=True, help=root_help)
    p.add_argument("--method", choices=("exact", "brute", "greedy"), default="exact")
    p.set_defaults(func=_cmd_vx)

    p = sub.add_parser("vv", parents=[source, fmt, timed],
                       help="vertex visibility number of the graph")
    p.set_defaults(func=_cmd_vv)

    p = sub.add_parser("verify", parents=[source, fmt],
                       help="check a vertex set file against a root")
    p.add_argument("--root", type=int, required=True, help=root_help)
    p.add_argument("--set", required=True, help="file with one 1-based id per line")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", parents=[source, fmt, timed],
                       help="bound report, optionally with exact values")
    p.add_argument("--root", type=int, default=None, help=root_help)
    p.add_argument("--mu", action="store_true", help="compute the mutual-visibility entry")
    p.add_argument("--exact", action="store_true", help="solve exactly as well")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("reduce", parents=[source, fmt],
                       help="build the independent-set hardness gadget")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("witness", parents=[fmt], help="construct and verify an extremal set")
    p.add_argument("spec", help=", ".join(f"{f}:<n>" for f in WITNESS_BUILDERS))
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("table", parents=[fmt, timed],
                       help="closed form vs witness vs exact over a range")
    p.add_argument("family", choices=tuple(WITNESS_BUILDERS))
    p.add_argument("--range", required=True, help="e.g. 4..8")
    p.add_argument("--exact-max", type=int, default=None)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("maxleaf", parents=[source, fmt, timed],
                       help="maximum spanning-tree leaf count")
    p.set_defaults(func=_cmd_maxleaf)

    p = sub.add_parser("mu", parents=[source, fmt, timed],
                       help="mutual visibility number (exhaustive)")
    p.set_defaults(func=_cmd_mu)

    return parser


def main(argv=None) -> int:
    """Run one request, in this order: start the clock of its --timeout
    budget (the one deadline every timed step of the request checks), load
    the graph of a verb that takes one, check its 1-based --root, and only
    then run the verb, which gets the graph and the 0-based root (None for
    a verb without them) and returns (exit_code, payload, lines); print the
    payload as one JSON line with --format json, else the lines, and return
    the exit code.  An error, in printing too, is one stderr line."""
    args = build_parser().parse_args(argv)
    timeout = getattr(args, "timeout", None)
    args.deadline = None if timeout is None else time.monotonic() + timeout
    try:
        g = _load_graph(args.input, args.seed, args.deadline) if hasattr(args, "input") else None
        root = getattr(args, "root", None)
        if root is not None and not 1 <= root <= g.n:
            raise IdOutOfRangeError(f"root {root} outside 1..{g.n}")
        code, payload, lines = args.func(args, g, None if root is None else root - 1)
        # one compact line with sorted keys: without indent, json.dumps runs
        # its C encoder
        if getattr(args, "format", "text") == "json":
            print(json.dumps(payload, sort_keys=True))
        else:
            for line in lines:
                print(line)
        return code
    except WitnessRejectedError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except (VertexVisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
