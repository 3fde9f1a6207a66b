"""The three workload corpora and their reference values.

Every graph a workload uses comes from the program's own generators, so
building the corpus is part of the timed set-up.  The program receives only
spec strings or graph and set files written here.  Each corpus is fixed by
the constants below; the run's ``--seed`` sets the order in which requests
are sent.  Random bases are drawn from committed corpus seeds instead of the
run seed because the exact search time of one random instance varies several
fold with its draw: re-drawing 36-48 gadget bases per seed moved the summed
solve time by 10-14 % (coefficient of variation over six seeds, 2-core x86-64
VM), more than the benchmark's bounds allow.  Instances left out, and why,
are listed in baseline.json.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import check

WORKLOADS = ("families-vv", "gadget-vx", "sparse-vx")

FAMILY_SPECS = (
    [f"grid:{n}" for n in range(4, 13)]
    + [f"prism:{n}" for n in range(4, 10)]
    + [f"torus:{n}" for n in range(4, 10)]
    + [f"figure1:{k}" for k in range(1, 5)]
    + ["cocktail:6", "kxk:5,4"]
)

# gadget-vx: np_gadget of G(n, d/(n-1)) bases, n rising from 42 to 60 and
# average degree d cycling through 8, 9, 10.  Bases below n = 50 are cheap
# and mostly cost parsing; they give the latency figures enough requests.
GADGET_SEED = 2510
GADGET_COUNT = 28

# sparse-vx: grids at the centre root, random graphs with |dag_in| up to 9,
# random trees and block graphs; exact and greedy on each root.
SPARSE_SEED = 2510
SPARSE_GRIDS = (40, 60)
SPARSE_RANDOM = (("random:200,0.03", 200, 0.03, 4),) * 3
SPARSE_TREELIKE = (("rtree:400", 2), ("rblock:400", 2))
# Sampled roots left out: exact vx takes 9.5 s here, longer than the rest of
# the pass together, which would leave too few passes per run.
SPARSE_LEFT_OUT = {"random:200,0.03#1@22"}

# Exact vx of the sparse-vx roots whose value has no closed form, keyed by
# request label (graph, then 1-based root).  Computed with vx_exact of the
# commit that introduced the benchmark; the certificate of every answer is
# checked as well.  Tree roots are checked against check.tree_value instead.
SPARSE_TABLE = {
    "grid:40@780": 801,
    "grid:60@1770": 1801,
    "random:200,0.03#0@72": 141,
    "random:200,0.03#0@102": 144,
    "random:200,0.03#0@126": 142,
    "random:200,0.03#0@162": 133,
    "random:200,0.03#1@68": 138,
    "random:200,0.03#1@129": 140,
    "random:200,0.03#1@169": 144,
    "random:200,0.03#2@1": 140,
    "random:200,0.03#2@97": 143,
    "random:200,0.03#2@124": 138,
    "random:200,0.03#2@127": 141,
    "rblock:400@39": 259,
    "rblock:400@265": 258,
}


@dataclass
class Request:
    """One CLI call and what its answer must satisfy."""

    rid: str
    argv: list
    kind: str  # "vv", "vx" or "verify"
    source: str  # the spec string or graph file the program reads
    graph: object  # the benchmark's own copy, used only for checking
    root: int | None = None  # 0-based
    method: str = "exact"
    expect: int | None = None  # reference value
    expect_exit: int = 0
    base: object = None  # gadget base graph, for the alpha reference
    offset: int = 0  # gadget threshold offset m(base)

    @property
    def label(self) -> str:
        """The graph and root, shared by the exact and greedy requests."""
        return self.rid.rpartition("/")[0]


def build(workload: str, prog, seed: int, workdir: str) -> list:
    """Generate the corpus, write its files, and order it by seed."""
    requests = {
        "families-vv": _families,
        "gadget-vx": _gadgets,
        "sparse-vx": _sparse,
    }[workload](prog, workdir)
    random.Random(seed).shuffle(requests)
    return requests


def attach_references(requests: list) -> None:
    """Fill in reference values; not part of the timed set-up."""
    for r in requests:
        if r.kind == "vv":
            family, _, rest = r.source.partition(":")
            r.expect = check.family_value(family, tuple(int(a) for a in rest.split(",")))
        elif r.base is not None:
            r.expect = r.offset + check.independence_number(r.base.adj)
        elif r.kind == "vx" and r.rid.startswith("rtree"):
            r.expect = check.tree_value(r.graph.adj, r.root)
        elif r.kind == "vx":
            r.expect = SPARSE_TABLE.get(r.label)


def _families(prog, workdir):
    gen = prog.generators
    out = []
    for spec in FAMILY_SPECS:
        g = gen.generate(gen.parse_family_spec(spec))
        out.append(Request(spec, ["vv", spec, "--format", "json"], "vv", spec, g))
    return out


def _write(prog, workdir, name, g):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(prog.graph.format_graph(g))
    return path


def _vx(rid, source, g, root, method):
    argv = ["vx", source, "--root", str(root + 1), "--method", method, "--format", "json"]
    return Request(f"{rid}@{root + 1}/{method}", argv, "vx", source, g, root, method)


def _gadgets(prog, workdir):
    gen = prog.generators
    rng = random.Random(GADGET_SEED)
    out = []
    for i in range(GADGET_COUNT):
        n = 42 + (18 * i) // (GADGET_COUNT - 1)
        degree = 8 + i % 3
        base = gen.random_connected_graph(n, degree / (n - 1), rng.randrange(1 << 30))
        red = gen.np_gadget(base)
        path = _write(prog, workdir, f"gadget{i}.gr", red.gprime)
        argv = ["vx", path, "--root", str(red.apex + 1), "--format", "json"]
        out.append(Request(f"gadget{i}@{red.apex + 1}/exact", argv, "vx", path, red.gprime,
                           red.apex, base=base, offset=red.k_offset))
    return out


def _sparse(prog, workdir):
    gen = prog.generators
    rng = random.Random(SPARSE_SEED)
    out = []
    for n in SPARSE_GRIDS:
        spec = f"grid:{n}"
        g = gen.generate(gen.parse_family_spec(spec))
        centre = (n + 1) // 2 - 1
        for method in ("exact", "greedy"):
            out.append(_vx(spec, spec, g, centre * n + centre, method))
        w = prog.witnesses.witness_for("grid", n)
        extra = min(v for v in range(g.n) if v != w.root and v not in w.members)
        for tag, members, code in (("ok", w.members, 0), ("bad", w.members | {extra}, 3)):
            path = os.path.join(workdir, f"grid{n}-{tag}.set")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("".join(f"{v + 1}\n" for v in sorted(members)))
            argv = ["verify", spec, "--root", str(w.root + 1), "--set", path, "--format", "json"]
            out.append(Request(f"{spec}@{w.root + 1}/verify-{tag}", argv, "verify",
                               spec, g, w.root, expect=len(members), expect_exit=code))
    graphs = []
    for i, (label, n, p, roots) in enumerate(SPARSE_RANDOM):
        g = gen.random_connected_graph(n, p, rng.randrange(1 << 30))
        graphs.append((f"{label}#{i}", g, roots))
    for label, roots in SPARSE_TREELIKE:
        family, _, n = label.partition(":")
        maker = gen.random_tree if family == "rtree" else gen.random_block_graph
        graphs.append((label, maker(int(n), rng.randrange(1 << 30)), roots))
    for label, g, roots in graphs:
        path = _write(prog, workdir, label.replace(":", "-").replace(",", "_") + ".gr", g)
        for root in rng.sample(range(g.n), roots):
            if f"{label}@{root + 1}" in SPARSE_LEFT_OUT:
                continue
            for method in ("exact", "greedy"):
                out.append(_vx(label, path, g, root, method))
    return out
