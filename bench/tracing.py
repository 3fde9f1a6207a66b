"""Traced run: spans around the program calls that the CLI makes.

A traced pass sends the same requests through ``vertexvis.cli.main`` as an
untraced one.  While it runs, the names the CLI looks up at call time
(``read_graph_file``, ``generate``, ``vx_exact``, ``vx_greedy``, ``vv_exact``,
``is_x_visibility_set`` and ``json``) are bound to wrappers that record a
span around each call.  The ``vx`` wrappers call ``bfs_root_view`` in a span
of its own first; the solver then finds the view cached.  Two probes add
calls the CLI does not make, after the request and outside its time:

* after an exact ``vx`` request, ``vx_greedy`` on the same graph and root,
  whose BFS view is cached, so exact minus greedy is the search time;
* after a ``vv`` request, ``bfs_root_view``, ``vx_greedy`` and ``vx_exact`` on
  a fresh copy of the graph for every root ``vv_exact`` visits.

``trace.overhead_frac`` compares the traced requests with the same requests
sent untraced, one send each, over the same number of passes.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from types import SimpleNamespace

PER_LAYER = {
    "generators.build_s": "s",
    "graph.parse_s": "s",
    "graph.bfs_s": "s",
    "solvers.greedy_s": "s",
    "solvers.exact_s": "s",
    "solvers.search_s": "s",
    "solvers.vv_s": "s",
    "solvers.root_max_ms": "ms",
    "solvers.vv_over_roots": "ratio",
    "visibility.verify_s": "s",
    "cli.json_s": "s",
    "graph.nontrivial_layers": "count",
    "graph.constraints": "count",
    "graph.max_dag_in": "count",
    "solvers.roots": "count",
    "solvers.greedy_hit_frac": "ratio",
    "solvers.greedy_gap": "count",
    "trace.overhead_frac": "ratio",
}

# span name -> the per-layer time metric it adds to
SPAN_METRICS = {
    "graph.read_graph_file": "graph.parse_s",
    "graph.bfs_root_view": "graph.bfs_s",
    "solvers.vx_greedy": "solvers.greedy_s",
    "solvers.vx_exact": "solvers.exact_s",
    "solvers.vv_exact": "solvers.vv_s",
    "visibility.is_x_visibility_set": "visibility.verify_s",
    "cli.to_json_dict": "cli.json_s",
    "cli.json.dumps": "cli.json_s",
}

# exact counts: the same seed must give the same values, bit for bit
COUNTS = (
    "graph.nontrivial_layers",
    "graph.constraints",
    "graph.max_dag_in",
    "solvers.roots",
    "solvers.greedy_hit_frac",
    "solvers.greedy_gap",
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, request id]
    and written out once, at the end of the run."""

    def __init__(self):
        self.spans = []
        self.rid = "setup"
        self._open = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else None, self.rid])
        self._open.append(idx)
        self.spans[idx][1] = time.perf_counter()
        try:
            yield idx
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span; returns (result, seconds)."""
        with self.span(name) as idx:
            result = fn(*args, **kwargs)
        return result, self.spans[idx][2] - self.spans[idx][1]

    def module(self, module, prefix):
        """Stand-in for a module whose public functions each record a span."""

        def wrap(name, fn):
            return lambda *args: self.call(f"{prefix}.{name}", fn, *args)[0]

        public = {n: getattr(module, n) for n in dir(module) if not n.startswith("_")}
        return SimpleNamespace(**{n: wrap(n, f) for n, f in public.items() if callable(f)})

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, rid in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent, "rid": rid}
                handle.write(json.dumps(record) + "\n")


class TracedPass:
    """One pass of the corpus through the CLI, with its program calls traced."""

    def __init__(self, prog, tracer, label):
        self.prog = prog
        self.tracer = tracer
        self.label = label
        self.first_span = len(tracer.spans)
        self.graph = None  # the graph the current request loaded
        self.solved = None  # (root view, result, bfs s, solve s) of its vx call
        # per solved root: (root view, greedy value, exact value, bfs s, greedy s, exact s, from vv)
        self.roots = []

    def __call__(self, r, send):
        """send(r) with the CLI's program calls traced, then the probes;
        returns what send returns."""
        self.tracer.rid = f"{self.label}:{r.rid}"
        self.graph = self.solved = None
        with self._patched(), self.tracer.span("request"):
            answer = send(r)
        if r.kind == "vx" and r.method == "exact" and self.solved:
            rv, res, bfs_s, exact_s = self.solved
            greedy, greedy_s = self.tracer.call("solvers.vx_greedy", self.prog.solvers.vx_greedy,
                                                self.graph, r.root)
            self.roots.append((rv, greedy.value, res.value, bfs_s, greedy_s, exact_s, False))
        elif r.kind == "vv":
            self._probe_vv(r.source)
        return answer

    @contextmanager
    def _patched(self):
        cli = self.prog.cli
        saved = {name: getattr(cli, name) for name in _TRACED_NAMES}
        for name, wrapper in self._wrappers(saved).items():
            setattr(cli, name, wrapper)
        try:
            yield
        finally:
            for name, original in saved.items():
                setattr(cli, name, original)

    def _wrappers(self, cli):
        """Spanned stand-ins for the CLI's names, calling the originals in cli."""
        call, tracer = self.tracer.call, self.tracer

        def load(span, fn):
            def wrapped(*args):
                self.graph = call(span, fn, *args)[0]
                return self.graph
            return wrapped

        def solve(name):
            def wrapped(g, x, *rest):
                rv, bfs_s = call("graph.bfs_root_view", self.prog.graph.bfs_root_view, g, x)
                res, solve_s = call(f"solvers.{name}", cli[name], g, x, *rest)
                self.solved = (rv, res, bfs_s, solve_s)
                return _TimedJson(res, tracer)
            return wrapped

        return {
            "read_graph_file": load("graph.read_graph_file", cli["read_graph_file"]),
            "generate": load("generators.generate", cli["generate"]),
            "vx_exact": solve("vx_exact"),
            "vx_greedy": solve("vx_greedy"),
            "vv_exact": lambda *args: _TimedJson(
                call("solvers.vv_exact", cli["vv_exact"], *args)[0], tracer),
            "is_x_visibility_set": lambda *args: call(
                "visibility.is_x_visibility_set", cli["is_x_visibility_set"], *args)[0],
            "json": SimpleNamespace(dumps=lambda *args, **kwargs: call(
                "cli.json.dumps", cli["json"].dumps, *args, **kwargs)[0]),
        }

    def _probe_vv(self, spec):
        call, p = self.tracer.call, self.prog
        g = p.generators.generate(p.generators.parse_family_spec(spec))
        roots = [0] if g.n == 2 else [v for v in range(g.n) if g.degree(v) > 1]
        for x in roots:
            rv, bfs_s = call("graph.bfs_root_view", p.graph.bfs_root_view, g, x)
            greedy, greedy_s = call("solvers.vx_greedy", p.solvers.vx_greedy, g, x)
            exact, exact_s = call("solvers.vx_exact", p.solvers.vx_exact, g, x)
            self.roots.append((rv, greedy.value, exact.value, bfs_s, greedy_s, exact_s, True))

    def metrics(self) -> dict:
        """Per-layer times and exact counts of this pass."""
        out = {name: 0.0 for name in SPAN_METRICS.values()}
        root_max = 0.0
        for name, start, end, _, _ in self.tracer.spans[self.first_span:]:
            if name in SPAN_METRICS:
                out[SPAN_METRICS[name]] += end - start
            if name == "solvers.vx_exact":
                root_max = max(root_max, end - start)
        layers = constraints = max_in = gap = hits = 0
        search_s = vv_roots_s = 0.0
        for rv, greedy, exact, bfs_s, greedy_s, exact_s, from_vv in self.roots:
            loaded = [v for v, p in enumerate(rv.dag_in) if len(p) >= 2]
            layers += len({rv.dist[v] for v in loaded})
            constraints += len(loaded)
            max_in = max(max_in, max(len(p) for p in rv.dag_in))
            gap += exact - greedy
            hits += greedy == exact
            search_s += exact_s - greedy_s
            if from_vv:
                vv_roots_s += bfs_s + exact_s
        out.update({
            "solvers.search_s": search_s,
            "solvers.root_max_ms": root_max * 1000.0,
            "solvers.vv_over_roots": out["solvers.vv_s"] / vv_roots_s if vv_roots_s else 0.0,
            "graph.nontrivial_layers": layers,
            "graph.constraints": constraints,
            "graph.max_dag_in": max_in,
            "solvers.roots": len(self.roots),
            "solvers.greedy_hit_frac": hits / len(self.roots) if self.roots else 0.0,
            "solvers.greedy_gap": gap,
        })
        return out


# names in vertexvis.cli that a traced pass binds to spanned wrappers
_TRACED_NAMES = ("read_graph_file", "generate", "vx_exact", "vx_greedy", "vv_exact",
                 "is_x_visibility_set", "json")


class _TimedJson:
    """A solver result whose ``to_json_dict`` records a span."""

    def __init__(self, res, tracer):
        self._res = res
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._res, name)

    def to_json_dict(self):
        return self._tracer.call("cli.to_json_dict", self._res.to_json_dict)[0]
