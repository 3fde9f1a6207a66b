"""Self-tests of the benchmark: output schema, checker, repeatable counts.

    python3 -m pytest bench/test_bench.py -q

Nothing here gates on timings.  The schema tests run the gadget-vx
workload with --seconds 0: three passes untraced, and one untraced plus one
traced pass in each of two traced runs (about two minutes in all).
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def _run(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(list(argv))
    return code, json.loads(out.getvalue().splitlines()[-1])


def _assert_schema(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_declared_metrics_match_the_harness():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.corpus.WORKLOADS)


def test_end_to_end_schema():
    code, result = _run("--workload", "gadget-vx", "--seconds", "0", "--trace", "0")
    assert code == 0
    _assert_schema(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_schema_and_exact_counts_repeat():
    runs = [_run("--workload", "gadget-vx", "--seed", "7", "--seconds", "0", "--trace", "1")
            for _ in range(2)]
    for code, result in runs:
        assert code == 0
        _assert_schema(result, SPEC["per_layer"])
    counts = [{c: r["metrics"][c]["value"] for c in tracing.COUNTS} for _, r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["solvers.roots"] > 0


def test_traced_pass_goes_through_the_cli_and_restores_it():
    prog = run.load_program()
    g = prog.generators.generate(prog.generators.parse_family_spec("grid:3"))
    argv = ["vx", "grid:3", "--root", "5", "--format", "json"]
    r = run.corpus.Request("grid:3@5/exact", argv, "vx", "grid:3", g, 4)
    tracer = tracing.Tracer()
    tp = tracing.TracedPass(prog, tracer, "t")
    clock = run.HostClock()
    code, payload, _ = tp(r, lambda r: run.cli_request(prog, clock, r))
    assert run.problems(prog, r, code, payload) == []
    names = [span[0] for span in tracer.spans]
    assert names == ["request", "generators.generate", "graph.bfs_root_view",
                     "solvers.vx_exact", "cli.to_json_dict", "cli.json.dumps",
                     "solvers.vx_greedy"]
    assert all(span[3] == 0 for span in tracer.spans[1:-1])
    assert tracer.spans[-1][3] is None
    assert prog.cli.vx_exact is prog.solvers.vx_exact
    assert prog.cli.json is json
    assert tp.metrics()["solvers.roots"] == 1


# ---------------------------------------------------------------------------
# the checker

def _cycle5():
    """C5 rooted at 0: layers {0}, {1, 4}, {2, 3}; the edge 2-3 stays inside
    the last layer."""
    prog = run.load_program()
    return prog, prog.generators.cycle_graph(5)


def _answer(prog, g, root):
    return prog.solvers.vx_exact(g, root).to_json_dict()


def _problems(prog, g, root, payload, expect):
    r = run.corpus.Request("t", [], "vx", "cycle:5", g, root, expect=expect)
    return run.problems(prog, r, 0, payload)


def test_checker_accepts_a_certified_answer():
    prog, g = _cycle5()
    payload = _answer(prog, g, 0)
    assert payload["value"] == 2
    assert _problems(prog, g, 0, payload, 2) == []


def test_checker_rejects_a_wrong_value():
    prog, g = _cycle5()
    assert _problems(prog, g, 0, _answer(prog, g, 0), 3)
    payload = dict(_answer(prog, g, 0), value=1)
    assert _problems(prog, g, 0, payload, None)


def test_checker_rejects_tree_edges_that_do_not_step_one_layer():
    prog, g = _cycle5()
    payload = _answer(prog, g, 0)
    same_layer = dict(payload, tree=dict(payload["tree"], **{"4": 3}))
    assert any("one layer" in p for p in _problems(prog, g, 0, same_layer, None))
    path = prog.generators.path_graph(4)
    skip = {"value": 1, "root": 1, "witness": [4], "tree": {"2": 1, "3": 2, "4": 2}}
    assert _problems(prog, path, 0, skip, None)


def test_checker_rejects_a_witness_that_is_not_visible():
    prog = run.load_program()
    g = prog.generators.path_graph(4)
    # vertex 4 is only reachable through vertex 2, which is also in the set
    payload = {"value": 2, "root": 1, "witness": [2, 4], "tree": {"2": 1, "3": 2, "4": 3}}
    found = _problems(prog, g, 0, payload, None)
    assert any("visibility" in p for p in found)
    assert not prog.visibility.is_x_visibility_set(g, 0, {1, 3})


def test_independence_oracle_agrees_with_the_program():
    prog = run.load_program()
    for seed in range(6):
        g = prog.generators.random_connected_graph(14, 0.3, seed)
        assert check.independence_number(g.adj) == prog.solvers.alpha_brute(g)
