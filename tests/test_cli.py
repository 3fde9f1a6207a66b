import importlib
import json
import os
import re
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import vertexvis
from vertexvis import cli, generators, graph, solvers, witnesses
from vertexvis.bounds import TORUS_EVEN_NOTE, bounds_report
from vertexvis.cli import main
from vertexvis.graph import format_graph, parse_graph, read_graph_file
from vertexvis.generators import generate, parse_family_spec
from vertexvis.solvers import max_leaf_spanning_tree, vv_exact, vx_exact, vx_greedy
from vertexvis.witnesses import witness_for

from oracles import diameter


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv):
    """The program as its own process: python -m vertexvis."""
    src = os.path.dirname(os.path.dirname(vertexvis.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "vertexvis", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_gen_round_trip(tmp_path, capsys):
    out = tmp_path / "grid4.gr"
    code, _, _ = run(capsys, "gen", "grid:4", "-o", str(out))
    assert code == 0
    g = read_graph_file(out)
    assert g == generate(parse_family_spec("grid:4"))


def test_gen_to_stdout(capsys):
    code, stdout, _ = run(capsys, "gen", "path:3")
    assert code == 0
    assert parse_graph(stdout).n == 3


def test_vv_json_value(capsys):
    code, stdout, _ = run(capsys, "vv", "grid:4", "--format", "json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["value"] == 9
    assert payload["method"] == "cover_bnb"


def test_vx_methods_agree(capsys):
    values = {}
    for method in ("exact", "brute"):
        code, stdout, _ = run(
            capsys, "vx", "cycle:6", "--root", "1", "--method", method,
            "--format", "json",
        )
        assert code == 0
        values[method] = json.loads(stdout)["value"]
    assert values["exact"] == values["brute"] == 2


def test_verify_accepts_solver_witness(tmp_path, capsys):
    res = vv_exact(generate(parse_family_spec("figure1:1")))
    setfile = tmp_path / "set.txt"
    setfile.write_text("".join(f"{v + 1}\n" for v in sorted(res.witness)))
    code, stdout, _ = run(
        capsys, "verify", "figure1:1", "--root", str(res.root + 1),
        "--set", str(setfile),
    )
    assert code == 0
    assert "is a visibility set" in stdout


def test_verify_hub_root_sixteen(tmp_path, capsys):
    # the shared hub of figure1:1 is external id 16; a maximum set there has
    # ten members
    from vertexvis.solvers import vx_exact

    g = generate(parse_family_spec("figure1:1"))
    res = vx_exact(g, 15)
    assert res.value == 10
    setfile = tmp_path / "hub.txt"
    setfile.write_text("".join(f"{v + 1}\n" for v in sorted(res.witness)))
    code, _, _ = run(
        capsys, "verify", "figure1:1", "--root", "16", "--set", str(setfile)
    )
    assert code == 0


def test_verify_rejects_bad_set(tmp_path, capsys):
    setfile = tmp_path / "set.txt"
    setfile.write_text("2\n4\n")  # both path neighbors of an end blocked
    code, stdout, _ = run(capsys, "verify", "path:4", "--root", "1", "--set", str(setfile))
    assert code == 3
    assert "NOT" in stdout


def test_set_file_rejections_name_path_and_line(tmp_path, capsys):
    setfile = tmp_path / "set.txt"
    for text, message in (("1\n12\n", "2: id 12 outside 1..9"),
                          ("# ids\n0\n", "2: id 0 outside 1..9"),
                          ("1\n\n1\n3\n", "3: repeated id 1"),
                          ("2\n3 4\n", "2: expected one 1-based id per line")):
        setfile.write_text(text)
        code, out, err = run(capsys, "verify", "grid:3", "--root", "5", "--set", str(setfile))
        assert (code, out, err) == (1, "", f"error: {setfile}:{message}\n"), text


def test_set_file_skips_one_leading_byte_order_mark(tmp_path, capsys):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text("1\n3\n", encoding="utf-8")
    marked.write_bytes("\ufeff1\n3\n".encode())
    request = ("verify", "path:3", "--root", "2", "--set")
    outcome = run(capsys, *request, str(marked))
    assert outcome == run(capsys, *request, str(plain)) and outcome[0] == 0
    marked.write_bytes("\ufeff1\n\ufeff3\n".encode())
    assert run(capsys, *request, str(marked)) == (
        1, "", f"error: {marked}:2: expected one 1-based id per line\n")


def test_table_rows(capsys):
    code, stdout, _ = run(
        capsys, "table", "torus", "--range", "4..8", "--exact-max", "5",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(stdout)
    rows = {r["n"]: r for r in payload["rows"]}
    assert [rows[n]["closed_form"] for n in range(4, 9)] == [9, 12, 19, 26, 33]
    assert rows[4]["exact"] == 9 and rows[5]["exact"] == 12
    assert rows[6]["exact"] is None
    assert all(rows[n]["witness"] == rows[n]["closed_form"] for n in range(4, 9))
    assert payload["notes"]


def test_table_solves_the_witness_graph(capsys, monkeypatch):
    # --exact-max solves the graph the witness was built on; no family
    # graph is generated a second time, and the table stays the same
    def refuse(*args):
        raise AssertionError("table generated a family graph")

    for family in ("grid", "prism", "torus"):
        argv = ("table", family, "--range", "4..6", "--exact-max", "5")
        before = run(capsys, *argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "generate", refuse)
            assert run(capsys, *argv) == before, family
        assert before[0] == 0 and before[1].count("\n") > 3, family


def test_table_refuses_an_empty_or_oversized_range_before_any_row(capsys):
    code, out, err = run(capsys, "table", "grid", "--range", "8..4")
    assert (code, out, err) == (1, "", "error: range 8..4 is empty\n")
    code, out, err = run(capsys, "table", "grid", "--range", "4-8")
    assert (code, out, err) == (1, "", "error: range must look like 4..8\n")
    # grid:142 is the first grid over the vertex cap; the top of the range is
    # checked before the 138 rows below it are built
    for top in ("142", "100000"):
        start = time.monotonic()
        code, out, err = run(capsys, "table", "grid", "--range", f"4..{top}")
        assert time.monotonic() - start < 1.0, top
        assert (code, out) == (1, "") and err.startswith(f"error: grid:{top} has n="), top
        assert err.endswith("above the limit of 20000 vertices\n"), top


def test_reduce_output(tmp_path, capsys):
    out = tmp_path / "gadget.gr"
    code, stdout, _ = run(
        capsys, "reduce", "path:5", "-o", str(out), "--format", "json"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["apex"] == 6
    assert payload["k_offset"] == 4
    g = read_graph_file(out)
    assert g.n == 10 and g.m == 23
    assert diameter(g) == 2
    # re-solving the emitted file at the apex reproduces offset + independence
    code, stdout, _ = run(
        capsys, "vx", str(out), "--root", "6", "--format", "json"
    )
    assert code == 0
    assert json.loads(stdout)["value"] == payload["k_offset"] + 3


def test_reduce_prints_the_gadget_without_an_output_file(capsys):
    code, out, err = run(capsys, "reduce", "path:5")
    assert (code, err) == (0, "")
    header, text = out.split("\n", 1)
    assert header == "gadget: n=10 m=23 apex=6 threshold offset=4"
    g = parse_graph(text)
    assert (g.n, g.m) == (10, 23)


def test_witness_command(capsys):
    code, stdout, _ = run(capsys, "witness", "grid:6", "--format", "json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["verified"] is True
    assert payload["claimed_size"] == 20
    assert sorted(payload["set"]) == sorted(
        v + 1 for v in witness_for("grid", 6).members
    )


def test_witness_carries_the_closed_form_notes(capsys):
    # the even torus's tabulated value is below the exact one (35 at n=8)
    code, stdout, _ = run(capsys, "witness", "torus:8", "--format", "json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["claimed_size"] == 33 and payload["notes"] == [TORUS_EVEN_NOTE]
    code, stdout, _ = run(capsys, "witness", "torus:8")
    assert code == 0 and f"note: {TORUS_EVEN_NOTE}" in stdout.splitlines()
    for spec in ("torus:7", "grid:6"):
        code, stdout, _ = run(capsys, "witness", spec, "--format", "json")
        assert code == 0 and json.loads(stdout)["notes"] == []
        code, stdout, _ = run(capsys, "witness", spec)
        assert code == 0 and "note:" not in stdout


def test_witness_that_fails_its_own_gate_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(witnesses, "_members_all_visible", lambda rv, s_mask: False)
    code, out, err = run(capsys, "witness", "grid:5")
    assert (code, out) == (3, "")
    assert err == "verification failure: grid(5) witness failed verification\n"


def test_witness_of_the_wrong_size_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(witnesses, "closed_form", lambda spec: 99)
    code, out, err = run(capsys, "witness", "grid:5")
    assert (code, out) == (3, "")
    assert err == "verification failure: grid(5) witness has size 14, wanted 99\n"


def test_timeout_bounds_the_stress_sweep_and_every_table_row(capsys):
    # a zero budget is spent before the first swept vertex and the first row
    for argv in (("bounds", "grid:60", "--root", "1"), ("table", "grid", "--range", "4..70")):
        code, out, err = run(capsys, *argv, "--timeout", "0")
        assert (code, out) == (1, "") and "time budget" in err, argv


def test_greedy_honours_the_timeout(capsys):
    code, out, err = run(capsys, "vx", "grid:60", "--root", "1771", "--method", "greedy",
                         "--timeout", "0")
    assert (code, out) == (1, "")
    assert err == "error: greedy visibility solve exceeded its time budget\n"


def test_a_root_without_constraint_groups_honours_the_timeout(capsys):
    # every vertex of K5 is adjacent to the root, so there is no group to
    # check the deadline before; the one check ahead of the groups fires
    for method in ("exact", "greedy"):
        code, out, err = run(capsys, "vx", "complete:5", "--root", "1", "--method", method,
                             "--timeout", "0")
        assert (code, out) == (1, ""), method
        assert err == f"error: {method} visibility solve exceeded its time budget\n"


def test_the_request_clock_starts_before_the_graph_is_loaded(tmp_path, capsys, monkeypatch):
    # loading alone outlives the budget, so the first check after it fires
    def slow(load):
        return lambda *args: time.sleep(0.1) or load(*args)

    monkeypatch.setattr(cli, "generate", slow(cli.generate))
    monkeypatch.setattr(cli, "read_graph_file", slow(cli.read_graph_file))
    path = tmp_path / "grid5.gr"
    path.write_text(format_graph(generate(parse_family_spec("grid:5"))))
    for source in ("grid:5", str(path)):
        for argv in (("vx", source, "--root", "1"), ("vv", source)):
            code, out, err = run(capsys, *argv, "--timeout", "0.05")
            assert (code, out) == (1, "") and "time budget" in err, argv


def test_a_graph_file_is_parsed_under_the_request_deadline(tmp_path, capsys):
    path = tmp_path / "grid5.gr"
    path.write_text(format_graph(generate(parse_family_spec("grid:5"))))
    code, out, err = run(capsys, "vx", str(path), "--root", "1", "--timeout", "0")
    assert (code, out) == (1, "")
    assert err == "error: graph parsing exceeded its time budget\n"


def test_removed_options_are_usage_errors(capsys):
    for argv in (("gen", "path:3", "--format", "json"), ("witness", "grid:5", "--seed", "1"),
                 ("table", "grid", "--range", "4..5", "--seed", "1")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv


def test_bounds_command(capsys):
    code, out, err = run(capsys, "bounds", "cocktail:3", "--exact", "--mu", "--format", "json")
    assert (code, err) == (0, "")
    g = generate(parse_family_spec("cocktail:3"))
    assert json.loads(out) == bounds_report(g, compute_mu=True, compute_exact=True).to_json_dict()
    code, out, err = run(capsys, "bounds", "grid:4", "--root", "6", "--exact")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "n=16 m=24 delta=4"
    assert "  [vv] mutual_visibility_lower: lower 0 (not applicable)" in lines
    assert "  exact: 9 at root 6" in lines


def test_maxleaf_and_mu(capsys):
    code, stdout, _ = run(capsys, "maxleaf", "figure1:1", "--format", "json")
    assert code == 0
    assert json.loads(stdout)["value"] == 11
    code, stdout, _ = run(capsys, "mu", "path:4", "--format", "json")
    assert code == 0
    assert json.loads(stdout)["mu"] == 2
    code, stdout, _ = run(capsys, "mu", "path:1", "--format", "json")
    assert (code, json.loads(stdout)) == (0, {"mu": 1})


def test_json_is_one_compact_line_of_the_result(capsys):
    # one line with sorted keys, parsing to the result's own dict; a tree
    # names every vertex but the root
    grid, fig = generate(parse_family_spec("grid:5")), generate(parse_family_spec("figure1:1"))
    cases = (
        (("vx", "grid:5", "--root", "13"), vx_exact(grid, 12), grid.n),
        (("vx", "grid:5", "--root", "13", "--method", "greedy"), vx_greedy(grid, 12), grid.n),
        (("vv", "grid:5"), vv_exact(grid), grid.n),
        (("maxleaf", "figure1:1"), max_leaf_spanning_tree(fig), fig.n),
        (("bounds", "grid:5", "--root", "13", "--exact"),
         bounds_report(grid, x=12, compute_exact=True), None),
    )
    for argv, res, n in cases:
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, ""), argv
        payload = json.loads(out)
        assert out == json.dumps(payload, sort_keys=True) + "\n", argv
        assert payload == res.to_json_dict(), argv
        if n is not None:
            assert len(payload["tree"]) == n - 1, argv


def test_text_output_is_unchanged(capsys):
    for argv, text in (
        (("vx", "grid:4", "--root", "6"),
         "root 6: visibility number 9 (cover_bnb)\n"
         "witness: [1, 2, 3, 4, 9, 11, 13, 15, 16]\n"),
        (("vx", "grid:4", "--root", "6", "--method", "greedy"),
         "root 6: visibility number >= 9 (greedy)\n"
         "witness: [1, 2, 3, 4, 9, 11, 13, 15, 16]\n"),
        (("vv", "cocktail:3"),
         "vertex visibility number 4, attained at root 1\nwitness: [2, 4, 5, 6]\n"),
        (("maxleaf", "figure1:1"),
         "maximum spanning-tree leaf count: 11\n"
         "leaves: [1, 2, 3, 4, 6, 8, 9, 10, 11, 12, 14]\n"),
        (("bounds", "grid:4", "--root", "6"),
         "n=16 m=24 delta=4\n"
         "  [vv] order_upper: upper 15\n"
         "  [vv] max_degree_lower: lower 4\n"
         "  [vv] degree_order_upper: upper 12\n"
         "  [vv] mutual_visibility_lower: lower 0 (not applicable)\n"
         "  [vx] max_distant_lower: lower 4\n"
         "  [vx] stress_upper: upper 15\n"
         "  [vx] eccentricity_lower: lower 4\n"
         "  [vx] eccentricity_upper: upper 12\n"),
    ):
        assert run(capsys, *argv) == (0, text, ""), argv


REDUCE_PATH3_TEXT = "gadget: n=6 m=10 apex=4 threshold offset=2\n"
REDUCE_PATH3_JSON = ('{"apex": 4, "edge_vertices": {"1-2": 5, "2-3": 6}, "k_offset": 2, '
                     '"m": 10, "n": 6, "original_vertices": [1, 2, 3]}\n')
TABLE_GRID_4_5 = ("table", "grid", "--range", "4..5", "--exact-max", "4")


EVERY_VERB_OUTPUT = [
    (("gen", "path:3"), 0, "c generated from path:3\np 3 2\ne 1 2\ne 2 3\n"),
    (("verify", "path:4", "--root", "1", "--set", "{dir}/one.txt"), 0,
     "set of size 1 is a visibility set for root 1\n"),
    (("verify", "path:4", "--root", "1", "--set", "{dir}/one.txt", "--format", "json"), 0,
     '{"root": 1, "size": 1, "visible": true}\n'),
    (("verify", "path:4", "--root", "1", "--set", "{dir}/two.txt"), 3,
     "set of size 2 is NOT a visibility set for root 1\n"),
    (("verify", "path:4", "--root", "1", "--set", "{dir}/two.txt", "--format", "json"), 3,
     '{"root": 1, "size": 2, "visible": false}\n'),
    (("reduce", "path:3"), 0,
     REDUCE_PATH3_TEXT + "c visibility gadget of path:3; apex 4; threshold offset 2\n"
     "p 6 10\ne 1 2\ne 1 4\ne 1 5\ne 2 3\ne 2 4\ne 2 5\ne 2 6\ne 3 4\ne 3 6\ne 5 6\n"),
    (("reduce", "path:3", "--format", "json"), 0, REDUCE_PATH3_JSON),
    (("reduce", "path:3", "-o", "{dir}/g.gr"), 0,
     REDUCE_PATH3_TEXT + "graph written to {dir}/g.gr\n"),
    (("reduce", "path:3", "-o", "{dir}/g.gr", "--format", "json"), 0, REDUCE_PATH3_JSON),
    (("witness", "grid:4"), 0,
     "grid:4: witness of size 9 at root (2,2) id 6; verified\n"
     "set: [1, 3, 4, 5, 9, 11, 12, 13, 16]\n"),
    (("witness", "grid:4", "--format", "json"), 0,
     '{"claimed_size": 9, "family": "grid", "n": 4, "notes": [], '
     '"root": {"col": 2, "id": 6, "row": 2}, "set": [1, 3, 4, 5, 9, 11, 12, 13, 16], '
     '"verified": true}\n'),
    (TABLE_GRID_4_5, 0,
     "grid: n, closed form, witness size, exact\n"
     "    4       9       9      9\n"
     "    5      14      14      -\n"),
    ((*TABLE_GRID_4_5, "--format", "json"), 0,
     '{"family": "grid", "notes": [], "rows": [{"closed_form": 9, "exact": 9, "n": 4, '
     '"witness": 9}, {"closed_form": 14, "exact": null, "n": 5, "witness": 14}]}\n'),
    (("mu", "path:4"), 0, "mutual visibility number: 2\n"),
    (("mu", "path:4", "--format", "json"), 0, '{"mu": 2}\n'),
]


@pytest.mark.parametrize("argv, code, stdout", EVERY_VERB_OUTPUT,
                         ids=[" ".join(argv) for argv, _, _ in EVERY_VERB_OUTPUT])
def test_every_verb_prints_exactly(argv, code, stdout, tmp_path, capsys):
    # the set {4} is visible from an end of path:4; {2, 4} blocks it (exit 3)
    (tmp_path / "one.txt").write_text("4\n")
    (tmp_path / "two.txt").write_text("2\n4\n")
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    assert run(capsys, *argv) == (code, stdout.replace("{dir}", str(tmp_path)), "")


# every verb with --format json; stdout is pinned where a case needs it
JSON_REQUESTS = [
    (("vx", "grid:5", "--root", "13"), None),
    (("vx", "grid:5", "--root", "13", "--method", "greedy"), None),
    (("vv", "cocktail:3"), None),
    (("verify", "path:4", "--root", "1", "--set", "{dir}/one.txt"), None),
    (("bounds", "grid:4", "--root", "6", "--exact"), None),
    (("reduce", "path:5"),
     '{"apex": 6, "edge_vertices": {"1-2": 7, "2-3": 8, "3-4": 9, "4-5": 10}, '
     '"k_offset": 4, "m": 23, "n": 10, "original_vertices": [1, 2, 3, 4, 5]}\n'),
    (("witness", "grid:4"), None),
    (TABLE_GRID_4_5, None),
    (("maxleaf", "figure1:1"), None),
    (("mu", "path:4"), None),
]


@pytest.mark.parametrize("argv, stdout", JSON_REQUESTS,
                         ids=[" ".join(argv) for argv, _ in JSON_REQUESTS])
def test_json_builds_no_text(argv, stdout, tmp_path, capsys, monkeypatch):
    # a JSON request prints the payload its verb built and formats no text:
    # the verb hands main its lines as a function that main never calls,
    # ids are sorted and made 1-based once, in the payload, and reduce
    # builds no gadget file text
    def refuse(*_):
        raise AssertionError("text formatted for a JSON request")

    parser, payloads, converted = cli.build_parser(), [], []

    def parse_args(argv):
        args = parser.parse_args(argv)
        verb = args.func

        def func(*rest):
            code, payload, text = verb(*rest)
            assert callable(text)
            payloads.append(payload)
            return code, payload, refuse

        args.func = func
        return args

    def to_external_ids(vertices):
        converted.append(vertices)
        return graph.to_external_ids(vertices)

    monkeypatch.setattr(cli, "build_parser", lambda: SimpleNamespace(parse_args=parse_args))
    monkeypatch.setattr(cli, "format_graph", refuse)
    for module in (cli, solvers, witnesses):
        monkeypatch.setattr(module, "to_external_ids", to_external_ids, raising=False)
    (tmp_path / "one.txt").write_text("4\n")
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    code, out, err = run(capsys, *argv, "--format", "json")
    [payload] = payloads
    assert (code, err) == (0, "")
    assert out == json.dumps(payload, sort_keys=True) + "\n"
    assert stdout in (None, out)
    assert len(converted) <= 1


def _fields(pattern, text):
    m = re.fullmatch(pattern, text)
    assert m, text
    return m


def _read_text(verb, text):
    """Every value, root and id list a text report prints, read back into
    the shape of the verb's JSON payload."""
    if verb == "vx":
        m = _fields(r"root (\d+): visibility number (>= )?(\d+) \((\w+)\)\n"
                    r"witness: (\[.*\])\n", text)
        assert (m[2] is not None) == (m[4] == "greedy"), text
        return {"root": int(m[1]), "value": int(m[3]), "method": m[4],
                "witness": json.loads(m[5])}
    if verb == "vv":
        m = _fields(r"vertex visibility number (\d+), attained at root (\d+)\n"
                    r"witness: (\[.*\])\n", text)
        return {"value": int(m[1]), "root": int(m[2]), "witness": json.loads(m[3])}
    if verb == "maxleaf":
        m = _fields(r"maximum spanning-tree leaf count: (\d+)\nleaves: (\[.*\])\n", text)
        return {"value": int(m[1]), "leaves": json.loads(m[2])}
    if verb == "witness":
        m = _fields(r"(\w+):(\d+): witness of size (\d+) at root \((\d+),(\d+)\) id (\d+); "
                    r"verified\nset: (\[.*\])\n((?:note: .*\n)*)", text)
        return {"family": m[1], "n": int(m[2]), "claimed_size": int(m[3]),
                "root": {"row": int(m[4]), "col": int(m[5]), "id": int(m[6])},
                "set": json.loads(m[7]), "notes": re.findall(r"note: (.*)\n", m[8])}
    if verb == "bounds":
        m = _fields(r"n=(\d+) m=(\d+) delta=(\d+)\n((?:  \[.*\n)*)"
                    r"(?:  mutual visibility number: (\d+)\n)?"
                    r"(?:  exact: (\d+) at root (\d+)\n)?", text)
        entries = re.findall(r"  \[(\w+)\] (\w+): (\w+) (\d+)( \(not applicable\))?\n", m[4])
        assert len(entries) == m[4].count("\n"), text
        return {"graph": {"n": int(m[1]), "m": int(m[2]), "delta": int(m[3])},
                "bounds": [{"scope": scope, "name": name, "kind": kind, "value": int(value),
                            "applicable": not na} for scope, name, kind, value, na in entries],
                "mu": m[5] and int(m[5]),
                "exact": m[6] and {"value": int(m[6]), "root": int(m[7])}}
    assert verb == "table", verb
    m = _fields(r"(\w+): n, closed form, witness size, exact\n"
                r"((?: +\d+ +\d+ +\d+ +(?:\d+|-)\n)*)((?:note: .*\n)*)", text)
    return {"family": m[1],
            "rows": [{"n": int(n), "closed_form": int(c), "witness": int(w),
                      "exact": None if e == "-" else int(e)}
                     for n, c, w, e in re.findall(r" +(\d+) +(\d+) +(\d+) +(\d+|-)\n", m[2])],
            "notes": re.findall(r"note: (.*)\n", m[3])}


def _within(part, whole):
    """Whether every field of part, nested, equals that field of whole."""
    if isinstance(part, dict):
        return all(k in whole and _within(v, whole[k]) for k, v in part.items())
    if isinstance(part, list):
        return len(part) == len(whole) and all(map(_within, part, whole))
    return part == whole


AGREE_REQUESTS = [
    ("vx", "grid:5", "--root", "13"),
    ("vx", "figure1:1", "--root", "16"),
    ("vx", "grid:5", "--root", "13", "--method", "greedy"),
    ("vx", "figure1:1", "--root", "16", "--method", "greedy"),
    ("vv", "cocktail:3"),
    ("vv", "grid:4"),
    ("maxleaf", "figure1:1"),
    ("maxleaf", "grid:4"),
    ("witness", "prism:7"),
    ("witness", "torus:8"),
    ("bounds", "grid:4", "--root", "6", "--exact"),
    ("bounds", "figure1:1", "--root", "16", "--exact"),
    ("bounds", "cocktail:3", "--mu"),
    ("bounds", "grid:3", "--root", "5", "--mu"),
    TABLE_GRID_4_5,
    ("table", "torus", "--range", "7..8"),
]


def test_text_and_json_agree(capsys):
    for argv in AGREE_REQUESTS:
        code, text, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, ""), argv
        assert _within(_read_text(argv[0], text), json.loads(out)), argv


def test_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "disconnected.gr"
    bad.write_text("p 4 2\ne 1 2\ne 3 4\n")
    one = tmp_path / "one.txt"
    one.write_text("1\n")
    # refused through connected_view (per root) and require_connected alike
    for argv in (("vv",), *(("vx", "--root", "1", "--method", method)
                            for method in ("exact", "greedy", "brute")),
                 ("verify", "--root", "1", "--set", str(one)), ("bounds",),
                 ("bounds", "--root", "1"), ("maxleaf",), ("mu",)):
        code, _, err = run(capsys, argv[0], str(bad), *argv[1:])
        assert (code, err) == (1, "error: operation requires a connected graph\n"), argv
    # a rejected file names its line and the 1-based ids
    for text, message in ((b"p 3 2\ne 1 2\ne 2 1\n", "line 3: duplicate edge (1,2)"),
                          (b"p 3 1\ne 3 3\n", "line 2: self-loop at vertex 3"),
                          (b"p 0 0\n", "line 1: n=0 outside 1..20000"),
                          (b"p 2 1\n\xff\n", "not UTF-8 text")):
        bad.write_bytes(text)
        code, _, err = run(capsys, "vx", str(bad), "--root", "1")
        assert code == 1 and err.startswith("error: ") and message in err, text
    code, out, err = run(capsys, "vx", "grid:0", "--root", "1")
    assert (code, out, err) == (1, "", "error: parameters must be positive: (0,)\n")
    # over a fixed exhaustive cap, and over the request's time budget
    for argv in (("mu", "grid:5"), ("vx", "grid:5", "--root", "1", "--method", "brute"),
                 ("maxleaf", "grid:6"),
                 ("vv", "random:500,0.012", "--seed", "3", "--timeout", "0.05")):
        code, _, err = run(capsys, *argv)
        assert code == 1 and "error:" in err, argv
    code, _, err = run(capsys, "witness", "cycle:6")
    assert code == 1
    # a graph file that is missing, or a directory
    for where in (tmp_path / "missing.gr", tmp_path):
        code, out, err = run(capsys, "vv", str(where))
        assert (code, out) == (1, "") and err.startswith("error: ") and str(where) in err
    # a one-vertex graph has no visibility number and no bounds
    bad.write_text("p 1 0\n")
    for argv in (("vx", str(bad), "--root", "1"), ("bounds", str(bad))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("error: "), argv
    # the gadget refuses an isolated vertex, named by its 1-based id
    bad.write_text("p 3 1\ne 1 2\n")
    code, out, err = run(capsys, "reduce", str(bad))
    assert (code, out, err) == (1, "", "error: vertex 3 is isolated\n")
    # a set file that is not UTF-8, and a spec one vertex over the cap
    setfile = tmp_path / "set.txt"
    setfile.write_bytes(b"1\n\xff\n")
    code, _, err = run(capsys, "verify", "path:4", "--root", "1", "--set", str(setfile))
    assert code == 1 and err.startswith("error: ") and "not UTF-8 text" in err
    code, _, err = run(capsys, "gen", "path:20001", "-o", str(tmp_path / "big.gr"))
    assert code == 1 and err.startswith("error: ") and "above the limit" in err
    assert not (tmp_path / "big.gr").exists()
    # a witness graph over the cap
    assert run(capsys, "witness", "grid:200") == (
        1, "", "error: grid:200 has n=40000, above the limit of 20000 vertices\n")
    # a gadget whose edge-vertex clique is over the edge cap
    code, _, err = run(capsys, "reduce", "grid:60", "-o", str(tmp_path / "gadget.gr"))
    assert code == 1 and err.startswith("error: ") and "above the limit" in err
    assert not (tmp_path / "gadget.gr").exists()
    for spec in ("random:abc,0.3", "rtree:x", "rblock:2.5", "random:8,zz", "random:5,7",
                 "random:5,inf"):
        code, _, err = run(capsys, "gen", spec)
        assert code == 1 and "error:" in err, spec


def test_root_out_of_range_is_reported_1_based(tmp_path, capsys):
    setfile = tmp_path / "set.txt"
    setfile.write_text("1\n")
    # the root is checked before the set file is read, so its error wins
    # over the missing file's
    for root in ("10", "0", "-3"):
        for argv in (("vx", "grid:3"), ("bounds", "grid:3"),
                     ("verify", "grid:3", "--set", str(setfile)),
                     ("verify", "grid:3", "--set", str(tmp_path / "absent.txt"))):
            code, out, err = run(capsys, *argv, "--root", root)
            assert (code, out) == (1, "") and err == f"error: root {root} outside 1..9\n", argv
    code, out, _ = run(capsys, "vx", "grid:3", "--root", "9", "--format", "json")
    assert code == 0 and json.loads(out)["root"] == 9


@pytest.mark.parametrize("seconds", ["nan", "inf", "-inf", "-1", "-0.5"])
def test_timeout_must_be_finite_and_not_negative(seconds, capsys):
    for argv in (("vv", "random:200,0.03", "--seed", "3"), ("mu", "path:4"),
                 ("table", "grid", "--range", "4..5")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--timeout", seconds])
        assert exc.value.code == 2, argv
        assert "--timeout" in capsys.readouterr().err
    code, out, _ = run(capsys, "mu", "path:4", "--timeout", "0.0", "--format", "json")
    assert code == 0 and json.loads(out) == {"mu": 2}  # zero seconds is a budget


def test_dense_spec_over_the_edge_cap_fails_fast(tmp_path, capsys):
    for spec in ("complete:20000", "cocktail:10000", "kxk:141,141", "random:20000,0.5"):
        start = time.monotonic()
        code, out, err = run(capsys, "gen", spec, "-o", str(tmp_path / "big.gr"))
        assert time.monotonic() - start < 1.0, spec
        assert code == 1 and out == "" and "above the limit of 1000000" in err, spec
    assert not (tmp_path / "big.gr").exists()
    # a gadget whose edge-vertex clique is over the edge cap
    code, _, err = run(capsys, "reduce", "grid:60", "-o", str(tmp_path / "gadget.gr"))
    assert code == 1 and err.startswith("error: ") and "above the limit" in err
    assert not (tmp_path / "gadget.gr").exists()


def test_gnp_far_below_the_connectivity_threshold_fails_at_once(tmp_path, capsys, monkeypatch):
    # 200 (1 - 0.001)^199 = 164 isolated vertices are expected, so every one
    # of 1000 samples would fail; the spec is refused before the first draw
    drawn = []
    monkeypatch.setattr(generators.random, "Random", lambda seed: drawn.append(seed))
    code, out, err = run(capsys, "gen", "random:200,0.001", "-o", str(tmp_path / "g.gr"))
    assert (code, out, drawn) == (1, "", [])
    assert err.startswith("error: G(200, 0.001) expects 164 isolated vertices")
    assert "connectivity threshold ln(n)/n = 0.02649" in err
    assert not (tmp_path / "g.gr").exists()


def test_random_specs_seeded(capsys):
    code1, out1, _ = run(capsys, "gen", "random:8,0.4", "--seed", "7")
    code2, out2, _ = run(capsys, "gen", "random:8,0.4", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run(capsys, "gen", "rblock:10", "--seed", "3")
    assert code3 == 0
    assert parse_graph(out3).n == 10


def test_usage_error_exit_code(capsys):
    try:
        main(["vx", "grid:4"])  # missing required --root
    except SystemExit as exc:
        assert exc.code == 2
    else:
        raise AssertionError("argparse should exit with usage error")
    # the caps are constants, not flags
    for verb in (["vx", "grid:4", "--root", "1"], ["vv", "grid:4"], ["bounds", "grid:4"],
                 ["table", "grid", "--range", "4..5"], ["maxleaf", "grid:4"], ["mu", "path:4"]):
        for flag in ("--brute-cap", "--mu-cap", "--maxleaf-cap"):
            with pytest.raises(SystemExit) as exc:
                main([*verb, flag, "40"])
            assert exc.value.code == 2, (verb, flag)


def test_parser_is_built_once_on_the_first_main(capsys):
    assert cli.build_parser() is cli.build_parser()
    importlib.reload(cli)
    assert cli.build_parser.cache_info().currsize == 0  # not built on import
    code, out, _ = run(capsys, "vv", "grid:4", "--format", "json")
    assert code == 0 and json.loads(out)["value"] == 9
    assert cli.build_parser.cache_info().currsize == 1


def test_requests_in_one_process_share_no_state(capsys):
    code, out, _ = run(capsys, "vx", "grid:4", "--root", "1", "--method", "greedy",
                       "--format", "json")
    assert code == 0 and json.loads(out)["method"] == "greedy"
    code, out, _ = run(capsys, "vx", "grid:4", "--root", "1", "--format", "json")
    assert code == 0 and json.loads(out)["method"] == "cover_bnb"
    # a usage error leaves nothing behind for the next request
    with pytest.raises(SystemExit) as exc:
        main(["vx", "grid:4", "--method", "nope"])
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err
    argv = ["vv", "grid:4", "--format", "json"]
    assert run(capsys, *argv) == (0, run_fresh(*argv).stdout, "")
    # nor does a timeout
    code, out, err = run(capsys, "vv", "grid:4", "--timeout", "0")
    assert (code, out) == (1, "") and "time budget" in err
    code, out, _ = run(capsys, "vv", "grid:4")
    assert code == 0 and out.startswith("vertex visibility number 9")


def test_help_is_the_same_on_every_call(capsys):
    importlib.reload(cli)
    verbs = ("gen", "vx", "vv", "verify", "bounds", "reduce", "witness", "table", "maxleaf",
             "mu")
    texts = []
    for _ in range(2):
        for argv in (["--help"], *([verb, "--help"] for verb in verbs)):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 0, argv
            texts.append(capsys.readouterr().out)
    assert texts[:len(verbs) + 1] == texts[len(verbs) + 1:]
    assert all(text.startswith("usage: vertexvis") for text in texts)


def test_python_dash_m_runs_the_cli():
    done = run_fresh("vv", "grid:4", "--format", "json")
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["value"] == 9
