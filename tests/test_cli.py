"""End-to-end runs of this checkout's CLI, including every README example."""

import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from palettebox import cli, search, theta

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
REPO = README.parent
SRC = REPO / "src"

# The `palettebox` command word, after any leading VAR=value assignments.
COMMAND_WORD = re.compile(r"^((?:\w+=\S*\s+)*)palettebox(?=\s|$)")
LAUNCHER = f"{shlex.quote(sys.executable)} -m palettebox.cli"


def child_env(env=None):
    """The environment a child needs to import this checkout's palettebox."""
    merged = dict(os.environ, **(env or {}))
    rest = [p for p in merged.get("PYTHONPATH", "").split(os.pathsep) if p]
    merged["PYTHONPATH"] = os.pathsep.join([str(SRC), *rest])
    return merged


def sh(command, cwd, env=None):
    """Run a shell command, with `palettebox` launched from this checkout."""
    command = COMMAND_WORD.sub(lambda m: m.group(1) + LAUNCHER, command, count=1)
    return subprocess.run(command, shell=True, cwd=cwd, env=child_env(env),
                          capture_output=True, text=True, timeout=600)


def readme_examples():
    """(command, first expected stdout line or None) per fenced example."""
    lines = README.read_text().splitlines()
    out, fence = [], None
    for i, line in enumerate(lines):
        if line.startswith("```"):
            fence = line[3:].strip() if fence is None else None
            continue
        if fence == "console" and line.startswith("$ "):
            follow = lines[i + 1] if i + 1 < len(lines) else ""
            expect = follow.strip() if follow and not follow.startswith(("$", "```")) else None
            out.append((line[2:], expect))
        elif fence == "bash" and "palettebox" in line:
            if line.startswith("pip ") or "-m pytest" in line:
                continue
            out.append((line.strip(), None))
    return out


def test_readme_lists_examples():
    commands = [c for c, _ in readme_examples()]
    assert len(commands) >= 20
    used = {c.split()[1] if c.startswith("palettebox") else c.split()[0]
            for c in commands if "palettebox " in c}
    for sub in ("gen", "product", "construct", "torus", "theta",
                "oracle", "verify", "export"):
        assert any(sub in c.split() for c in commands), f"{sub} has no example"


def test_readme_examples_run_clean(tmp_path):
    for command, expect in readme_examples():
        proc = sh(command, cwd=tmp_path)
        assert proc.returncode == 0, (command, proc.stderr or proc.stdout)
        if expect is not None:
            assert proc.stdout.splitlines()[0].strip() == expect, command


def test_readme_python_quickstart(tmp_path):
    lines = README.read_text().splitlines()
    fence, snippet = None, []
    for line in lines:
        if line.startswith("```"):
            if fence == "python":
                break
            fence = line[3:].strip()
            continue
        if fence == "python":
            snippet.append(line)
    assert snippet, "README lost its python example"
    script = tmp_path / "quickstart.py"
    script.write_text("\n".join(snippet))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, cwd=tmp_path, env=child_env(), timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_gen_json_shape(tmp_path):
    proc = sh("palettebox gen Q3 --json", cwd=tmp_path)
    obj = json.loads(proc.stdout)
    assert obj["n"] == 8 and len(obj["edges"]) == 12


def test_out_file_then_reuse_as_spec(tmp_path):
    sh("palettebox gen C6 --json --out c6.json", cwd=tmp_path)
    proc = sh("palettebox oracle c6.json", cwd=tmp_path)
    assert proc.returncode == 0
    assert "= 1" in proc.stdout


def test_oracle_exit_codes(tmp_path):
    assert sh("palettebox oracle C4", cwd=tmp_path).returncode == 0
    starved = sh("palettebox oracle petersen --budget-nodes 10", cwd=tmp_path)
    assert starved.returncode == 2
    assert "budget" in starved.stdout


def test_oracle_says_the_cap_stopped_it(tmp_path):
    capped = sh("palettebox oracle P5 --max-palettes 1", cwd=tmp_path)
    assert capped.returncode == 2
    assert capped.stdout.strip() == "palette index of path(5) in [2, 3] (stopped at --max-palettes 1)"


def test_oracle_says_the_budget_stopped_it(tmp_path):
    starved = sh("palettebox oracle petersen --max-palettes 3 --budget-nodes 10", cwd=tmp_path)
    assert starved.returncode == 2
    assert starved.stdout.strip().endswith("(budget ran out)")


def test_oracle_says_the_color_limit_stopped_it(tmp_path):
    # K_{2,32}: at p = 2 the search would need min(2 * 32, 64) = 64 > 62 colors
    edges = [[u, v] for u in range(2) for v in range(2, 34)]
    (tmp_path / "k232.json").write_text(json.dumps({"n": 34, "edges": edges}))
    stopped = sh("palettebox oracle k232.json", cwd=tmp_path)
    assert stopped.returncode == 2
    assert stopped.stdout.strip() == (
        f"palette index of graph(34) in [2, 17] (stopped at the search's {search.MAX_COLORS}-color limit)")


@pytest.mark.parametrize("argv, code, text", [
    # K63 is 62-regular of odd order: class 2 by parity, with nothing searched
    ("oracle K63", 2, "palette index of complete(63) in [3, 63] (stopped at the search's 62-color limit)"),
    # the Misra-Gries witness of K64 uses 63 colors, so every vertex sees all of them
    ("oracle K64", 0, "palette index of complete(64) = 1 (rule: degree-set)"),
    ("oracle K63 --lower-bound-only", 0, "palette index >= 3 (regular-class2)"),
])
def test_oracle_past_the_color_limit(argv, code, text, capsys):
    assert cli.main(argv.split()) == code
    assert capsys.readouterr().out == text + "\n"


@pytest.mark.parametrize("graph", ["K63", "K64"])
def test_construct_names_the_color_limit_that_stopped_it(graph, capsys):
    assert cli.main(f"construct --theorem cng --graph {graph} --s 3".split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"could not classify complete({graph[1:]}) within the search's "
                            f"{search.MAX_COLORS}-color limit\n")


def test_graph_json_without_provenance_is_named_by_its_order(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    assert cli.main(["gen", str(path)]) == 0
    assert capsys.readouterr().out == "graph(3): 3 vertices, 2 edges\n"
    assert cli.main(["product", str(path), "C3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["provenance"] == "product(graph(3),cycle(3))"


def test_budget_env_and_flag_precedence(tmp_path):
    env = {"PALETTEBOX_BUDGET_NODES": "10"}
    starved = sh("palettebox oracle petersen", cwd=tmp_path, env=env)
    assert starved.returncode == 2
    overridden = sh("palettebox oracle petersen --budget-nodes 100000000",
                    cwd=tmp_path, env=env)
    assert overridden.returncode == 0


def test_error_paths_exit_one(tmp_path):
    (tmp_path / "twice.json").write_text(json.dumps({
        "graph": {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]},
        "colors": [[0, 1, 1], [1, 0, 5], [0, 2, 2], [1, 2, 3]]}))
    checks = [
        "palettebox gen X9",
        "palettebox construct --theorem png --graph C5 --s 4",
        "palettebox construct --theorem cubic --graph K4 --s 3",
        "palettebox theta Q3 --remove 0-1",
        "palettebox export missing.json",
        "palettebox export twice.json",
        "palettebox torus --s 4 --t 3",
        "palettebox construct --theorem cng --graph C5",
        "palettebox construct --theorem png --graph C5",
        "palettebox construct --theorem cubic --graph petersen",
        "palettebox construct --theorem mah --graph C5",
        "palettebox construct --theorem nrg --graph C5",
        "palettebox oracle C5 --budget-nodes -1",
        "palettebox oracle K1 --max-palettes 0",
        "palettebox oracle C5 --budget-seconds -1",
        "palettebox oracle C5 --budget-seconds nan",
        "PALETTEBOX_BUDGET_SECONDS=nan palettebox oracle C5",
        "PALETTEBOX_BUDGET_NODES=-1 palettebox oracle C5",
        "palettebox verify cycle-path --max 0",
        "palettebox verify torus --max 2",
        "palettebox verify oracle-cross --max 0",
        "palettebox verify nrg --max 3",
        "palettebox verify cubic --max 3",
    ]
    # the errors that must name the setting at fault
    messages = {
        "PALETTEBOX_BUDGET_NODES=abc palettebox oracle C5":
            "PALETTEBOX_BUDGET_NODES must be an integer, got 'abc'",
        "PALETTEBOX_BUDGET_SECONDS=abc palettebox oracle C5":
            "PALETTEBOX_BUDGET_SECONDS must be a number, got 'abc'",
        "palettebox theta Q3 --class 99": "--class needs --remove alongside it",
        "palettebox theta Q3 --class 0": "--class needs --remove alongside it",
        "palettebox theta Q3 --host C5": "--host needs --remove alongside it",
        # construct refuses a flag its theorem does not read
        "palettebox construct --theorem cng --graph C5 --s 7 --host C3":
            "--host needs --theorem mah or nrg alongside it",
        "palettebox construct --theorem mah --graph C6 --host C5 --s 3":
            "--s needs --theorem cng or png or cubic alongside it",
        "palettebox construct --theorem mah --graph C6 --host C5 --remove 0-1":
            "--remove needs --theorem nrg alongside it",
        "palettebox construct --theorem cng --graph C5 --s 7 --c 2":
            "--c needs --theorem mah alongside it",
        "palettebox construct --theorem png --graph C5 --s 5 --mode path":
            "--mode needs --theorem cubic alongside it",
        # a malformed --remove names the flag and the item
        "palettebox construct --theorem nrg --graph Q3 --host C5 --remove 0-x":
            "--remove takes edges u-v separated by commas, got '0-x'",
        "palettebox construct --theorem nrg --graph Q3 --host C5 --remove 0-1,":
            "--remove takes edges u-v separated by commas, got ''",
        "palettebox theta Q3 --host C5 --remove 0:1":
            "--remove takes edges u-v separated by commas, got '0:1'",
        "palettebox theta Q3 --host C5 --remove 0-1-2":
            "--remove takes edges u-v separated by commas, got '0-1-2'",
    }
    for command in [*checks, *messages]:
        proc = sh(command, cwd=tmp_path)
        assert proc.returncode == 1, command
        assert proc.stderr.startswith("error:"), command
        if command in messages:
            assert proc.stderr == f"error: {messages[command]}\n", command


def test_oracle_rejects_a_graph_json_with_non_integers(tmp_path, non_integer_graph):
    obj, message = non_integer_graph
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    proc = sh("palettebox oracle bad.json", cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr == f"error: graph JSON {message}\n"
    assert "Traceback" not in proc.stdout + proc.stderr


_GRAPH = {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}


@pytest.mark.parametrize("command, obj, message", [
    ("oracle", {"n": 3, "edges": [5]}, "graph JSON edge 0 must be a list of 2 integers, got 5"),
    ("oracle", {"n": 3, "edges": 5}, "graph JSON 'edges' must be a list, got 5"),
    ("oracle", {"n": 3, "edges": [[0, 1, 2]]},
     "graph JSON edge 0 must be a list of 2 integers, got [0, 1, 2]"),
    ("export", {"graph": _GRAPH, "colors": [5]},
     "coloring JSON entry 0 must be a list of 3 integers, got 5"),
    ("export", {"graph": _GRAPH}, "coloring JSON needs 'graph' and 'colors'"),
    ("export", {"graph": _GRAPH, "colors": [[0, 1]]},
     "coloring JSON entry 0 must be a list of 3 integers, got [0, 1]"),
    ("export", {"graph": _GRAPH, "colors": 5}, "coloring JSON 'colors' must be a list, got 5"),
    ("export", {"graph": _GRAPH, "colors": [[0, 1, 1.5]]},
     "coloring JSON value of entry [0, 1, 1.5] must be an integer, got 1.5"),
    ("gen", {"n": 3, "edges": [], "provenance": 5},
     "graph JSON 'provenance' must be a string, got 5"),
], ids=["edge-int", "edges-int", "edge-triple", "entry-int", "no-colors", "entry-pair",
        "colors-int", "float-color", "provenance-int"])
def test_json_of_the_wrong_shape_is_an_error_line(tmp_path, command, obj, message):
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    proc = sh(f"palettebox {command} bad.json", cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {message}\n"
    assert "Traceback" not in proc.stdout + proc.stderr


def test_budget_stops_exit_two(capsys):
    commands = [
        "construct --theorem cng --graph C5 --s 5 --budget-nodes 1",
        "construct --theorem nrg --graph Q3 --host C3 --remove 0-1 --budget-nodes 1",
        "construct --theorem mah --graph C5 --host C3 --budget-nodes 1",
        "construct --theorem png --graph C5 --s 5 --budget-nodes 1",
        "construct --theorem cubic --graph petersen --s 3 --budget-nodes 1",
        "theta Q3 --class 0 --remove 0-1 --host C5 --budget-nodes 1",
    ]
    for command in commands:
        assert cli.main(command.split()) == 2, command
        captured = capsys.readouterr()
        assert captured.out == "", command
        assert captured.err.endswith("within the search budget\n"), command


@pytest.mark.parametrize("graph", ["C5", "C4"])
def test_png_classifies_its_factor_once(graph, monkeypatch, capsys):
    calls = []
    run = search.Search.run

    def counted(self, *args):
        calls.append(self)
        return run(self, *args)
    monkeypatch.setattr(search.Search, "run", counted)
    assert cli.main(["construct", "--theorem", "png", "--graph", graph, "--s", "5"]) == 0
    assert len(calls) == 1


def test_theta_removal_computes_the_classes_once(monkeypatch, capsys):
    calls = []
    classes = theta.theta_classes

    def counted(graph):
        calls.append(graph)
        return classes(graph)
    monkeypatch.setattr(theta, "theta_classes", counted)
    assert cli.main("theta Q5 --class 0 --remove 0-1 --host C3".split()) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_theta_removal_class_defaults_to_zero(capsys):
    assert cli.main("theta Q3 --remove 0-1 --host C3 --json".split()) == 0
    implicit = capsys.readouterr().out
    assert cli.main("theta Q3 --class 0 --remove 0-1 --host C3 --json".split()) == 0
    assert capsys.readouterr().out == implicit


@pytest.mark.parametrize("graph, lower, rule", [
    ("C5", 3, "regular-class2"),
    ("P4", 2, "degree-set"),
])
def test_oracle_lower_bound_only(graph, lower, rule, capsys):
    assert cli.main(["oracle", graph, "--lower-bound-only", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"lower": lower, "rule": rule}


def test_verify_exit_codes(tmp_path):
    ok = sh("palettebox verify torus --max 5", cwd=tmp_path)
    assert ok.returncode == 0
    assert "suite torus: pass" in ok.stdout
    starved = sh("palettebox verify nrg --budget-nodes 3", cwd=tmp_path)
    assert starved.returncode == 2


def test_verify_deterministic_reports_identical(tmp_path):
    command = "palettebox verify oracle-cross --deterministic --max 8 --json"
    a = sh(command, cwd=tmp_path)
    b = sh(command, cwd=tmp_path)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_verify_max_bounds_the_named_suite(capsys):
    assert cli.main("verify torus --max 3".split()) == 0
    assert capsys.readouterr().out == (
        "torus s=3 t=3: pass\nsuite torus: pass (1 passed, 0 failed, 0 indeterminate)\n")


def test_deterministic_ignores_the_clock(capsys):
    assert cli.main("oracle C5 --json --deterministic".split()) == 0
    alone = capsys.readouterr().out
    assert cli.main("oracle C5 --json --deterministic --budget-seconds 1e-6".split()) == 0
    assert capsys.readouterr().out == alone


@pytest.mark.parametrize("argv, text", [
    ("oracle C9 --budget-nodes 5", "palette index of cycle(9) = 3 (rule: regular-class2)"),
    # the Delta = 3 search is exhausted after 79 nodes, the witness search is not
    ("oracle petersen --budget-nodes 86", "palette index of petersen = 3 (rule: regular-class2)"),
    ("oracle K9 --budget-nodes 5", "palette index of complete(9) in [3, 9] (budget ran out)"),
])
def test_oracle_keeps_a_proven_class_two_through_a_budget_stop(argv, text, capsys):
    assert cli.main(argv.split()) == (0 if "=" in text else 2)
    assert capsys.readouterr().out == text + "\n"


def test_construct_export_pipeline(tmp_path):
    sh("palettebox construct --theorem cubic --graph petersen --s 3"
       " --json --out col.json", cwd=tmp_path)
    obj = json.loads((tmp_path / "col.json").read_text())
    assert obj["palettes"]["count"] == 3
    proc = sh("palettebox export col.json --name pete --out col.dot", cwd=tmp_path)
    assert proc.returncode == 0
    dot = (tmp_path / "col.dot").read_text()
    assert dot.startswith('graph "pete" {')
    assert dot.count("--") == 75


def test_torus_dot_output(tmp_path):
    proc = sh("palettebox torus --s 5 --t 5 --dot", cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.count("--") == 50


def test_torus_dot_out_file_matches_stdout(tmp_path):
    printed = sh("palettebox torus --s 7 --t 7 --dot", cwd=tmp_path)
    written = sh("palettebox torus --s 7 --t 7 --dot --out torus.dot", cwd=tmp_path)
    assert printed.returncode == written.returncode == 0
    assert written.stdout == ""
    assert (tmp_path / "torus.dot").read_text() == printed.stdout


_BUDGET_FLAGS = {"--budget-nodes", "--budget-seconds", "--deterministic"}


@pytest.mark.parametrize("command, flags", [
    ("gen", {"--json", "--out"}),
    ("product", {"--json", "--out"}),
    ("construct", {"--theorem", "--graph", "--host", "--s", "--c", "--remove", "--mode",
                   "--json", "--out", *_BUDGET_FLAGS}),
    ("torus", {"--s", "--t", "--dot", "--json", "--out"}),
    ("theta", {"--remove", "--class", "--host", "--json", "--out", *_BUDGET_FLAGS}),
    ("oracle", {"--max-palettes", "--lower-bound-only", "--json", "--out", *_BUDGET_FLAGS}),
    ("verify", {"--max", "--json", "--out", *_BUDGET_FLAGS}),
    ("export", {"--name", "--out"}),
])
def test_every_subcommand_help_names_its_flags(command, flags, capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main([command, "--help"])
    assert stop.value.code == 0
    assert set(re.findall(r"--[\w-]+", capsys.readouterr().out)) == flags | {"--help"}


@pytest.mark.parametrize("argv", [
    ["gen", "petersen"],
    ["product", "P2", "C3"],
    ["construct", "--theorem", "cng", "--graph", "C5", "--s", "3", "--deterministic"],
    ["torus", "--s", "5", "--t", "3"],
    ["theta", "Q3"],
    ["oracle", "C5", "--deterministic"],
    ["verify", "torus", "--max", "4", "--deterministic"],
])
def test_the_out_file_holds_the_bytes_of_stdout(argv, tmp_path, capsys):
    assert cli.main([*argv, "--json"]) == 0
    printed = capsys.readouterr().out
    target = tmp_path / "report.json"
    assert cli.main([*argv, "--json", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == printed.encode()


@pytest.mark.skipif(search.HAS_NUMBA, reason="the numba backend needs numpy")
def test_cli_start_up_does_not_import_numpy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", "import palettebox.cli, sys; print('numpy' in sys.modules)"],
        capture_output=True, text=True, cwd=tmp_path, env=child_env(), timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.skipif(not search.HAS_NUMBA, reason="numba is not importable")
def test_backend_switch_matches(monkeypatch, capsys):
    assert cli.main(["oracle", "C7", "--json"]) == 0
    fast = capsys.readouterr().out
    monkeypatch.setattr(search, "HAS_NUMBA", False)
    assert cli.main(["oracle", "C7", "--json"]) == 0
    base = capsys.readouterr().out
    assert json.loads(base) == json.loads(fast)
