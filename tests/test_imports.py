"""The package and the CLI load a module only when a name or a command needs it."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import palettebox
from palettebox import oracle

from test_cli import child_env

# Run in a fresh interpreter: prints every loaded module, one JSON list on
# the last line of stdout.
LOADED = "import sys, json; print(json.dumps(sorted(sys.modules)))"

# Imported by the standard library's record decorator and by nothing a
# command needs; loading them costs every process start-up time.
RECORD_MACHINERY = {"dataclasses", "inspect"}


def loaded_after(code, tmp_path):
    """The modules loaded after ``code``: the palettebox submodules, unprefixed, and the rest."""
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{LOADED}"], capture_output=True,
                          text=True, cwd=tmp_path, env=child_env(), timeout=600)
    assert proc.returncode == 0, proc.stderr
    names = json.loads(proc.stdout.splitlines()[-1])
    ours = {name.removeprefix("palettebox.") for name in names if name.startswith("palettebox.")}
    return ours, {name for name in names if not name.startswith("palettebox")}


@pytest.fixture(scope="module")
def bare_modules(tmp_path_factory):
    """The modules a bare interpreter in the same environment has loaded."""
    return loaded_after("pass", tmp_path_factory.mktemp("bare"))[1]


def test_importing_the_package_loads_no_submodule(tmp_path):
    assert loaded_after("import palettebox", tmp_path)[0] == set()


def _cli(argv):
    return ("import contextlib, io\nfrom palettebox import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main({argv!r}) == 0")


@pytest.mark.parametrize("code, used, unused", [
    (_cli(["oracle", "C5", "--json"]), {"cli"}, {"constructions", "torus", "theta", "verify"}),
    (_cli(["verify", "torus"]), {"cli"}, {"constructions", "oracle", "theta"}),
    (_cli(["verify", "oracle-cross", "--max", "4"]), {"cli"}, {"constructions", "torus", "theta"}),
    ("import palettebox.graphs, palettebox.oracle, palettebox.torus",
     {"graphs", "oracle", "torus"}, {"cli", "constructions", "theta", "verify"}),
    # the graph makes its own edge order, so it needs nothing from the searches
    ("import palettebox.graphs", {"graphs"}, {"search", "solver", "oracle", "coloring"}),
], ids=["oracle", "verify-torus", "verify-oracle-cross", "import-records", "graphs"])
def test_a_command_loads_only_what_it_uses(code, used, unused, bare_modules, tmp_path):
    ours, others = loaded_after(code, tmp_path)
    assert used <= ours
    assert not ours & unused
    machinery = (others - bare_modules) & RECORD_MACHINERY
    assert not machinery


@pytest.mark.parametrize("name", palettebox.__all__)
def test_every_public_name_is_its_home_modules_object(name):
    value = getattr(palettebox, name)
    assert getattr(importlib.import_module(value.__module__), name) is value
    assert name in dir(palettebox)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from palettebox import *", namespace)
    assert {name: namespace[name] for name in palettebox.__all__} == {
        name: getattr(palettebox, name) for name in palettebox.__all__}


def test_the_package_reads_names_from_their_home_on_every_access(monkeypatch):
    original = oracle.palette_index_exact
    monkeypatch.setattr(oracle, "palette_index_exact", len)
    assert palettebox.palette_index_exact is len
    monkeypatch.undo()
    assert palettebox.palette_index_exact is original
    assert "palette_index_exact" not in vars(palettebox)


def test_unknown_names_raise_and_submodules_still_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        palettebox.no_such_name
    from palettebox import coloring
    assert coloring is importlib.import_module("palettebox.coloring")


def test_only_search_reads_the_private_names_of_search():
    # the search module's buffers, kernels and guards stay behind Search
    for path in Path(palettebox.__file__).parent.glob("*.py"):
        if path.name == "search.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                private = node.value.id == "search" and node.attr.startswith("_")
            elif isinstance(node, ast.ImportFrom) and node.module == "palettebox.search":
                private = any(alias.name.startswith("_") for alias in node.names)
            else:
                continue
            assert not private, f"{path.name}:{node.lineno} reads a private name of search"
