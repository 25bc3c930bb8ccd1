"""The package and the CLI load a module only when a name or a command needs it."""

import importlib
import json
import subprocess
import sys

import pytest

import palettebox
from palettebox import oracle

from test_cli import child_env

# Run in a fresh interpreter: prints the palettebox modules loaded after the
# code given, one JSON list on the last line of stdout.
LOADED = "import sys, json; print(json.dumps(sorted(m for m in sys.modules if m.startswith('palettebox.'))))"


def loaded_after(code, tmp_path):
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{LOADED}"], capture_output=True,
                          text=True, cwd=tmp_path, env=child_env(), timeout=600)
    assert proc.returncode == 0, proc.stderr
    return {name.removeprefix("palettebox.") for name in json.loads(proc.stdout.splitlines()[-1])}


def test_importing_the_package_loads_no_submodule(tmp_path):
    assert loaded_after("import palettebox", tmp_path) == set()


@pytest.mark.parametrize("argv, unused", [
    (["oracle", "C5", "--json"], {"constructions", "torus", "theta", "verify"}),
    (["verify", "torus"], {"constructions", "oracle", "theta"}),
    (["verify", "oracle-cross", "--max", "4"], {"constructions", "torus", "theta"}),
])
def test_a_command_loads_only_what_it_uses(argv, unused, tmp_path):
    code = ("import contextlib, io\nfrom palettebox import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main({argv!r}) == 0")
    loaded = loaded_after(code, tmp_path)
    assert "cli" in loaded
    assert not loaded & unused


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
