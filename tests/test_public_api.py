"""Every public name serves a program path, and no module imports a name it
does not use; both are read from the source with ast, as is that every
import of the package is the standard library or a declared dependency.
SimConfig's fields are pinned too."""
import ast
import dataclasses
import re
import sys
from pathlib import Path

import pytest

import slsid

ROOT = Path(__file__).resolve().parents[1]
SPAN = "a span target of perfbench/tracing.py until the benchmark's spans move"
# public names that nothing in src/slsid or tools/ reads yet, with the reason
UNREAD = {"__version__": "the release's version, for users and packaging",
          "resolve_selections": SPAN, "load_series_csv": SPAN,
          "markov_parameter": "the Markov value of one word, which the benchmark's "
                              "Markov-error check reads"}


def trees(*dirs):
    return {path.relative_to(ROOT): ast.parse(path.read_text())
            for d in dirs for path in sorted((ROOT / d).rglob("*.py"))}


def reads(node, inside=()):
    """The names read under node, as names or attributes, each outside the
    function or class that defines it; imports and strings are no reads."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside += (node.name,)
    out = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        out.add(node.id)
    elif isinstance(node, ast.Attribute):
        out.add(node.attr)
    for child in ast.iter_child_nodes(node):
        out |= reads(child, inside)
    return out - set(inside)


def test_every_public_name_has_a_program_reader():
    read = set().union(*map(reads, trees("src/slsid", "tools").values()))
    public = set(slsid.__all__)
    assert sorted(public - read - set(UNREAD)) == []
    # the allow-list holds only public names that are still unread
    assert set(UNREAD) <= public - read


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for path, tree in trees("src", "tools", "tests").items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        # what a module's __all__ lists, it imports to export
        used |= {name for node in tree.body if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", "") == "__all__"
                 for name in ast.literal_eval(node.value)}
        unused += [f"{path}: {alias.asname or alias.name}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", "") != "__future__" for alias in node.names
                   if (alias.asname or alias.name).split(".")[0] not in used]
    assert unused == []


def test_every_import_is_the_standard_library_or_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    imported = set()
    for tree in trees("src/slsid").values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    assert sorted(imported - sys.stdlib_module_names - declared) == []
    # and every declared dependency is imported
    assert declared <= imported


def test_sim_config_holds_only_what_the_model_does_not_fix():
    # the input's second moment is the model's Q_u, so no field sets its scale
    assert [f.name for f in dataclasses.fields(slsid.SimConfig)] == [
        "seed", "length", "burn_in", "input_dist"]
