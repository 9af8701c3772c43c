"""Every name a module imports is used: an AST scan of the package, the
tests, the demos and the per-layer benchmark harnesses.  A name listed in the
module's ``__all__`` counts as used (a re-export).  Charts are resolved by
name only where a name enters the package: a second scan finds calls of
``get_chart`` elsewhere in it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for top in ("src", "tests", "demos", "bench")
               for path in (ROOT / top).rglob("*.py"))


def unused_imports(source: str):
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", FILES,
                         ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_unused_and_keeps_used_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import math as m\n"
              "from json import dumps, loads\n"
              "__all__ = ['dumps']\n"
              "def f():\n"
              "    return os.path.join('a', str(m.pi))\n")
    assert unused_imports(source) == [(4, "loads")]


# a chart name enters the package in a Point (resolved by convert_point),
# in a scenario builder's built-in charts or on the command line; every
# other module takes charts as values
NAME_RESOLVERS = {"charts.py", "cli.py", "scenarios.py"}


def get_chart_calls(source: str):
    """Lines of each call of ``get_chart``, bare or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and "get_chart" in (getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None)))


def test_charts_are_resolved_by_name_only_where_a_name_enters():
    calls = {path.name: get_chart_calls(path.read_text(encoding="utf-8"))
             for path in (ROOT / "src").rglob("*.py")}
    # the scan sees the command line's and the builders' own calls
    assert calls["cli.py"] and calls["scenarios.py"]
    assert {name: lines for name, lines in calls.items()
            if lines and name not in NAME_RESOLVERS} == {}
