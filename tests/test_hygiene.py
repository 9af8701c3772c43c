"""Every name a module imports is used: an AST scan of the package, the
tests, the demos and the per-layer benchmark harnesses.  A name listed in the
module's ``__all__`` counts as used (a re-export)."""

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
