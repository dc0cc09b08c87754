"""Package hygiene: every top-level definition is exported or used."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import fogloop

PACKAGE = Path(fogloop.__file__).parent


def _referenced_names(tree: ast.AST) -> Counter:
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def test_every_top_level_definition_is_exported_or_referenced():
    modules = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    everywhere: Counter = Counter()
    for tree in modules.values():
        everywhere += _referenced_names(tree)
    exported = set(fogloop.__all__)

    unused = []
    for path, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in exported:
                continue
            # References inside a definition's own body do not keep it alive.
            if everywhere[node.name] - _referenced_names(node)[node.name] <= 0:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "defined in src/fogloop but never used or exported: " + ", ".join(unused)
