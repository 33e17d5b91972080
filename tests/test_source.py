"""Checks on the package source itself."""

import ast
from pathlib import Path

import sepwords


def test_no_module_keeps_state_behind_a_global_statement():
    # a fixed computation rerun once per process belongs in a test, not
    # behind a module flag; functools.lru_cache memos stay allowed
    root = Path(sepwords.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Global)]
    assert found == []
