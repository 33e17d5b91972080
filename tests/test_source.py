"""Checks on the package source itself."""

import ast
from pathlib import Path

import sepwords


def _package_nodes(node_type) -> list[str]:
    """file:line of every node of node_type in the package source."""
    root = Path(sepwords.__file__).parent
    return [f"{path.name}:{node.lineno}" for path in sorted(root.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, node_type)]


def test_no_module_keeps_state_behind_a_global_statement():
    # a fixed computation rerun once per process belongs in a test, not
    # behind a module flag; functools.lru_cache memos stay allowed
    assert _package_nodes(ast.Global) == []


def test_no_module_guards_with_assert():
    # python -O strips assert statements, so a guard must raise an exception
    assert _package_nodes(ast.Assert) == []
