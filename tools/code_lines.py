"""Print the code lines of each module in src/sepwords, then their total.

A module's code lines are the non-blank lines of `ast.unparse` of its
source with every docstring dropped, so comments, blank lines and
formatting do not count.

    python3 tools/code_lines.py
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sepwords"


def code_lines(source: str) -> int:
    """The non-blank lines of `source` unparsed without its docstrings."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            # a body of one docstring keeps a `pass`, so the code stays valid
            node.body = node.body[1:] or [ast.Pass()]
    return sum(1 for line in ast.unparse(tree).splitlines() if line.strip())


def main() -> None:
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: -item[1]):
        print(f"{name} {count}")
    print(f"total {sum(counts.values())}")


if __name__ == "__main__":
    main()
