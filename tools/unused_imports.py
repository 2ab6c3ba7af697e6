"""Print each imported name that its module never reads; exit 1 if any.

    python tools/unused_imports.py src tests

A name counts as read when it is loaded anywhere in the module or is the
whole of one of its string literals, as a quoted annotation ("Circuit") or an
`__all__` entry (a re-export) is. Stdlib `ast` only.
"""
import ast
import sys
from pathlib import Path


def _imported(tree: ast.Module):
    """(name, line) of each name an import binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _read(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)  # a quoted annotation or `__all__` entry
    return names


def unused(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = _read(tree)
    return [f"{path}:{line}: {name} imported but never read"
            for name, line in _imported(tree) if name not in read]


def main(roots: list[str]) -> int:
    found = [line for root in roots
             for path in sorted(Path(root).rglob("*.py"))
             for line in unused(path)]
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
