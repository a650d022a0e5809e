"""Every imported name is read: a scan of the package, the tests and the
tools with `ast` for names that an import binds and no expression reads.
The package module's relative imports are its re-exports, and `__future__`
imports are directives; both are allowed."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [
    path
    for folder in (ROOT / "src" / "tllcd", ROOT / "tests", ROOT / "tools")
    for path in sorted(folder.glob("*.py"))
]


def unused_imports(path):
    """The names that `path`'s imports bind and that no expression reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            if path.name == "__init__.py" and node.level > 0:
                continue
        elif not isinstance(node, ast.Import):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_every_imported_name_is_read():
    unused = {
        str(path.relative_to(ROOT)): names
        for path in SOURCES
        if (names := unused_imports(path))
    }
    assert not unused, f"imported and never read: {unused}"
