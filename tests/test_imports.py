"""Every module reads each name it imports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path):
    """``(line, name)`` of each name ``path`` imports and never reads; a
    ``from __future__`` import is a compiler switch, not a name."""
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_no_unused_imports():
    """Across ``src/``, ``tests/`` and ``scripts/``; a package's
    ``__init__.py`` imports to re-export, so it is skipped."""
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for top in ("src", "tests", "scripts")
             for path in sorted((ROOT / top).rglob("*.py")) if path.name != "__init__.py"
             for line, name in _unused_imports(path)]
    assert found == []


def test_unused_import_is_caught(tmp_path):
    """The check flags a plain and a from-import nothing reads, and passes
    the ones read, as a call or as an attribute's base."""
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\nimport os\nimport os.path\n"
                    "import sys\nfrom math import pi, tau as t\n\nprint(sys.argv, t)\n")
    assert _unused_imports(path) == [(2, "os"), (3, "os"), (5, "pi")]


def test_package_exports_what_it_imports():
    """``mixopt.__all__`` is the set of names ``mixopt/__init__.py``
    imports, each once, and each resolves on the package, so a name deleted
    from a module leaves no stale export."""
    import mixopt

    tree = ast.parse((ROOT / "src" / "mixopt" / "__init__.py").read_text())
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert len(set(mixopt.__all__)) == len(mixopt.__all__)
    assert set(mixopt.__all__) == imported
    assert all(hasattr(mixopt, name) for name in mixopt.__all__)
