"""The package, its tests and its scripts need only numpy, pytest and hypothesis:
CI installs nothing else, so an import of scipy would pass wherever scipy
happens to be installed and fail there."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_source_file_imports_scipy():
    files = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))
    assert files
    found = [f"{path.relative_to(ROOT)}: {name}" for path in files
             for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
             if name == "scipy" or name.startswith("scipy.")]
    assert not found, found
