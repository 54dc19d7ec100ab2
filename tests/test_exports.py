"""Every name a module exports in `__all__` exists in that module, and no
module of the package or its tests imports a name it never uses."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import polaron_effmass

REPO_ROOT = Path(__file__).resolve().parents[1]

MODULES = ["polaron_effmass"] + [
    f"polaron_effmass.{info.name}"
    for info in pkgutil.iter_modules(polaron_effmass.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def _unused_imports(path):
    """Names a module imports and never reads (``__all__`` counts as a read)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    unused = {str(path.relative_to(REPO_ROOT)): names
              for folder in ("src", "tests")
              for path in sorted((REPO_ROOT / folder).rglob("*.py"))
              if (names := _unused_imports(path))}
    assert not unused, f"unused imports: {unused}"
