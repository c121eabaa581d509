"""The package declares nothing it does not use: every `DenshoeError`
subclass in `errors.py` is raised somewhere in `src/denshoe`, and every
entry of `[project].dependencies` is imported there."""

import ast
import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "denshoe"


def trees():
    return [ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))]


def error_classes():
    """Names of the classes in errors.py that derive, directly or through
    another such class, from DenshoeError."""
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    names = {"DenshoeError"}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in names for b in node.bases):
            names.add(node.name)
    return names - {"DenshoeError"}


def raised_names():
    names = set()
    for tree in trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def imported_modules():
    names = set()
    for tree in trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_every_error_class_is_raised():
    classes = error_classes()
    assert classes, "no DenshoeError subclasses found"
    assert sorted(classes - raised_names()) == []


def test_every_dependency_is_imported():
    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_") for d in deps}
    assert names, "no dependencies found"
    assert sorted(names - imported_modules()) == []
