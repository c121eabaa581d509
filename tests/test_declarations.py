"""The package declares nothing it does not use: every `DenshoeError`
subclass in `errors.py` is raised somewhere in `src/denshoe`, every
entry of `[project].dependencies` is imported there, and every public
function, method and class it defines is referenced by name in the
package, its tests, the benchmark or the scripts.  It also keeps one
error contract: the package raises no builtin exception but the
`AttributeError` of `QuadReal.__setattr__`."""

import ast
import builtins
import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "denshoe"
USERS = ("src", "tests", "perfbench", "scripts")


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


def builtin_raises():
    """(file, enclosing function, name) of each raise of a builtin
    exception in the package."""
    found = []

    def visit(path, node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(path, child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                cls = getattr(builtins, exc.id, None) if isinstance(exc, ast.Name) else None
                if isinstance(cls, type) and issubclass(cls, BaseException):
                    found.append((path.name, fn, exc.id))
            visit(path, child, fn)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(path, ast.parse(path.read_text(), str(path)), None)
    return found


def imported_modules():
    names = set()
    for tree in trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def public_definitions():
    """(file, name) of each public function and class at module level in
    the package, and of each public method or property of those classes."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                if (isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                        and not d.name.startswith("_")):
                    found.add((path.name, d.name))
    return found


def referenced_names():
    """Every name read, attribute accessed or name imported in the package,
    its tests, the benchmark and the scripts."""
    names = set()
    for d in USERS:
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(a.name for a in node.names)
    return names


def test_every_public_definition_is_referenced():
    defs = public_definitions()
    assert defs, "no public definitions found"
    used = referenced_names()
    assert sorted(d for d in defs if d[1] not in used) == []


def test_every_error_class_is_raised():
    classes = error_classes()
    assert classes, "no DenshoeError subclasses found"
    assert sorted(classes - raised_names()) == []


def test_only_denshoe_errors_are_raised():
    assert builtin_raises() == [("exact.py", "__setattr__", "AttributeError")]


def test_every_dependency_is_imported():
    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_") for d in deps}
    assert names, "no dependencies found"
    assert sorted(names - imported_modules()) == []
