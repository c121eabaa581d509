"""The package declares nothing it does not use: every `DenshoeError`
subclass in `errors.py` is raised somewhere in `src/denshoe`, every
entry of `[project].dependencies` is imported there, every third-party
module the tests import is declared there or in the `test` extra, and
every public function, method and class it defines is referenced by
name in the package, its tests, the benchmark or the scripts, and those
that only the tests reach are the ones listed in KEPT.  Likewise every
defaulted parameter of a public function or method is passed by some
call in the package, the benchmark or the scripts, but the ones listed
in KEPT_OPTIONS.  It also keeps one error contract: the package raises
no builtin exception but the `AttributeError` of `QuadReal.__setattr__`."""

import ast
import builtins
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "denshoe"
USERS = ("src", "tests", "perfbench", "scripts")

#: the public definitions that nothing in the package (outside their own
#: body), the benchmark or the scripts uses; the tests reach each of them
KEPT = {
    "gap_length": "the gap lengths of the Denjoy construction, summed against GAP_NORMALIZER",
    "gap_zero": "the gap at orbit index 0, whose ends code the gap pair across the cut 0",
    "angle_of_position": "the semi-conjugacy that collapses the Denjoy gaps to the rotation",
    "rotation_estimate": "the rotation number of a Denjoy map read from one orbit",
    "coding_block": "the coding symbols of any block of indices, as a tuple; the package "
                    "reads the same kernel as an array",
    "from_word": "a window from its '0'/'1' string",
    "factor_set": "the factors of one length, without the lengths below it",
    "complexity": "the factor count p(n), n + 1 on a Sturmian window",
    "balance_defect": "the balance of one length, which characterizes Sturmian windows",
    "rational_limit_language": "the oracle of the rotation walk's zero counts, and the symbolic "
                               "side of the rational Aubry-Mather sets",
    "in_order": "the ternary circular order of the cylinders",
    "overlaps": "whether two rotation classes can hold the same rotation number",
    "continuity_probe": "the paper's continuity in rotation number, a planned benchmark scenario",
    "action": "the action sum that the minimizers lower, which the descent oracles compare",
    "is_saddle": "the verdict of a hyperbolicity report",
}

#: the defaulted parameters of public functions and methods that no call in
#: the package, the benchmark or the scripts passes; the tests pass each
KEPT_OPTIONS = {
    "depth": "continuity_probe at depths 6, 8 and 12, a planned benchmark scenario",
}


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


def imported_modules(trees):
    """The top-level modules that absolute imports in the trees name."""
    names = set()
    for tree in trees:
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


def names_read(tree):
    """Every name read, attribute accessed or name imported in the tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def referenced_names(dirs=USERS):
    """Every name read, attribute accessed or name imported in the given
    directories: by default the package, its tests, the benchmark and the
    scripts."""
    return {name for d in dirs for path in sorted((ROOT / d).rglob("*.py"))
            for name in names_read(ast.parse(path.read_text(), str(path)))}


def package_references():
    """The names the package reads outside the body of a definition of
    that name: a module-level function or class, or a method."""
    names = set()
    for tree in trees():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for x in [*node.bases, *node.decorator_list]:
                    names |= names_read(x)
                for member in node.body:
                    names |= names_read(member) - {node.name, getattr(member, "name", None)}
            else:
                names |= names_read(node) - {getattr(node, "name", None)}
    return names


def test_every_public_definition_is_referenced():
    defs = public_definitions()
    assert defs, "no public definitions found"
    used = referenced_names()
    assert sorted(d for d in defs if d[1] not in used) == []


def test_only_the_kept_names_are_test_only():
    # a new public name that only tests call fails here: use it in the
    # package, make it private, or add it to KEPT with its reason
    used = package_references() | referenced_names(("perfbench", "scripts"))
    assert sorted({name for _, name in public_definitions()} - used) == sorted(KEPT)


def defaulted_parameters():
    """(name it is called by, parameter, positional index or None) of each
    parameter with a default of a public function at module level in the
    package, or of a public method or `__init__` of a class there; an
    `__init__` is called by its class's name, and a method's index does
    not count self."""
    found = []
    for tree in trees():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                fns = [(m.name if m.name != "__init__" else node.name, m, 1)
                       for m in node.body if isinstance(m, ast.FunctionDef)
                       and (m.name == "__init__" or not m.name.startswith("_"))]
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                fns = [(node.name, node, 0)]
            else:
                continue
            for name, fn, skip in fns:
                a = fn.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                found += [(name, p.arg, i - skip)
                          for i, p in enumerate(positional) if i >= first]
                found += [(name, p.arg, None)
                          for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return found


def passed_arguments():
    """{called name: (most positional arguments, keywords)} over every call
    in the package, the benchmark and the scripts; a starred argument
    counts as every position and a ** argument as every keyword (None)."""
    calls = {}
    for d in ("src", "perfbench", "scripts"):
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                npos = (float("inf") if any(isinstance(x, ast.Starred) for x in node.args)
                        else len(node.args))
                most, keywords = calls.setdefault(name, (0, set()))
                keywords.update(k.arg for k in node.keywords)
                calls[name] = (max(most, npos), keywords)
    return calls


def test_only_the_kept_options_are_test_only():
    # a new option that no caller sets fails here: pass it somewhere, make
    # it a constant, or add it to KEPT_OPTIONS with its reason
    params = defaulted_parameters()
    assert params, "no defaulted parameters found"
    calls = passed_arguments()

    def passed(name, param, index):
        most, keywords = calls.get(name, (0, set()))
        return param in keywords or None in keywords or (index is not None and index < most)

    assert sorted(p for name, p, i in params if not passed(name, p, i)) == sorted(KEPT_OPTIONS)


def test_every_error_class_is_raised():
    classes = error_classes()
    assert classes, "no DenshoeError subclasses found"
    assert sorted(classes - raised_names()) == []


def test_only_denshoe_errors_are_raised():
    assert builtin_raises() == [("exact.py", "__setattr__", "AttributeError")]


def requirement_names(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
            for d in requirements}


def test_every_dependency_is_imported():
    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    names = requirement_names(deps)
    assert names, "no dependencies found"
    assert sorted(names - imported_modules(trees())) == []


def test_every_third_party_test_import_is_declared():
    # a module that only the tests import, such as the mpmath oracles',
    # belongs in the test extra
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = requirement_names(project["dependencies"]
                                 + project["optional-dependencies"]["test"])
    paths = sorted((ROOT / "tests").rglob("*.py"))
    imported = imported_modules(ast.parse(p.read_text(), str(p)) for p in paths)
    local = {"denshoe"} | {p.stem for p in paths}
    third_party = imported - set(sys.stdlib_module_names) - local
    assert {"numpy", "mpmath", "pytest"} <= third_party
    assert sorted(third_party - declared) == []
