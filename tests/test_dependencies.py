"""What the package is made of: numpy is the only runtime dependency
(every absolute import in the package names a standard-library module or
numpy), every public function and class has a caller outside the tests, and
every public class member has a reader outside them."""

import ast
import re
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tasksim"
ALLOWED = sys.stdlib_module_names | {"numpy"}


def _absolute_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_runtime_imports_are_stdlib_or_numpy():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    outside = [
        f"{path.relative_to(PACKAGE)}:{line}: {name}"
        for path in files
        for line, name in _absolute_imports(path)
        if name.split(".")[0] not in ALLOWED
    ]
    assert outside == []


# Every public module-level function and class in the package has a caller
# in the package or in the benchmark. A name is called when a live body
# refers to it: the module-level code of a package or benchmark module, a
# console-script entry point, or the body of a function or class that is
# itself called. Bare names stand for any definition of that name. Imports
# in a package __init__ re-export names and call nothing.
REPO = PACKAGE.parents[1]


def _entry_points():
    """The functions that pyproject.toml's [project.scripts] names."""
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]")[1].split("\n[")[0]
    return set(re.findall(r':(\w+)"', scripts))


def _referenced_names(node, count_imports=True):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom) and count_imports:
            yield from (alias.name for alias in sub.names)


def _uncalled_public_names():
    roots = _entry_points()
    assert roots, "pyproject.toml names no console script"
    bodies: dict[str, list] = {}
    public = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(node.name, []).append(node)
                if not node.name.startswith("_"):
                    public.append(f"{path.relative_to(PACKAGE)}:{node.name}")
            else:
                roots.update(_referenced_names(node, path.name != "__init__.py"))
    for path in sorted((REPO / "perfbench").rglob("*.py")):
        roots.update(_referenced_names(ast.parse(path.read_text(encoding="utf-8"))))
    called, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in called:
            called.add(name)
            for node in bodies.get(name, ()):
                todo.extend(_referenced_names(node))
    return [entry for entry in public if entry.split(":")[1] not in called]


def test_every_public_function_and_class_has_a_caller():
    assert _uncalled_public_names() == []


# Every public method, property and annotated field of a package class is
# read as an attribute in the package, the benchmark or the acceptance
# tests. Bare names stand for any member of that name. NamedTuple fields
# are exempt: unpacking reads them by position.
def _is_namedtuple(node: ast.ClassDef) -> bool:
    return any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases)


def _public_members():
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = item.name
                elif isinstance(item, ast.AnnAssign) and not _is_namedtuple(node):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield f"{path.relative_to(PACKAGE)}:{node.name}.{name}"


def _read_attributes():
    paths = [
        *PACKAGE.rglob("*.py"),
        *(REPO / "perfbench").rglob("*.py"),
        REPO / "tests" / "test_acceptance.py",
    ]
    return {
        sub.attr
        for path in paths
        for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store)
    }


def test_every_public_member_has_a_reader():
    read = _read_attributes()
    assert [m for m in _public_members() if m.rsplit(".", 1)[1] not in read] == []
