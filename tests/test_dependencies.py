"""What the package is made of: numpy is the only runtime dependency
(every absolute import in the package names a standard-library module or
numpy), and every public function and class has a caller outside the tests."""

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
