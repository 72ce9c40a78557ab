"""numpy is the only runtime dependency: every absolute import in the
package names a standard-library module or numpy."""

import ast
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
