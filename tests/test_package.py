"""The package ships only what it runs: every module under src/sparsenet/
is reached by relative imports from the package or the CLI, so a module
that only tests use belongs under tests/."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sparsenet"


def _imported_modules(module: str):
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # `from . import name` reads __init__ unless name is a module file
            names = [node.module] if node.module else [a.name for a in node.names]
            yield from (n if (PACKAGE / f"{n}.py").exists() else "__init__" for n in names)


def test_every_module_is_reached_from_the_package_or_the_cli():
    reached, todo = set(), ["__init__", "cli"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo.extend(_imported_modules(module))
    assert {path.stem for path in PACKAGE.glob("*.py")} - reached == set()
