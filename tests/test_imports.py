"""Every module-level import in ``src/qpanet`` is used.

The unused-import rule of pyflakes (F401), on the standard library's
``ast``: a name bound by a module-level import must be read somewhere in
its module.  Exempt are ``from __future__`` imports, names that an
``__init__.py`` re-exports through ``__all__``, and lines marked
``# noqa: F401`` (imports kept only so that a benchmark hook resolves).
"""

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qpanet"


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    exported = set()
    if path.name == "__init__.py":
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported = set(ast.literal_eval(node.value))
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in ln for ln in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        f"{path.name}:{line}: {name}"
        for name, line in sorted(bound.items(), key=lambda item: item[1])
        if name not in read and name not in exported
    ]


@pytest.mark.parametrize(
    "path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name
)
def test_module_imports_are_used(path):
    assert _unused_imports(path) == []


def test_checker_flags_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os  # noqa: F401\n"
        "import numpy as np\n"
        "from json import (\n"
        "    dumps,\n"
        "    loads,\n"
        ")\n"
        "x = np.pi + len(dumps([]))\n"
    )
    assert _unused_imports(module) == ["mod.py:2: math", "mod.py:5: loads"]
