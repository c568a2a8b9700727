"""Every third-party module the package imports is a declared dependency.

Walks each module under ``src/repro`` with ``ast`` and collects the
top-level name of every absolute import, wherever it sits: module
scope, a function body, or a ``try`` block.  Each name must be a
standard-library module, ``repro`` itself, or a distribution listed in
``[project].dependencies`` of ``pyproject.toml``; anything else breaks
the code that imports it on a clean ``pip install``.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

pytestmark = pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"),
    reason="sys.stdlib_module_names needs Python 3.10+",
)

ROOT = Path(__file__).resolve().parent.parent


def _declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        requirements = tomllib.load(handle)["project"]["dependencies"]
    # "numpy>=1.21" -> "numpy"; distribution names normalize - to _.
    return {
        re.match(r"[A-Za-z0-9_.\-]+", req).group(0).lower().replace("-", "_")
        for req in requirements
    }


def _absolute_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_import_is_stdlib_repro_or_declared():
    allowed = (
        set(sys.stdlib_module_names) | {"repro"} | _declared_dependencies()
    )
    undeclared = [
        f"{path.relative_to(ROOT)}:{lineno}: {name}"
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for lineno, name in _absolute_imports(path)
        if name not in allowed
    ]
    assert undeclared == [], (
        "imports of undeclared third-party modules (add them to "
        "[project].dependencies in pyproject.toml):\n"
        + "\n".join(undeclared)
    )


def test_walker_sees_nested_imports_and_skips_relative(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import os.path\n"
        "from . import sibling\n"
        "from .pkg import thing\n"
        "try:\n"
        "    import yaml\n"
        "except ImportError:\n"
        "    yaml = None\n"
        "def f():\n"
        "    from scipy.sparse import csr_matrix\n"
        "    return csr_matrix\n"
    )
    assert [name for _, name in _absolute_imports(module)] == [
        "os", "yaml", "scipy",
    ]


def test_planner_dependency_is_declared():
    # repro.replication.planner imports networkx at module scope.
    assert "networkx" in _declared_dependencies()
