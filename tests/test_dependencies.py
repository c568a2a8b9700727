"""Every third-party module the package imports is a declared dependency.

Walks each module under ``src/repro`` with ``ast`` and collects the
top-level name of every absolute import, wherever it sits: module
scope, a function body, or a ``try`` block.  Each name must be a
standard-library module, ``repro`` itself, or a distribution listed in
``[project].dependencies`` of ``pyproject.toml``; anything else breaks
the code that imports it on a clean ``pip install``.  The experiments
are also run in a subprocess whose import system refuses every other
top-level module, which catches imports the walker cannot see.
"""

import ast
import json
import os
import re
import subprocess
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


def test_no_module_imports_networkx():
    # The replica planner runs its own max-flow; the graph library it
    # used to import is no longer a dependency.
    offenders = [
        f"{path.relative_to(ROOT)}:{lineno}"
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for lineno, name in _absolute_imports(path)
        if name == "networkx"
    ]
    assert offenders == []
    assert "networkx" not in _declared_dependencies()


#: Runs ``python -m MODULE ARGS...`` with every top-level module outside
#: the JSON list in ``argv[1]`` made unimportable.
_ONLY_ALLOWED = """
import json, runpy, sys

allowed = frozenset(json.loads(sys.argv.pop(1)))
module = sys.argv.pop(1)

class BlockUndeclared:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] not in allowed:
            raise ModuleNotFoundError(f"blocked: {name}", name=name)
        return None

sys.meta_path.insert(0, BlockUndeclared())
sys.argv[0] = module
runpy.run_module(module, run_name="__main__", alter_sys=True)
"""


def _run_with_only_declared_modules(module, *args):
    allowed = sorted(
        set(sys.stdlib_module_names) | {"repro"} | _declared_dependencies()
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", _ONLY_ALLOWED, json.dumps(allowed), module,
         *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_blocker_refuses_an_installed_undeclared_module():
    # pytest is installed (it runs this test) but is not a dependency.
    done = _run_with_only_declared_modules("pytest", "--version")
    assert done.returncode != 0
    assert "blocked: pytest" in done.stderr


@pytest.mark.parametrize("experiment", ["X4", "degraded", "all"])
def test_experiments_run_with_only_declared_modules(experiment):
    done = _run_with_only_declared_modules(
        "repro", "experiment", experiment, "--quick"
    )
    assert done.returncode == 0, done.stderr
    assert "blocked" not in done.stderr
    assert done.stdout.strip()


#: Each snippet runs one report stage in a fresh interpreter and prints
#: whether ``numpy.ma`` got imported along the way.
_REPORT_STAGES = {
    "all --quick": (
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['experiment', 'all', '--quick']) == 0\n"
    ),
    "growth": (
        "from repro.experiments import exp_growth\n"
        "exp_growth.run()\n"
    ),
}


@pytest.mark.parametrize("stage", sorted(_REPORT_STAGES))
def test_report_stages_never_import_masked_arrays(stage):
    # ``np.unique`` and ``np.median`` pull in numpy.ma (20-25 ms per
    # process) on first use; the report paths avoid both.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    code = _REPORT_STAGES[stage] + (
        "import sys\nprint('numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "False"
