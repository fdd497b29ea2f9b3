"""The runtime needs NumPy and the standard library only; SciPy is a test
dependency."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "degenwave"}


def test_cli_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, degenwave.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted((ROOT / "src" / "degenwave").glob("*.py"))
    assert sources
    for path in sources:
        assert _top_level_imports(path) <= ALLOWED, path.name


def test_pyproject_depends_on_numpy_only():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]


# module-level definitions and methods that no module of the package refers
# to, each with the reason it stays in src/; code only tests call belongs in
# tests/reference.py
UNREFERENCED = {
    "multistep.extend_trajectory": "bound by perfbench/traced.py",
    "multistep.semilinear_rhs": "bound by perfbench/traced.py",
    "oracle.compare_energy_decay": "bound by perfbench/traced.py",
    "oracle.compare_energy_norm": "bound by perfbench/traced.py",
    "linop.Propagator.points": "read by perfbench/traced.py's sweep counter",
    "picard.LinearDamping": "the viscous model of acceptance criterion 4",
}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, node) of each module-level function and class and
    of each method, dunder names excepted."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{module}.{node.name}.{sub.name}", sub


def _loaded_names(tree: ast.AST, skip: ast.AST) -> set[str]:
    """Names and attribute names read anywhere in ``tree`` outside ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_package_defines_only_what_it_uses():
    # __init__'s exports do not count as a use
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "degenwave").glob("*.py"))
             if path.stem != "__init__"}
    unused = {name for module, tree in trees.items()
              for name, node in _definitions(module, tree)
              if not any(node.name in _loaded_names(other, node)
                         for other in trees.values())}
    assert unused == set(UNREFERENCED)
