"""Every third-party module that the tests and the benchmark import is declared in pyproject.toml.

The package itself imports no third-party module but numpy, its one runtime dependency.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _requirement_names(requirements: list) -> set:
    return {re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower().replace("-", "_") for r in requirements}


def _top_level_imports(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_test_and_bench_imports_are_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = _requirement_names(project["dependencies"])
    declared |= _requirement_names(project["optional-dependencies"]["test"])
    undeclared = {}
    for folder in ("tests", "bench"):
        files = sorted((ROOT / folder).glob("*.py"))
        local = {f.stem for f in files} | {project["name"]}
        for path in files:
            third_party = _top_level_imports(path) - local - set(sys.stdlib_module_names)
            missing = {name for name in third_party if name.lower() not in declared}
            if missing:
                undeclared[f"{folder}/{path.name}"] = sorted(missing)
    assert undeclared == {}


_PACKAGE_MODULES = sorted((ROOT / "src" / "chiralchain").glob("*.py"))


@pytest.mark.parametrize("path", _PACKAGE_MODULES, ids=lambda p: p.name)
def test_package_imports_no_third_party_module_but_numpy(path):
    # Relative imports (the package's own modules) have level > 0 and are not collected.
    third_party = _top_level_imports(path) - set(sys.stdlib_module_names) - {"chiralchain", "numpy"}
    assert sorted(third_party) == []


def test_numpy_is_the_only_runtime_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert _requirement_names(project["dependencies"]) == {"numpy"}


def _imported_names(tree: ast.Module) -> set:
    """Names bound by the module's imports, ``from __future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


@pytest.mark.parametrize(
    "path", [p for p in _PACKAGE_MODULES if p.name != "__init__.py"],
    ids=lambda p: p.name,
)
def test_package_modules_use_every_name_they_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported_names(tree) - used) == []


def _private_definitions(tree: ast.Module) -> set:
    """Private names the module defines at its top level: functions, classes and assignments, dunders aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _read_names(tree: ast.Module) -> set:
    """Names the module reads, as a name or as a module attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_private_name_of_the_package_is_used_in_it():
    defined, used = {}, set()
    for path in _PACKAGE_MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.update((name, path.name) for name in _private_definitions(tree))
        used |= _read_names(tree)
    assert sorted(f"{module}: {name}" for name, module in defined.items() if name not in used) == []


def test_every_public_function_and_class_of_the_package_is_exported_or_used_in_it():
    # Exported means imported by __init__, so that a public helper no module reads any more is caught.
    defined, used = {}, _imported_names(ast.parse((ROOT / "src" / "chiralchain" / "__init__.py").read_text()))
    for path in _PACKAGE_MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.update(
            (node.name, path.name) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        )
        used |= _read_names(tree)
    assert sorted(f"{module}: {name}" for name, module in defined.items() if name not in used) == []


@pytest.mark.parametrize("path", _PACKAGE_MODULES, ids=lambda p: p.name)
def test_package_makes_no_view_through_stride_tricks(path):
    # Every strided view of a band is ``hamiltonian._diagonals``, built on the array's own buffer.
    assert "stride_tricks" not in path.read_text()


@pytest.mark.parametrize("name", ["bounds.py", "indices.py"])
def test_bounds_and_indices_read_positions_only_from_the_geometry(name):
    # Neither branches on the basis convention: ``ChainGeometry`` maps basis vectors to positions.
    assert "Convention" not in (ROOT / "src" / "chiralchain" / name).read_text()
