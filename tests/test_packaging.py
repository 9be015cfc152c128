"""The package imports nothing beyond the standard library and the
dependencies that ``pyproject.toml`` declares, so it installs and runs
offline with exactly those.  Guarded imports count too.  Every C source
the package compiles on first use ships with it as package data."""
import ast
import fnmatch
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _pyproject() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def _declared_dependencies() -> set:
    deps = _pyproject()["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.\-]+", d).group(0).lower()
            .replace("-", "_") for d in deps}


def _absolute_imports(path: pathlib.Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_imports_are_stdlib_or_declared():
    allowed = set(sys.stdlib_module_names) | {"twocurve"} \
        | _declared_dependencies()
    sources = sorted((ROOT / "src" / "twocurve").glob("*.py"))
    assert sources
    undeclared = {f"{p.name}: {name}" for p in sources
                  for name in _absolute_imports(p) if name not in allowed}
    assert not undeclared


def test_c_sources_are_package_data():
    declared = _pyproject()["tool"]["setuptools"]["package-data"]["twocurve"]
    sources = sorted(p.name for p in (ROOT / "src" / "twocurve").glob("*.c"))
    assert sources
    missing = [name for name in sources
               if not any(fnmatch.fnmatch(name, pat) for pat in declared)]
    assert not missing
