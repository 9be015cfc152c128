"""The package imports nothing beyond the standard library and the
dependencies that ``pyproject.toml`` declares, so it installs and runs
offline with exactly those.  Guarded imports count too."""
import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _declared_dependencies() -> set:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
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
