"""The package imports nothing beyond the standard library and the
dependencies that ``pyproject.toml`` declares, so it installs and runs
offline with exactly those; the tests add only the ``test`` extra and
their own helper modules.  Guarded imports count too, and a run of every
command loads no scipy module, which only the tests use.  Every C source
the package compiles on first use ships with it as package data.  Only
``_rng`` derives streams, so that every draw is in its map, and only the
record builder makes Monte Carlo records."""
import ast
import fnmatch
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _pyproject() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def _names(requirements) -> set:
    return {re.match(r"[A-Za-z0-9_.\-]+", d).group(0).lower()
            .replace("-", "_") for d in requirements}


def _declared_dependencies() -> set:
    return _names(_pyproject()["project"]["dependencies"])


def _absolute_imports(path: pathlib.Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _undeclared(directory: pathlib.Path, allowed: set) -> set:
    sources = sorted(directory.glob("*.py"))
    assert sources
    return {f"{p.name}: {name}" for p in sources
            for name in _absolute_imports(p) if name not in allowed}


def test_imports_are_stdlib_or_declared():
    allowed = set(sys.stdlib_module_names) | {"twocurve"} \
        | _declared_dependencies()
    assert not _undeclared(ROOT / "src" / "twocurve", allowed)


def test_test_imports_are_declared_or_test_extra():
    # the tests may also import their own helper modules beside them
    extra = _names(_pyproject()["project"]["optional-dependencies"]["test"])
    helpers = {p.stem for p in (ROOT / "tests").glob("*.py")}
    allowed = set(sys.stdlib_module_names) | {"twocurve"} \
        | _declared_dependencies() | extra | helpers
    assert not _undeclared(ROOT / "tests", allowed)


def test_c_sources_are_package_data():
    declared = _pyproject()["tool"]["setuptools"]["package-data"]["twocurve"]
    sources = sorted(p.name for p in (ROOT / "src" / "twocurve").glob("*.c"))
    assert sources
    missing = [name for name in sources
               if not any(fnmatch.fnmatch(name, pat) for pat in declared)]
    assert not missing


STREAM_DERIVATIONS = {"derive_stream", "derive_stream_array"}


def test_only_rng_derives_streams():
    # a module that needs new draws asks _rng for them (hit_streams,
    # z_streams or a new helper listed in the map of draws)
    found = []
    for path in sorted((ROOT / "src" / "twocurve").glob("*.py")):
        if path.name == "_rng.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in STREAM_DERIVATIONS:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert not found


def test_only_the_record_builder_constructs_records():
    # every estimate, stderr, ESS and flag of a Monte Carlo record comes
    # from montecarlo.build_record; pool_C0 pools records into its own
    found = set()
    for path in sorted((ROOT / "src" / "twocurve").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                name = (func.attr if isinstance(func, ast.Attribute)
                        else func.id if isinstance(func, ast.Name) else None)
                if name == "EstimateRecord":
                    found.add(f"{path.name}:{owner}")
    assert found == {"montecarlo.py:build_record", "montecarlo.py:pool_C0"}


# In a fresh interpreter: import the CLI, then run one command after the
# other; after each stage, print the scipy modules loaded so far.
NO_SCIPY_RUN = """
import json, os, sys
out = sys.argv[1]
from twocurve import cli
stages = [("import twocurve.cli", None),
          ("check", ["check", "--kappas", "6", "--n-drift-states", "2"]),
          ("density", ["density", "--kappa", "6", "--grid-n", "4"]),
          ("simulate curves", ["simulate", "--method", "curves", "--kappa",
                               "6", "--n-paths", "20", "--master-seed", "1"]),
          ("simulate z-weighted", ["simulate", "--method", "z-weighted",
                                   "--kappa", "6", "--n-paths", "200",
                                   "--master-seed", "1"])]
loaded = {}
for i, (name, argv) in enumerate(stages):
    if argv is not None:
        code = cli.main(argv + ["--out-dir", os.path.join(out, str(i))])
        assert code == 0, (name, code)
    loaded[name] = sorted(m for m in sys.modules
                          if m == "scipy" or m.startswith("scipy."))
print(json.dumps(loaded))
"""


def test_commands_load_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(
            os.pathsep)))
    run = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path)],
                         env=env, capture_output=True, text=True,
                         timeout=600)
    assert run.returncode == 0, run.stderr
    loaded = json.loads(run.stdout.splitlines()[-1])
    assert loaded == {name: [] for name in (
        "import twocurve.cli", "check", "density", "simulate curves",
        "simulate z-weighted")}
