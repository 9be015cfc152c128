"""The package imports nothing beyond the standard library and the
dependencies that ``pyproject.toml`` declares, so it installs and runs
offline with exactly those; the tests add only the ``test`` extra and
their own helper modules.  Guarded imports count too, and a run of every
command loads no scipy module, which only the tests use.  Every C source
the package compiles on first use ships with it as package data.  Only
``_rng`` derives streams, so that every draw is in its map, the Python
adaptive kernel draws one uniform at a time, as ``_hsle.c`` does,
``ensemble`` has one state class for one state or a batch, the kappa
context is a plain value with no cache attribute, and only the record
builder makes Monte Carlo records.  The public names of every
module are pinned, and so are those that nothing in the package or the
benchmarks reads, so code that only the tests use stays with them."""
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


def test_python_adaptive_kernel_has_one_draw_path():
    # the Python adaptive kernel is a transliteration of _hsle.c, which
    # draws each uniform at its counter: a vectorized _rng.*_array draw,
    # called or aliased, would be a second draw path to keep in step
    path = ROOT / "src" / "twocurve" / "_kernels.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    kernel, = (node for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name == "_hsle_evolve_adaptive_np")
    found = [f"_rng.{node.attr}:{node.lineno}" for node in ast.walk(kernel)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "_rng"
             and node.attr.endswith("_array")]
    assert not found


def test_ensemble_has_one_state_class():
    # one state and a batch of states are one class: a second class with
    # the same fields (a column twin, a shared base) would be kept in step
    path = ROOT / "src" / "twocurve" / "ensemble.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert [node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)] == ["EnsembleState"]


def test_per_kappa_state_is_not_object_state():
    # per-kappa artifacts are functools.cache functions of the context: the
    # context is the value kappa alone, and no module keeps an object's
    # ``_cache`` attribute in which such state could come back
    from dataclasses import fields

    from twocurve.context import KappaContext
    assert [f.name for f in fields(KappaContext)] == ["kappa"]
    found = []
    for path in sorted((ROOT / "src" / "twocurve").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr == "_cache"]
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


def _public_top_level_names(path: pathlib.Path) -> list:
    """Names that a module's own top-level statements bind (functions,
    classes, assignments; not imports) and that have no leading
    underscore, sorted."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return sorted(n for n in names if not n.startswith("_"))


def _public_methods(path: pathlib.Path) -> list:
    """"Class.method" for each method (properties included) without a
    leading underscore of a module's public top-level classes, sorted."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return sorted(f"{node.name}.{item.name}" for node in tree.body
                  if isinstance(node, ast.ClassDef)
                  and not node.name.startswith("_")
                  for item in node.body
                  if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not item.name.startswith("_"))


def test_public_names_are_pinned():
    # the package holds what the lab runs: a new public name, or a
    # test-only helper moved back into a module, is a visible edit here
    found = {p.stem: _public_top_level_names(p)
             for p in sorted((ROOT / "src" / "twocurve").glob("*.py"))}
    assert found == {
        "__init__": [],
        "__main__": [],
        "_kernels": ["EPS_KILL", "EPS_RET", "KRES", "PI", "TWO_PI",
                     "active_backend", "backward_flow", "hsle_evolve_adaptive",
                     "hsle_kernel", "kernel_workers", "logger", "z_evolve",
                     "z_update"],
        "_rng": ["GAMMA", "MASK64", "PATH_LIMIT", "RETURN_SLOT", "TWO_PI",
                 "UNIT_DRAWS", "derive_stream", "derive_stream_array",
                 "hit_streams", "mix64", "mix64_array", "normal_pair_array",
                 "uniform", "uniform_array", "z_streams"],
        "checks": ["CheckResult", "DEFAULT_KAPPAS", "SPECTRAL_KAPPA",
                   "TOLERANCES", "check_chapman_kolmogorov",
                   "check_drift_residual", "check_eigenfunctions",
                   "check_hyp_ode", "check_hyp_value_at_one",
                   "check_orthonormality", "check_quasi_invariance",
                   "check_stationarity", "run_all_checks"],
        "cli": ["ConfigError", "RunConfig", "SCHEMA_VERSION", "build_config",
                "build_parser", "cmd_check", "cmd_density", "cmd_fit",
                "cmd_report", "cmd_simulate", "fit_records", "main",
                "read_records_csv", "validate_config", "write_records_csv"],
        "context": ["KappaContext"],
        "density": ["N_CAP", "SERIES_RTOL", "SpectralBasis", "Z_constant",
                    "eigenvalue", "generator_apply", "mode_blocks",
                    "mode_values", "p_infty", "p_t", "pz_over_gu_grid",
                    "quadrature_report", "survival_P2", "tilde_pZ_infty",
                    "tilde_pZ_t", "truncation"],
        "ensemble": ["EnsembleState", "TWO_PI", "drift_residual",
                     "drift_residuals", "ode_rhs", "sample_states",
                     "sin_ratio_sde"],
        "green": ["BoundaryConfig", "G_quad", "G_u", "cross_ratio_of_config"],
        "montecarlo": ["ACCUMULATORS", "CSV_COLUMNS", "EstimateRecord",
                       "HIT_COUNTERS", "TWO_PI", "build_record",
                       "check_hit_inputs", "check_survival_inputs",
                       "estimate_intersection_hit",
                       "estimate_survival_weighted", "estimate_two_curve_hit",
                       "fit_power_law", "pool_C0"],
        "quadrature": ["disc_rule", "square_integrate", "tanh_sinh_rule"],
        "special": ["gtilde_table", "h_const", "hyp_F", "hyp_F_and_dF",
                    "hyp_F_at_1", "hyp_G", "hyp_dF", "hyp_tilde_G",
                    "jacobi_seq", "log_gamma"],
        "timecurve": ["PI", "ZPathEnsemble", "ZState", "simulate_z_ensemble",
                      "time_steps", "xy_of_z"],
        "trig": ["cos2", "cot2", "cot2p", "cot2ppp", "csc2", "sin2"],
    }


def _referenced_names(path: pathlib.Path) -> set:
    """Every name a file reads, every attribute it names and every name it
    imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_public_names_without_a_caller_are_pinned():
    # the public names that no package module and no benchmark reads: the
    # API the lab offers its users; a new helper that only the tests call
    # is a visible edit here
    package = sorted((ROOT / "src" / "twocurve").glob("*.py"))
    public = {n for p in package for n in _public_top_level_names(p)}
    read = set().union(*map(_referenced_names, package + sorted(
        (ROOT / "benchmarks").rglob("*.py"))))
    assert sorted(public - read) == ["pool_C0"]
    # a public method is read when some file names it as an attribute
    methods = [m for p in package for m in _public_methods(p)]
    assert "SpectralBasis.modes_up_to" in methods
    assert [m for m in methods if m.rpartition(".")[2] not in read] == []


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
