"""Batch front end: configuration, seeded runs, CSV/JSON emission.

Subcommands
-----------

``check``
    Run the runtime verification battery (:mod:`twocurve.checks`), print
    one PASS/FAIL line per check, write ``check_report.json`` (the
    checks, and the wall seconds of each check and of the battery).
``density``
    Evaluate the transition density and survival curves on grids and
    write them as CSV with a JSON sidecar (normalizing constant, fitted
    survival slope, series truncation per time, and where the tanh-sinh
    quadratures ended, the truncation read from one
    ``density.truncation`` call per time).  Purely deterministic:
    rerunning a config reproduces the files byte for byte.
``simulate``
    Run a Monte Carlo estimator (``z-weighted`` survival, ``curves``
    two-curve hit probability, or ``intersection``) and write its
    estimate records to ``estimates.csv``, replacing the file of an
    earlier run in the same directory.  Runs are resumable: disjoint
    ``path_start`` ranges with the same master seed merge exactly.
``fit``
    Fit power laws to hit-probability records from a CSV.
``report``
    Aggregate check reports, estimate CSVs and fits from an output
    directory into ``report.json`` and ``report.md``; with estimate
    records but no ``fit.json``, fit them and write ``fit.json`` first.

Flags
-----

Every command takes ``--config`` and ``--out-dir``, and besides them only
the flags it reads:

``check``
    ``--kappas``, ``--n-drift-states``, ``--inject-alpha0-error``
``density``
    ``--kappa``, ``--z0``, ``--t-list``, ``--grid-n``
``simulate``
    ``--kappa``, ``--master-seed``, ``--method``, ``--z0``, ``--cfg``,
    ``--r-list``, ``--t-list``, ``--n-paths``, ``--dt``, ``--path-start``
``fit``
    the estimate CSV to fit (positional)
``report``
    none

A flag that its command does not read is a usage error (exit 2), and so
is an abbreviated flag.  A JSON config file may set every RunConfig field
whatever the command, so that one file serves several commands; a command
ignores the fields it does not read (``density``'s ``fit_window`` is set
only there).

Configuration
-------------

A run is described by a :class:`RunConfig`.  Values are resolved with
the precedence **command-line flag > JSON config file > built-in
default**; pass ``--config file.json`` to load a JSON document whose
keys are the RunConfig field names.  Validation happens before any
computation; every output file is accompanied by (or embeds) the fully
resolved RunConfig.  Check tolerances are the pinned
``checks.TOLERANCES``, and the spectral series picks its own truncation
level (``density.truncation``), so neither is configured.  A dt
convergence study is two ``simulate`` runs with one master seed, at
``dt`` and at ``dt / 2``.

If ``simulate`` is given no ``master_seed``, one is generated from the OS
entropy pool, printed on stdout, and stored in every record and sidecar,
so any run can be reproduced afterwards.

Exit codes: 0 success, 1 verification failure (``check``), 2 invalid
configuration or input, 3 runtime failure.

All CSV files start with a ``schema_version`` column (current version 1),
and the JSON files hold it as a key; ``fit`` and ``report`` reject a file
that gives another version.  The JSON sidecars (``check_report.json``,
``density_meta.json``, ``estimates_meta.json``) record under ``versions``
the package, Python and numpy versions that wrote them.  Every JSON file
is strict JSON (RFC 8259): a non-finite number is written as ``null``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, _kernels
from . import checks as checks_mod
from . import density as dens
from . import montecarlo as mc
from .context import KappaContext
from .timecurve import ZState

SCHEMA_VERSION = 1

__all__ = ["RunConfig", "main", "cmd_check", "cmd_density", "cmd_simulate",
           "cmd_fit", "cmd_report", "ConfigError", "SCHEMA_VERSION"]


class ConfigError(ValueError):
    """Invalid configuration or input file (exit code 2)."""


@dataclass
class RunConfig:
    """Fully resolved description of one CLI run."""

    kappa: float = 6.0
    z0: list = field(default_factory=lambda: [math.pi / 2, math.pi / 2])
    cfg: list = field(default_factory=lambda: [3 * math.pi / 4, math.pi / 4,
                                               -math.pi / 4,
                                               -3 * math.pi / 4])
    r_list: list = field(default_factory=lambda: [0.05, 0.1, 0.2])
    t_list: list = field(default_factory=lambda: [1.0, 2.0, 4.0])
    n_paths: int = 1000
    dt: float = 1e-3
    method: str = "z-weighted"
    master_seed: int | None = None
    out_dir: str = "."
    path_start: int = 0
    grid_n: int = 24
    fit_window: list = field(default_factory=lambda: [4.0, 8.0])
    kappas: list = field(default_factory=lambda: list(
        checks_mod.DEFAULT_KAPPAS))
    n_drift_states: int = 200
    inject_alpha0_error: float = 0.0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELD_TYPES = {f.name: f for f in dataclasses.fields(RunConfig)}


def _finite(name: str, value) -> float:
    """value as a finite float: every number of a configuration, from a
    flag or from JSON (whose NaN and Infinity parse), passes here; a
    string is none (only a list flag's text is parsed, by _coerce_list)."""
    if isinstance(value, (bool, str)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") \
            from None
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    return value


def _integer(name: str, value) -> int:
    """value as an int: an integer or an integral float (JSON's 1e3), never
    a boolean, a fraction or a string."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _coerce_list(name: str, value, text: bool) -> list:
    if text:  # a list flag: numbers split by commas or spaces
        value = list(map(float, value.replace(",", " ").split()))
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list")
    return [_finite(f"{name} entries", v) for v in value]


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, the JSON config file, and CLI flags."""
    data: dict = {}
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") \
                from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(loaded) - set(_FIELD_TYPES)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data.update(loaded)
    flags = [n for n in _FIELD_TYPES if getattr(args, n, None) is not None]
    data.update((name, getattr(args, name)) for name in flags)
    cfg = RunConfig()
    for name, value in data.items():
        # coerced by the field's annotation; only flags arrive as text
        kind = _FIELD_TYPES[name].type
        if kind == "list":
            value = _coerce_list(name, value, name in flags)
        elif kind == "int" or kind == "int | None" and value is not None:
            value = _integer(name, value)
        elif kind == "float":
            value = _finite(name, value)
        elif kind == "str" and not isinstance(value, str):
            raise ConfigError(f"{name} must be a string, got {value!r}")
        setattr(cfg, name, value)
    return cfg


def validate_config(cfg: RunConfig, command: str) -> None:
    """Reject all domain violations before any computation.  The rules of
    kappa and z0 belong to ``KappaContext`` and ``ZState``, those of
    simulate to the estimator's input check; their ValueError becomes a
    ConfigError."""
    if not cfg.out_dir:
        raise ConfigError("out_dir must not be empty")
    try:
        KappaContext(cfg.kappa)
        if command == "check":
            if not cfg.kappas:
                raise ConfigError("kappas must be nonempty")
            for k in cfg.kappas:
                KappaContext(k)
            if cfg.n_drift_states < 1:
                raise ConfigError("n_drift_states must be >= 1")
        if command == "density":
            if len(cfg.z0) != 2:
                raise ConfigError("z0 must be a pair (z1, z2)")
            ZState(*cfg.z0)
            if not cfg.t_list or len(set(cfg.t_list)) < len(cfg.t_list):
                raise ConfigError("t_list must be a nonempty list of "
                                  "distinct times")
            if any(t <= 0.0 for t in cfg.t_list):
                raise ConfigError("t_list entries must be positive")
            if cfg.grid_n < 2:
                raise ConfigError("grid_n must be >= 2")
            if len(cfg.fit_window) != 2 \
                    or not 0.0 <= cfg.fit_window[0] < cfg.fit_window[1]:
                raise ConfigError("fit_window must be [t_lo, t_hi] with "
                                  "0 <= t_lo < t_hi")
        if command == "simulate":
            if cfg.method not in ("z-weighted", "curves", "intersection"):
                raise ConfigError(
                    f"method must be z-weighted | curves | intersection, "
                    f"got {cfg.method!r}")
            # the estimator's own input rules; a generated seed is in range
            seed = 0 if cfg.master_seed is None else cfg.master_seed
            if cfg.method == "z-weighted":
                mc.check_survival_inputs(cfg.z0, cfg.t_list, cfg.n_paths,
                                         cfg.dt, seed, cfg.path_start)
            else:
                mc.check_hit_inputs(cfg.kappa, cfg.cfg, cfg.r_list,
                                    cfg.n_paths, cfg.dt, seed,
                                    cfg.path_start,
                                    cfg.method == "intersection")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _json_value(value):
    """value with every non-finite float, in dicts, lists and tuples too,
    as None: JSON has no NaN or Infinity."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value


def _write_json(path: str, payload: dict) -> None:
    """payload as strict JSON, non-finite floats as null."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_value(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def _versions() -> dict:
    """What produced a sidecar: the package, Python and numpy versions."""
    return {"twocurve": __version__, "python": platform.python_version(),
            "numpy": np.__version__}


def _write_csv(path: str, columns, rows) -> None:
    """CSV file of ``rows`` under ``columns``, led by the schema_version
    column (every CSV the package writes)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(("schema_version", *columns))
        wr.writerows((SCHEMA_VERSION, *row) for row in rows)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(cfg: RunConfig, out=sys.stdout) -> int:
    t0 = time.perf_counter()
    results = checks_mod.run_all_checks(
        kappas=cfg.kappas, n_drift_states=cfg.n_drift_states,
        inject_alpha0_error=cfg.inject_alpha0_error)
    total_s = time.perf_counter() - t0
    for r in results:
        out.write(f"{'PASS' if r.passed else 'FAIL'}  {r.name:24s} "
                  f"kappa={r.kappa:<5g} residual={r.residual:.3e} "
                  f"tolerance={r.tolerance:.1e}\n")
    ok = all(r.passed for r in results)
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "checks": [r.to_dict() for r in results],
        "all_passed": ok,
        "seconds": {"checks": [r.seconds for r in results],
                    "total": total_s},
        "versions": _versions(),
    }
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_json(os.path.join(cfg.out_dir, "check_report.json"), report)
    out.write(f"{'OK' if ok else 'FAILED'}: {sum(r.passed for r in results)}"
              f"/{len(results)} checks passed\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def cmd_density(cfg: RunConfig, out=sys.stdout) -> int:
    ctx = KappaContext(cfg.kappa)
    basis = dens.SpectralBasis(ctx)
    z0 = (cfg.z0[0], cfg.z0[1])
    os.makedirs(cfg.out_dir, exist_ok=True)

    # interior midpoint grid on (0, pi)^2
    grid = (np.arange(cfg.grid_n) + 0.5) * math.pi / cfg.grid_n
    za, zb = np.meshgrid(grid, grid, indexing="ij")
    za, zb = za.ravel(), zb.ravel()

    # the series truncation of each time, asked once: the pz_t and the
    # survival reports both read it
    lo, hi = cfg.fit_window
    fit_ts = list(np.linspace(lo, hi, 17))
    all_ts = sorted(set(float(t) for t in cfg.t_list) | set(fit_ts))
    trunc = {}
    for t in all_ts:
        n_used, tail, converged = dens.truncation(basis, t)
        trunc[t] = {"t": t, "n_used": n_used, "tail_bound": tail,
                    "converged": converged}

    # rows of Python floats, which csv writes as their repr, exactly; the
    # grid coordinates and the times repeat from row to row, so each is
    # formatted once with repr and written as that string
    coord = [repr(g) for g in grid.tolist()]
    points = [(c1, c2) for c1 in coord for c2 in coord]  # za, zb order
    pz_t = [(repr(t), *p, v) for t in map(float, cfg.t_list)
            for p, v in zip(points, np.atleast_1d(
                dens.tilde_pZ_t(ctx, basis, z0, (za, zb), t)).tolist())]
    _write_csv(os.path.join(cfg.out_dir, "pz_t.csv"),
               ("t", "z1", "z2", "value"), pz_t)
    pz_infty = np.atleast_1d(dens.tilde_pZ_infty(ctx, (za, zb))).tolist()
    _write_csv(os.path.join(cfg.out_dir, "pz_infty.csv"),
               ("z1", "z2", "value"),
               [(*p, v) for p, v in zip(points, pz_infty)])

    # survival curve over requested times plus the slope-fit window; a
    # requested time whose series does not converge gets nan instead of
    # mode integrals filled up to the level cap for a value that would be
    # unreliable
    skipped = {t for t in all_ts
               if not trunc[t]["converged"] and t not in fit_ts}
    surv = {t: dens.survival_P2(ctx, basis, z0, t)
            for t in all_ts if t not in skipped}
    _write_csv(os.path.join(cfg.out_dir, "survival.csv"), ("t", "survival"),
               [(float(t), float(surv.get(t, math.nan))) for t in all_ts])

    # least-squares slope of log survival on the fit window
    ts = np.array(fit_ts)
    logs = np.log([surv[t] for t in fit_ts])
    design = np.vstack([ts, np.ones_like(ts)]).T
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    slope = float(coef[0])

    meta = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "Z_constant": float(dens.Z_constant(ctx)),
        "survival_slope": slope,
        "alpha0": float(ctx.alpha0),
        "slope_minus_minus_alpha0": slope + float(ctx.alpha0),
        "files": ["pz_t.csv", "pz_infty.csv", "survival.csv"],
        # per time: the heat-kernel series' truncation level, its tail
        # bound relative to the stationary density, and whether that bound
        # met the tolerance below the level cap
        "truncation": {"pz_t": [trunc[float(t)] for t in cfg.t_list],
                       "survival": list(trunc.values())},
        # the tanh-sinh quadratures of Z_constant and of the survival mode
        # integrals: level reached, last inter-level change, tolerance met;
        # and the distinct points of the grid they share
        "quadrature": dens.quadrature_report(ctx, basis),
        "versions": _versions(),
    }
    _write_json(os.path.join(cfg.out_dir, "density_meta.json"), meta)
    for t, r in trunc.items():
        if r["converged"]:
            continue
        note = ", so its survival was not computed (nan)" if t in skipped \
            else ""
        out.write(f"warning: t={t:g}: series not converged at level "
                  f"{r['n_used']} (tail bound {r['tail_bound']:.3g}); its "
                  f"pz_t and survival values are unreliable{note}\n")
    out.write(f"survival slope {slope:.6f} (decay exponent target "
              f"{-ctx.alpha0:.6f}); Z = {meta['Z_constant']:.8f}\n")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _run_estimator(cfg: RunConfig, ctx: KappaContext, seed: int) -> list:
    if cfg.method == "z-weighted":
        return mc.estimate_survival_weighted(
            ctx, cfg.z0, cfg.t_list, cfg.n_paths, cfg.dt, seed,
            path_start=cfg.path_start)
    estimate = (mc.estimate_two_curve_hit if cfg.method == "curves"
                else mc.estimate_intersection_hit)
    return estimate(ctx, cfg.cfg, cfg.r_list, cfg.n_paths, cfg.dt, seed,
                    path_start=cfg.path_start)


def write_records_csv(path: str, records) -> None:
    """Records CSV with the leading schema_version column."""
    _write_csv(path, mc.CSV_COLUMNS, (rec.to_row() for rec in records))


# the types of the estimate CSV's columns but flags, if not a finite float
_COLUMN_TYPES = {"method": str, "n_paths": int, "seed": int}


def read_records_csv(path: str) -> list:
    """Read an estimate CSV in the layout of :func:`write_records_csv`;
    ConfigError for a file that is not UTF-8, other columns, or a row with
    more values than columns, another schema_version, or values that do
    not parse or are not finite."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
        reader = csv.DictReader(lines)
        names = tuple(reader.fieldnames or ())
        if names != ("schema_version",) + mc.CSV_COLUMNS:
            raise ConfigError(f"unrecognized estimate CSV columns: {names}")
        rows = []
        for row in reader:
            # DictReader files the values past the header under None
            if None in row:
                raise ConfigError(f"{path} line {reader.line_num}: more "
                                  f"values than columns")
            if row["schema_version"] != str(SCHEMA_VERSION):
                raise ConfigError(
                    f"{path} line {reader.line_num}: schema_version "
                    f"{row['schema_version']!r}, expected {SCHEMA_VERSION}")
            try:
                rows.append({
                    **{k: _COLUMN_TYPES[k](row[k]) if k in _COLUMN_TYPES
                       else _finite(k, float(row[k]))
                       for k in mc.CSV_COLUMNS[:-1]},
                    "flags": tuple(f for f in row["flags"].split(";") if f)})
            except (TypeError, ValueError, AttributeError) as exc:
                # a short row leaves its missing fields None
                raise ConfigError(f"{path} line {reader.line_num}: {exc}") \
                    from None
        return rows


def cmd_simulate(cfg: RunConfig, out=sys.stdout) -> int:
    ctx = KappaContext(cfg.kappa)
    generated = cfg.master_seed is None
    if generated:
        cfg.master_seed = int.from_bytes(os.urandom(4), "big") & 0x7FFFFFFF
    seed = int(cfg.master_seed)
    out.write(f"master_seed = {seed}{' (generated)' if generated else ''}\n")
    records = _run_estimator(cfg, ctx, seed)
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_records_csv(os.path.join(cfg.out_dir, "estimates.csv"), records)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "n_records": len(records),
        "files": ["estimates.csv"],
        "versions": _versions(),
    }
    # the library that ran the kernels, "c" or "python", and its threads
    meta["hsle_kernel"] = records[0].config["hsle_kernel"]
    meta["kernel_workers"] = _kernels.kernel_workers()
    # per radius or time: the record's accumulators, which add up across
    # path ranges, and where its paths went (absorbed; or the hit classes,
    # backward-flow rows and steps and second-curve stop statuses)
    key = "t" if cfg.method == "z-weighted" else "r"
    meta["counters"] = [
        {key: rec.r_or_t,
         **{k: rec.config[k] for k in (*mc.ACCUMULATORS, *mc.HIT_COUNTERS,
                                       "status_b", "absorbed")
            if k in rec.config}}
        for rec in records]
    if cfg.method != "z-weighted":
        # where the run's first curves stopped
        meta["status_a"] = records[0].config["status_a"]
    _write_json(os.path.join(cfg.out_dir, "estimates_meta.json"), meta)
    for rec in records:
        out.write(f"{rec.method} r_or_t={rec.r_or_t:g} dt={rec.dt:g} "
                  f"estimate={rec.estimate:.6g} stderr={rec.stderr:.3g}"
                  f"{' ' + ';'.join(rec.flags) if rec.flags else ''}\n")
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

_FITTABLE = ("two_curve_hit", "intersection_hit")


def fit_records(rows) -> dict:
    """Group hit-probability records and fit a power law per group;
    ConfigError for a record whose kappa lies outside (0, 8)."""
    groups: dict = {}
    for row in rows:
        key = (row["kappa"], row["method"], row["dt"])
        groups.setdefault(key, []).append(row)
    fits, skipped = [], []
    for (kappa, method, dt), rows_g in sorted(groups.items()):
        try:
            ctx = KappaContext(kappa)
        except ValueError as exc:
            raise ConfigError(f"record {exc}") from None
        label = {"kappa": kappa, "method": method, "dt": dt,
                 "n_points": len(rows_g)}
        if method not in _FITTABLE:
            skipped.append({**label, "reason": "method not a radius "
                            "power law"})
            continue
        pts = sorted((r["r_or_t"], r["estimate"], r["stderr"])
                     for r in rows_g if r["r_or_t"] < 1.0)
        if len(pts) < 2:
            skipped.append({**label, "reason": "fewer than two radii"})
            continue
        try:
            expo, inter, cov = mc.fit_power_law(pts)
        except ValueError as exc:
            skipped.append({**label, "reason": str(exc)})
            continue
        fits.append({**label,
                     "exponent": expo,
                     "exponent_stderr": float(math.sqrt(max(cov[0, 0],
                                                            0.0))),
                     "intercept": inter,
                     "intercept_stderr": float(math.sqrt(max(cov[1, 1],
                                                             0.0))),
                     "alpha0": ctx.alpha0,
                     })
    return {"schema_version": SCHEMA_VERSION, "fits": fits,
            "skipped": skipped}


def cmd_fit(cfg: RunConfig, input_path: str, out=sys.stdout) -> int:
    rows = read_records_csv(input_path)
    result = fit_records(rows)
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_json(os.path.join(cfg.out_dir, "fit.json"), result)
    for f in result["fits"]:
        out.write(f"{f['method']} kappa={f['kappa']:g}: exponent "
                  f"{f['exponent']:.4f} +/- {f['exponent_stderr']:.4f} "
                  f"(alpha0 {f['alpha0']:.4f}), intercept "
                  f"{f['intercept']:.4f}\n")
    for s in result["skipped"]:
        out.write(f"skipped {s['method']} kappa={s['kappa']:g}: "
                  f"{s['reason']}\n")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _read_sidecar(path: str, keys=(), numbers=()) -> dict:
    """The JSON object in ``path``; ConfigError if the file does not parse,
    ``_check_object`` rejects it, or it gives a schema_version other than
    ``SCHEMA_VERSION``."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    data = _check_object(path, data, keys, numbers)
    version = data.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(f"{path}: schema_version {version!r}, expected "
                          f"{SCHEMA_VERSION}")
    return data


def _check_object(path: str, obj, keys, numbers=()) -> dict:
    """``obj`` if it is a JSON object holding ``keys``, and numbers (not
    booleans) or null under ``numbers``, where a null becomes nan; else
    ConfigError."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: not a JSON object: {obj!r:.40}")
    missing = [k for k in (*keys, *numbers) if k not in obj]
    if missing:
        raise ConfigError(f"{path} lacks {', '.join(missing)}")
    if any(type(obj[k]) not in (int, float, type(None)) for k in numbers):
        raise ConfigError(f"{path}: {', '.join(numbers)} must be numbers")
    obj.update((k, math.nan) for k in numbers if obj[k] is None)
    return obj


def _check_objects(path: str, data: dict, key: str, keys,
                   numbers=()) -> list:
    """``data[key]`` if it is a list of objects ``_check_object`` accepts."""
    if not isinstance(data[key], list):
        raise ConfigError(f"{path}: {key} must be a list of objects")
    return [_check_object(path, e, keys, numbers) for e in data[key]]


def cmd_report(cfg: RunConfig, out=sys.stdout) -> int:
    """Aggregate everything found in out_dir into report.json/report.md."""
    d = cfg.out_dir
    report: dict = {"schema_version": SCHEMA_VERSION}
    lines = ["# Run report", ""]

    check_path = os.path.join(d, "check_report.json")
    if os.path.exists(check_path):
        check = _read_sidecar(check_path, ("all_passed", "checks"))
        if not isinstance(check["all_passed"], bool):
            raise ConfigError(f"{check_path}: all_passed must be a boolean")
        entries = _check_objects(check_path, check, "checks", ("name",))
        report["checks"] = {
            "all_passed": check["all_passed"],
            "n_checks": len(entries),
            "failed": [c["name"] for c in entries
                       if c.get("passed") is not True],
        }
        lines += [f"* verification: "
                  f"{'all passed' if check['all_passed'] else 'FAILED'}"
                  f" ({len(entries)} checks)"]

    dens_path = os.path.join(d, "density_meta.json")
    if os.path.exists(dens_path):
        keys = ("Z_constant", "survival_slope", "alpha0")
        dmeta = _read_sidecar(dens_path, numbers=keys)
        report["density"] = {k: dmeta[k] for k in keys}
        lines += [f"* survival slope {dmeta['survival_slope']:.6f} "
                  f"(target {-dmeta['alpha0']:.6f}), "
                  f"Z = {dmeta['Z_constant']:.6f}"]

    est_path = os.path.join(d, "estimates.csv")
    records = []
    if os.path.exists(est_path):
        records = read_records_csv(est_path)
        methods = sorted({r["method"] for r in records})
        report["estimates"] = {"n_records": len(records), "methods": methods}
        lines += [f"* {len(records)} estimate records ({', '.join(methods)})"]
        lines += ["", "| method | r_or_t | dt | estimate | stderr | flags |",
                  "|---|---|---|---|---|---|"]
        for r in records:
            lines += [f"| {r['method']} | {r['r_or_t']:g} | {r['dt']:g} "
                      f"| {r['estimate']:.6g} | {r['stderr']:.3g} "
                      f"| {';'.join(r['flags'])} |"]
        lines += [""]

    fit_path = os.path.join(d, "fit.json")
    if os.path.exists(fit_path):
        fit = _read_sidecar(fit_path, ("fits",))
        _check_objects(fit_path, fit, "fits", ("method",),
                       ("exponent", "exponent_stderr", "alpha0"))
    elif records:
        fit = fit_records(records)
        _write_json(fit_path, fit)
    else:
        fit = None
    if fit is not None:
        report["fits"] = fit["fits"]
        for f in fit["fits"]:
            lines += [f"* {f['method']} exponent {f['exponent']:.4f} "
                      f"+/- {f['exponent_stderr']:.4f} vs alpha0 "
                      f"{f['alpha0']:.4f}"]

    if len(report) == 1:
        raise ConfigError(f"no artifacts found in {d!r} (expected "
                          "check_report.json, density_meta.json or "
                          "estimates.csv)")
    _write_json(os.path.join(d, "report.json"), report)
    with open(os.path.join(d, "report.md"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    out.write(f"report written to {os.path.join(d, 'report.json')}\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_command(sub, name: str, help: str) -> argparse.ArgumentParser:
    """The parser of command ``name``, holding the flags of every command
    (module docstring, Flags).  Flags are spelled out in full: with
    abbreviations, ``check``'s ``--kappas`` would take ``--kappa``."""
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--out-dir", dest="out_dir", help="output directory")
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twocurve",
        description="Numerical laboratory for the two-curve boundary "
                    "Green's function",
        epilog="Value precedence: command-line flag > --config JSON > "
               "built-in default.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "check", "run the verification battery")
    p.add_argument("--kappas", help="comma-separated kappa list")
    p.add_argument("--n-drift-states", dest="n_drift_states", type=int)
    p.add_argument("--inject-alpha0-error", dest="inject_alpha0_error",
                   type=float, help="fault-injection: perturb the decay "
                   "exponent used by the quasi-invariance check")

    p = _add_command(sub, "density",
                     "evaluate density grids and survival curves")
    p.add_argument("--kappa", type=float, help="SLE parameter in (0, 8)")
    p.add_argument("--z0", help="start point, two numbers in (0, pi)")
    p.add_argument("--t-list", dest="t_list", help="comma-separated times")
    p.add_argument("--grid-n", dest="grid_n", type=int,
                   help="grid points per axis")

    p = _add_command(sub, "simulate", "run a Monte Carlo estimator")
    p.add_argument("--kappa", type=float, help="SLE parameter in (0, 8)")
    p.add_argument("--master-seed", dest="master_seed", type=int,
                   help="master RNG seed (generated and printed if absent)")
    p.add_argument("--method",
                   choices=("z-weighted", "curves", "intersection"))
    p.add_argument("--z0", help="start point for z-weighted")
    p.add_argument("--cfg", help="four marked angles w1 v1 w2 v2")
    p.add_argument("--r-list", dest="r_list", help="radii for curve methods")
    p.add_argument("--t-list", dest="t_list", help="times for z-weighted")
    p.add_argument("--n-paths", dest="n_paths", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--path-start", dest="path_start", type=int,
                   help="first path index (resumable ranges)")

    p = _add_command(sub, "fit", "fit power laws to estimate records")
    p.add_argument("input", help="estimate CSV to fit")

    _add_command(sub, "report", "aggregate artifacts in out-dir")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        validate_config(cfg, args.command)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command in ("fit", "report"):
            # an input file that is missing, unreadable or malformed
            try:
                return (cmd_fit(cfg, args.input) if args.command == "fit"
                        else cmd_report(cfg))
            except (ConfigError, OSError) as exc:
                print(f"input error: {exc}", file=sys.stderr)
                return 2
        return {"check": cmd_check, "density": cmd_density,
                "simulate": cmd_simulate}[args.command](cfg)
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
