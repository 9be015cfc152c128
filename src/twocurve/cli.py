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
    two-curve hit probability, or ``intersection``) and append the
    estimate records to CSV.  Runs are resumable: disjoint
    ``path_start`` ranges with the same master seed merge exactly.
``fit``
    Fit power laws to hit-probability records from a CSV.
``report``
    Aggregate check reports, estimate CSVs and fits from an output
    directory into ``report.json`` and ``report.md``.

Configuration
-------------

A run is described by a :class:`RunConfig`.  Values are resolved with
the precedence **command-line flag > JSON config file > built-in
default**; pass ``--config file.json`` to load a JSON document whose
keys are the RunConfig field names.  Validation happens before any
computation (``tolerances`` may name only keys of ``checks.TOLERANCES``);
every output file is accompanied by (or embeds) the fully resolved
RunConfig.

If ``master_seed`` is not supplied one is generated from the OS entropy
pool, printed on stdout, and stored in every record and sidecar, so any
run can be reproduced afterwards.

Exit codes: 0 success, 1 verification failure (``check``), 2 invalid
configuration or input, 3 runtime failure.

All CSV files start with a ``schema_version`` column (current version 1).
The JSON sidecars (``check_report.json``, ``density_meta.json``,
``estimates_meta.json``) record under ``versions`` the package, Python and
numpy versions that wrote them.
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
from .green import BoundaryConfig
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
    n_max: int = 60
    method: str = "z-weighted"
    master_seed: int | None = None
    out_dir: str = "."
    path_start: int = 0
    dt_halving: bool = False
    grid_n: int = 24
    fit_window: list = field(default_factory=lambda: [4.0, 8.0])
    kappas: list = field(default_factory=lambda: list(
        checks_mod.DEFAULT_KAPPAS))
    n_drift_states: int = 200
    inject_alpha0_error: float = 0.0
    tolerances: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELD_TYPES = {f.name: f for f in dataclasses.fields(RunConfig)}


def _finite(name: str, value) -> float:
    """value as a finite float: every number of a configuration, from a
    flag or from JSON (whose NaN and Infinity parse), passes here."""
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


def _coerce_list(name: str, value) -> list:
    if isinstance(value, str):
        parts = [p for p in value.replace(",", " ").split() if p]
        value = parts
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
    for name in _FIELD_TYPES:
        flag = getattr(args, name, None)
        if flag is not None:
            data[name] = flag
    cfg = RunConfig()
    for name, value in data.items():
        if name in ("z0", "cfg", "r_list", "t_list", "fit_window", "kappas"):
            value = _coerce_list(name, value)
        elif name in ("n_paths", "n_max", "path_start", "grid_n",
                      "n_drift_states"):
            value = _integer(name, value)
        elif name in ("kappa", "dt", "inject_alpha0_error"):
            value = _finite(name, value)
        elif name == "master_seed" and value is not None:
            value = _integer(name, value)
        elif name == "dt_halving" and not isinstance(value, bool):
            raise ConfigError(f"dt_halving must be true or false, got "
                              f"{value!r}")
        elif name == "tolerances":
            if not isinstance(value, dict):
                raise ConfigError("tolerances must be a mapping")
            value = {str(k): _finite(f"tolerance {k}", v)
                     for k, v in value.items()}
        setattr(cfg, name, value)
    return cfg


def validate_config(cfg: RunConfig, command: str) -> None:
    """Reject all domain violations before any computation."""
    if not (0.0 < cfg.kappa < 8.0):
        raise ConfigError(f"kappa must lie in (0, 8), got {cfg.kappa}")
    if cfg.path_start < 0:
        raise ConfigError("path_start must be >= 0")
    unknown = set(cfg.tolerances) - set(checks_mod.TOLERANCES)
    if unknown:
        raise ConfigError(f"unknown tolerances: {sorted(unknown)} (known: "
                          f"{sorted(checks_mod.TOLERANCES)})")
    if command == "check":
        for k in cfg.kappas:
            if not (0.0 < k < 8.0):
                raise ConfigError(f"check kappa {k} outside (0, 8)")
        if not cfg.kappas:
            raise ConfigError("kappas must be nonempty")
        if cfg.n_drift_states < 1:
            raise ConfigError("n_drift_states must be >= 1")
    if command == "density":
        if len(cfg.z0) != 2:
            raise ConfigError("z0 must be a pair (z1, z2)")
        if not all(0.0 < z < math.pi for z in cfg.z0):
            raise ConfigError(f"z0 must lie in (0, pi)^2, got {cfg.z0}")
        if not cfg.t_list:
            raise ConfigError("t_list must be nonempty")
        if any(t <= 0.0 for t in cfg.t_list):
            raise ConfigError("t_list entries must be positive")
        if cfg.grid_n < 2:
            raise ConfigError("grid_n must be >= 2")
        if cfg.n_max < 1:
            raise ConfigError("n_max must be >= 1")
        if len(cfg.fit_window) != 2 \
                or not 0.0 <= cfg.fit_window[0] < cfg.fit_window[1]:
            raise ConfigError("fit_window must be [t_lo, t_hi] with "
                              "0 <= t_lo < t_hi")
    if command == "simulate":
        if cfg.method not in ("z-weighted", "curves", "intersection"):
            raise ConfigError(
                f"method must be z-weighted | curves | intersection, "
                f"got {cfg.method!r}")
        if cfg.n_paths < 1:
            raise ConfigError("n_paths must be >= 1")
        if cfg.dt <= 0.0:
            raise ConfigError("dt must be positive")
        if cfg.method == "z-weighted":
            if len(cfg.z0) != 2 or not all(0.0 < z < math.pi
                                           for z in cfg.z0):
                raise ConfigError(f"z0 must lie in (0, pi)^2, got {cfg.z0}")
            if not cfg.t_list or any(t < 0.0 for t in cfg.t_list):
                raise ConfigError("t_list must be nonempty and nonnegative")
            # record steps are int64, also at dt / 2 under dt_halving
            if any(not t / cfg.dt < 2.0 ** 62 for t in cfg.t_list):
                raise ConfigError(f"t_list entries must be fewer than 2^62 "
                                  f"steps (dt = {cfg.dt})")
            # a positive time is recorded at its nearest step, which must
            # not be step 0
            if any(t > 0.0 and round(t / cfg.dt) < 1 for t in cfg.t_list):
                raise ConfigError(f"t_list entries must be 0 or more than "
                                  f"half a step (dt = {cfg.dt})")
        else:
            if len(cfg.cfg) != 4:
                raise ConfigError("cfg must be four angles w1 v1 w2 v2")
            try:
                BoundaryConfig(*cfg.cfg)
            except ValueError as exc:
                raise ConfigError(f"invalid marked angles: {exc}") from None
            if not cfg.r_list:
                raise ConfigError("r_list must be nonempty")
            # hit estimation is defined for radii below the quarter
            # threshold; reject early, before any simulation
            if any(not (0.0 < r < 0.25) for r in cfg.r_list):
                raise ConfigError(
                    f"r_list entries must lie in (0, 1/4) for hit "
                    f"estimation, got {cfg.r_list}")
            if cfg.dt > 5e-3:
                raise ConfigError("dt must be <= 5e-3 for curve methods")
            if cfg.method == "intersection" and cfg.kappa <= 4.0:
                raise ConfigError("intersection estimates need kappa in "
                                  "(4, 8) (simple curves never meet)")


def _resolve_seed(cfg: RunConfig) -> tuple[int, bool]:
    if cfg.master_seed is None:
        seed = int.from_bytes(os.urandom(4), "big") & 0x7FFFFFFF
        return seed, True
    return int(cfg.master_seed), False


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _versions() -> dict:
    """What produced a sidecar: the package, Python and numpy versions."""
    return {"twocurve": __version__, "python": platform.python_version(),
            "numpy": np.__version__}


def _float_str(x) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(cfg: RunConfig, out=sys.stdout) -> int:
    t0 = time.perf_counter()
    results = checks_mod.run_all_checks(
        kappas=cfg.kappas, n_drift_states=cfg.n_drift_states,
        inject_alpha0_error=cfg.inject_alpha0_error,
        tolerances=cfg.tolerances)
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
    basis = dens.SpectralBasis(ctx, cfg.n_max)
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

    pt_path = os.path.join(cfg.out_dir, "pz_t.csv")
    with open(pt_path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(("schema_version", "t", "z1", "z2", "value"))
        for t in cfg.t_list:
            vals = dens.tilde_pZ_t(ctx, basis, z0, (za, zb), float(t))
            for a, b, v in zip(za, zb, np.atleast_1d(vals)):
                wr.writerow((SCHEMA_VERSION, _float_str(t), _float_str(a),
                             _float_str(b), _float_str(v)))

    pinf_path = os.path.join(cfg.out_dir, "pz_infty.csv")
    with open(pinf_path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(("schema_version", "z1", "z2", "value"))
        vals = dens.tilde_pZ_infty(ctx, (za, zb))
        for a, b, v in zip(za, zb, np.atleast_1d(vals)):
            wr.writerow((SCHEMA_VERSION, _float_str(a), _float_str(b),
                         _float_str(v)))

    # survival curve over requested times plus the slope-fit window; a
    # requested time whose series does not converge gets nan instead of
    # mode integrals filled up to the level cap for a value that would be
    # unreliable
    skipped = {t for t in all_ts
               if not trunc[t]["converged"] and t not in fit_ts}
    surv = {t: dens.survival_P2(ctx, basis, z0, t)
            for t in all_ts if t not in skipped}
    surv_path = os.path.join(cfg.out_dir, "survival.csv")
    with open(surv_path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(("schema_version", "t", "survival"))
        for t in all_ts:
            wr.writerow((SCHEMA_VERSION, _float_str(t),
                         _float_str(surv.get(t, math.nan))))

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

def _run_estimator(cfg: RunConfig, ctx: KappaContext, seed: int,
                   dt: float) -> list:
    if cfg.method == "z-weighted":
        return mc.estimate_survival_weighted(
            ctx, ZState(*cfg.z0), cfg.t_list, cfg.n_paths, dt, seed,
            path_start=cfg.path_start)
    bc = BoundaryConfig(*cfg.cfg)
    if cfg.method == "curves":
        return mc.estimate_two_curve_hit(
            ctx, bc, cfg.r_list, cfg.n_paths, dt, seed,
            path_start=cfg.path_start)
    return mc.estimate_intersection_hit(
        ctx, bc, cfg.r_list, cfg.n_paths, dt, seed,
        path_start=cfg.path_start)


def write_records_csv(path: str, records) -> None:
    """Records CSV with the leading schema_version column."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(("schema_version",) + mc.CSV_COLUMNS)
        for rec in records:
            wr.writerow([SCHEMA_VERSION] + rec.to_row())


def read_records_csv(path: str) -> list:
    """Read an estimate CSV in the layout of :func:`write_records_csv`;
    ConfigError for other columns or a row whose values do not parse."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        names = tuple(reader.fieldnames or ())
        if names != ("schema_version",) + mc.CSV_COLUMNS:
            raise ConfigError(f"unrecognized estimate CSV columns: {names}")
        rows = []
        for row in reader:
            try:
                rows.append({
                    "kappa": float(row["kappa"]),
                    "method": row["method"],
                    "r_or_t": float(row["r_or_t"]),
                    "estimate": float(row["estimate"]),
                    "stderr": float(row["stderr"]),
                    "ess": float(row["ess"]),
                    "n_paths": int(row["n_paths"]),
                    "dt": float(row["dt"]),
                    "seed": int(row["seed"]),
                    "flags": tuple(f for f in row["flags"].split(";") if f),
                })
            except (TypeError, ValueError, AttributeError) as exc:
                # a short row leaves its missing fields None
                raise ConfigError(f"{path} line {reader.line_num}: {exc}") \
                    from None
        return rows


def cmd_simulate(cfg: RunConfig, out=sys.stdout) -> int:
    ctx = KappaContext(cfg.kappa)
    seed, generated = _resolve_seed(cfg)
    cfg.master_seed = seed
    if generated:
        out.write(f"master_seed = {seed} (generated)\n")
    else:
        out.write(f"master_seed = {seed}\n")
    dts = [cfg.dt] if not cfg.dt_halving else [cfg.dt, cfg.dt / 2.0]
    records = []
    for dt in dts:
        records.extend(_run_estimator(cfg, ctx, seed, dt))
    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, "estimates.csv")
    write_records_csv(csv_path, records)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "n_records": len(records),
        "dt_values": dts,
        "files": ["estimates.csv"],
        "versions": _versions(),
    }
    # the library that ran the kernels, "c" or "python", and its threads
    meta["hsle_kernel"] = records[0].config["hsle_kernel"]
    meta["kernel_workers"] = _kernels.kernel_workers()
    if cfg.method == "z-weighted":
        # where each record time's paths went
        meta["counters"] = [
            {"t": rec.r_or_t, "dt": rec.dt,
             "absorbed": rec.config["absorbed"]} for rec in records]
    else:
        # where each radius's paths went (trivial radii have no counters),
        # with the stop statuses of its second curves, and where each
        # run's first curves stopped
        hit_records = [rec for rec in records if "certified" in rec.config]
        meta["counters"] = [
            {"r": rec.r_or_t, "dt": rec.dt,
             **{k: rec.config[k] for k in (*mc.HIT_COUNTERS, "status_b")
                if k in rec.config}}
            for rec in hit_records]
        meta["status_a"] = [
            {"dt": dt, "counts": counts} for dt, counts in
            {rec.dt: rec.config["status_a"] for rec in hit_records}.items()]
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
    """Group hit-probability records and fit a power law per group."""
    groups: dict = {}
    for row in rows:
        key = (row["kappa"], row["method"], row["dt"])
        groups.setdefault(key, []).append(row)
    fits, skipped = [], []
    for (kappa, method, dt), rows_g in sorted(groups.items()):
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
                     "alpha0": KappaContext(kappa).alpha0,
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

def _read_sidecar(path: str, keys) -> dict:
    """The JSON object in ``path``; ConfigError if the file does not parse
    or is not an object holding every key in ``keys``."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    missing = [k for k in keys if k not in data]
    if missing:
        raise ConfigError(f"{path} lacks {', '.join(missing)}")
    return data


def cmd_report(cfg: RunConfig, out=sys.stdout) -> int:
    """Aggregate everything found in out_dir into report.json/report.md."""
    d = cfg.out_dir
    report: dict = {"schema_version": SCHEMA_VERSION}
    lines = ["# Run report", ""]

    check_path = os.path.join(d, "check_report.json")
    if os.path.exists(check_path):
        check = _read_sidecar(check_path, ("all_passed", "checks"))
        entries = check["checks"]
        if not (isinstance(entries, list) and all(
                isinstance(c, dict) and "name" in c for c in entries)):
            raise ConfigError(f"{check_path}: checks must be a list of "
                              "objects with a name")
        report["checks"] = {
            "all_passed": check["all_passed"],
            "n_checks": len(entries),
            "failed": [c["name"] for c in entries if not c.get("passed")],
        }
        lines += [f"* verification: "
                  f"{'all passed' if check['all_passed'] else 'FAILED'}"
                  f" ({len(entries)} checks)"]

    dens_path = os.path.join(d, "density_meta.json")
    if os.path.exists(dens_path):
        keys = ("Z_constant", "survival_slope", "alpha0")
        dmeta = _read_sidecar(dens_path, keys)
        report["density"] = {k: dmeta[k] for k in keys}
        lines += [f"* survival slope {dmeta['survival_slope']:.6f} "
                  f"(target {-dmeta['alpha0']:.6f}), "
                  f"Z = {dmeta['Z_constant']:.6f}"]

    est_path = os.path.join(d, "estimates.csv")
    records = []
    if os.path.exists(est_path):
        records = read_records_csv(est_path)
        report["estimates"] = records and {
            "n_records": len(records),
            "methods": sorted({r["method"] for r in records}),
        }
        lines += [f"* {len(records)} estimate records "
                  f"({', '.join(sorted({r['method'] for r in records}))})"]
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

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--kappa", type=float, help="SLE parameter in (0, 8)")
    p.add_argument("--out-dir", dest="out_dir", help="output directory")
    p.add_argument("--master-seed", dest="master_seed", type=int,
                   help="master RNG seed (generated and printed if absent)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twocurve",
        description="Numerical laboratory for the two-curve boundary "
                    "Green's function",
        epilog="Value precedence: command-line flag > --config JSON > "
               "built-in default.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the verification battery")
    _add_common(p)
    p.add_argument("--kappas", help="comma-separated kappa list")
    p.add_argument("--n-drift-states", dest="n_drift_states", type=int)
    p.add_argument("--inject-alpha0-error", dest="inject_alpha0_error",
                   type=float, help="fault-injection: perturb the decay "
                   "exponent used by the quasi-invariance check")

    p = sub.add_parser("density", help="evaluate density grids and "
                       "survival curves")
    _add_common(p)
    p.add_argument("--z0", help="start point, two numbers in (0, pi)")
    p.add_argument("--t-list", dest="t_list", help="comma-separated times")
    p.add_argument("--n-max", dest="n_max", type=int,
                   help="spectral truncation level")
    p.add_argument("--grid-n", dest="grid_n", type=int,
                   help="grid points per axis")

    p = sub.add_parser("simulate", help="run a Monte Carlo estimator")
    _add_common(p)
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
    p.add_argument("--dt-halving", dest="dt_halving", action="store_const",
                   const=True, help="also run at dt/2 for convergence "
                   "assessment")

    p = sub.add_parser("fit", help="fit power laws to estimate records")
    _add_common(p)
    p.add_argument("input", help="estimate CSV to fit")

    p = sub.add_parser("report", help="aggregate artifacts in out-dir")
    _add_common(p)
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
        if args.command == "check":
            return cmd_check(cfg)
        if args.command == "density":
            return cmd_density(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "fit":
            try:
                return cmd_fit(cfg, args.input)
            except (ConfigError, OSError) as exc:
                print(f"input error: {exc}", file=sys.stderr)
                return 2
        if args.command == "report":
            try:
                return cmd_report(cfg)
            except ConfigError as exc:
                print(f"input error: {exc}", file=sys.stderr)
                return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
