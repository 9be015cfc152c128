"""Contract of the ``twocurve`` command line: deterministic ``density``
output, exit code 2 for configurations rejected before any work, config
precedence, run provenance, ``report`` and the estimate CSV format."""
import csv
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import warnings

import numpy as np
import pytest

import twocurve
from twocurve import _kernels, cli, density as dens, montecarlo as mc
from twocurve.cli import main
from twocurve.context import KappaContext
from twocurve.green import BoundaryConfig
from twocurve.quadrature import tanh_sinh_rule
from twocurve.timecurve import ZState, simulate_z_ensemble

S8 = math.pi / 4.0

DENSITY = ["density", "--kappa", "6", "--grid-n", "8", "--t-list", "0.5,1"]
DENSITY_FILES = ("pz_t.csv", "pz_infty.csv", "survival.csv")


def _meta_without_out_dir(out_dir):
    with open(out_dir / "density_meta.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    del meta["config"]["out_dir"]
    return meta


def test_density_output_is_byte_stable(tmp_path):
    runs = [tmp_path / "a", tmp_path / "b"]
    for out_dir in runs:
        assert main(DENSITY + ["--out-dir", str(out_dir)]) == 0
    for name in DENSITY_FILES:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
    assert _meta_without_out_dir(runs[0]) == _meta_without_out_dir(runs[1])


# sha256 of pz_t.csv, pz_infty.csv and survival.csv, recorded again when
# F moved to the Taylor table and the Gamma function to Python's math
# module (survival.csv within 16 ulp of the level-4 values, see
# test_survival_within_16_ulp_of_level_4_values)
DENSITY_DIGESTS = {
    ("3", "default"): (
        "20180dc89c0abb7cc5782727cd9aa4ffc1c003643b9b6da75d176bcf5e6a24fa",
        "9ff1273b655ede670a155116f87a45c082a57b041d8fd620f1bf1a868f5788b3",
        "a013c76c6d30b28cdeb71fac3daa1bef9b7acea104342d46254d385a1bb4ce8a"),
    ("3", "small_t"): (
        "1a76f7799cc474a57a9b3f5033218589a775ef930617364081a7e4529ce17f27",
        "c3c99351199e8e89a519ebb19219c9b7297eba22e93a35a2584f2b4a03561800",
        "639ae8f0797e6a21708192ff4318c57bcb992e63a8b4ceb9fcf5c0afdc445d70"),
    ("6", "default"): (
        "28cc5b1d61ae56a41655cd9d90707007f2e9b37ae58dee8f412bed21d0f093f8",
        "d2f0941a223b0187674b5fe2c85e5e3fff8ea0673fdddf364585b8fa0f2e65c3",
        "3687b3d0f08c2cd327f4bd73781954c5664247e471241516773a46536283346f"),
    ("6", "small_t"): (
        "402ea9ecf84ab6c0c080041f20dfe65ba13632ed2b465b53aa05f744b8ea9cb3",
        "5ec8022995890813142f4060a821cccf92840c89aa425f3a0a0d9af0c081e329",
        "7e99524f340ea9c8f83f8a02c5c0a5946cf75614655f24826781e7b2eb116800"),
    ("7.5", "default"): (
        "45d749ffd9656462a72d99ffd365e805e5c1e86cfc97453d1f4cc39ed8dacf44",
        "1e491f612c5b09b03ead1afcbd5835fa6aeb70da2d02b500e5790661ff51fbb5",
        "a5bfc61901d84ac2eed3e62fc1aed0ca7f7ca99e3b9de28dc2229a751d2932ff"),
    ("7.5", "small_t"): (
        "fdd6bf4ad7f29a283ab2addcdcc2883db5d63ca52a72f917f03fdb1458bccad0",
        "9206382e7a69e77b2041a17cdf2ef634174dada604865d0d0a339a15cdccc28e",
        "5b9dd9d131ceca555e9afb128e3ce80c20c6e8af09e2e4d61198d83fba96040a"),
}
DENSITY_SETTINGS = {"default": [],
                    "small_t": ["--t-list", "0.01,1", "--grid-n", "6"]}


def _digests(out_dir):
    return tuple(hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                 for name in DENSITY_FILES)


@pytest.mark.parametrize("kappa,settings", sorted(DENSITY_DIGESTS),
                         ids=[f"{k}_{s}" for k, s in sorted(DENSITY_DIGESTS)])
def test_density_output_pinned_bytes(kappa, settings, tmp_path):
    assert main(["density", "--kappa", kappa, "--out-dir", str(tmp_path)]
                + DENSITY_SETTINGS[settings]) == 0
    assert _digests(tmp_path) == DENSITY_DIGESTS[kappa, settings]


# survival.csv at the default settings (t 1, 2, 4, then the 17 fit times
# from 4 to 8), as the survival quadrature started at level 4 writes it
LEVEL4_SURVIVAL = {
    "3": """
        0x1.9b27e9650bb71p-3 0x1.df7c75be216d0p-7 0x1.42120d00d4284p-14
        0x1.4e2d0bb606e37p-15 0x1.5abc854198db7p-16 0x1.67c4da6bec66ap-17
        0x1.754a961dc4c8ep-18 0x1.83526ef4e827ep-19 0x1.91e148e94bb2ap-20
        0x1.a0fc370175fc1p-21 0x1.b0a87d174846fp-22 0x1.c0eb91adcc90ap-23
        0x1.d1cb1fd8ac203p-24 0x1.e34d0935f87fdp-25 0x1.f57767faf72dfp-26
        0x1.0428488a53783p-26 0x1.0def8b2e5e4bfp-27 0x1.1814e471ee103p-28
        0x1.229bdda8ed41fp-29""".split(),
    "6": """
        0x1.a2d41e98f56cap-2 0x1.e034e0fcad01ap-4 0x1.3b57986e81842p-7
        0x1.cd6b2419ad2b1p-8 0x1.5194bc71957a0p-8 0x1.edf585bc3df70p-9
        0x1.69635f924800fp-9 0x1.0865b16b4438fp-9 0x1.82dfd25fb20c8p-10
        0x1.1b0b14dcfcb1fp-10 0x1.9e28649954a79p-11 0x1.2f011a5a70bfcp-11
        0x1.bb5d893c0780ap-12 0x1.445f7f694290ep-12 0x1.daa1fd19c13b3p-13
        0x1.5b3fae29c2334p-13 0x1.fc1af02a1fdf6p-14 0x1.73bcdb90e285bp-14
        0x1.0ff818e26a396p-14""".split(),
    "7.5": """
        0x1.0cb61296889aep-1 0x1.c5c20812a46bcp-3 0x1.4363c7839af59p-5
        0x1.04aa0e3315218p-5 0x1.a435dafbc768fp-6 0x1.52b48ffe396bbp-6
        0x1.11025a8deeb97p-6 0x1.b81c7e47c2849p-7 0x1.62bf081d6a2a7p-7
        0x1.1df0526ba45e0p-7 0x1.ccf4690e34c07p-8 0x1.738bfb24237aep-8
        0x1.2b7b0c6622d3ap-8 0x1.e2c9089519f9fp-9 0x1.85249ef3b1468p-9
        0x1.39a9f50798c21p-9 0x1.f9a654ac7ec82p-10 0x1.979299185a167p-10
        0x1.4884d2dc62380p-10""".split(),
}


@pytest.mark.parametrize("kappa", sorted(LEVEL4_SURVIVAL))
def test_survival_within_16_ulp_of_level_4_values(kappa, tmp_path):
    # the survival integrals stop at the level they need (level 2 here):
    # the curve moves by rounding only
    assert main(["density", "--kappa", kappa, "--grid-n", "2",
                 "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "survival.csv", newline="", encoding="utf-8") as fh:
        got = np.array([float(row["survival"]) for row in csv.DictReader(fh)])
    ref = np.array([float.fromhex(h) for h in LEVEL4_SURVIVAL[kappa]])
    assert np.all(np.abs(got - ref) <= 16 * np.spacing(ref))


def test_density_small_time_leaks_no_warning(tmp_path):
    # at t 0.0024 the series summands overflow: the tail bound is inf and
    # the run says so on its own warning line, with no numpy warning (the
    # digests were recorded again when F moved to the Taylor table and the
    # Gamma function to Python's math module)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["density", "--kappa", "1.1", "--t-list", "0.0024",
                     "--grid-n", "2", "--out-dir", str(tmp_path)]) == 0
    assert _digests(tmp_path) == (
        "ff6f611f0c4122e4918b91b3095edad31f3bccf30e2a3443049e70ee95fdbb44",
        "93be7c9978fd86f16680706b0609fe2f31a2ac48012b59a22459d272795aa012",
        "16c3ca990e718dd82991c1c361c092784761dfbfd1097c2c61d7a38c64366048")
    report = _meta_without_out_dir(tmp_path)["truncation"]["pz_t"][0]
    assert (report["tail_bound"], report["converged"]) == (math.inf, False)


def test_density_meta_reports_quadrature(tmp_path,
                                         level5_survival_integrals):
    assert main(DENSITY + ["--out-dir", str(tmp_path)]) == 0
    quadrature = _meta_without_out_dir(tmp_path)["quadrature"]
    # Z_constant and the survival integrals both settle at level 2; the
    # second reads the first's grid, so the points are those of the
    # level-2 grid: each distinct pair of node values once
    assert quadrature["Z_constant"]["level"] == 2
    assert quadrature["survival"]["level"] == 2
    for name in ("Z_constant", "survival"):
        assert quadrature[name]["converged"] is True
    assert 0.0 <= quadrature["Z_constant"]["change"] < 1e-12
    distinct = np.unique(np.pi * tanh_sinh_rule(2)[0]).size
    assert quadrature["pz_points"] == distinct * (distinct + 1) // 2
    # the survival report's change is the level-1 to level-2 step (2.3e-11
    # here), not the error of the level-2 sums: the written curve is held
    # to the one that fixed level-5 mode integrals give
    with open(tmp_path / "survival.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    ts = [float(row["t"]) for row in rows]
    got = np.array([float(row["survival"]) for row in rows])
    defaults = cli.RunConfig()
    ctx = KappaContext(6.0)
    basis = dens.SpectralBasis(ctx, defaults.n_max)
    n_limit = max(dens.truncation(basis, t)[0] for t in ts)
    basis._survival_cache = {
        "n_limit": n_limit, "quadrature": None,
        "integrals": level5_survival_integrals(ctx, basis, n_limit)}
    ref = np.array([dens.survival_P2(ctx, basis, tuple(defaults.z0), t)
                    for t in ts])
    assert np.all(np.abs(got - ref) <= 1e-12 * ref)


@pytest.mark.parametrize("argv", [
    ["density", "--kappa", "8"],
    ["simulate", "--method", "curves", "--r-list", "0.25"],
    ["simulate", "--method", "intersection", "--kappa", "4"],
    # a positive record time that rounds to step 0
    ["simulate", "--method", "z-weighted", "--t-list", "0.0004,1"],
    ["simulate", "--method", "z-weighted", "--dt", "2", "--t-list", "1"],
    # numbers that are not finite, or a step count that is not
    ["density", "--t-list", "nan"],
    ["density", "--t-list", "1,inf"],
    ["simulate", "--method", "z-weighted", "--t-list", "nan"],
    ["simulate", "--method", "curves", "--dt", "nan"],
    ["simulate", "--method", "z-weighted", "--t-list", "inf"],
    ["simulate", "--method", "z-weighted", "--t-list", "1e308"],
    ["simulate", "--method", "z-weighted", "--t-list", "1e300"],
    ["simulate", "--method", "z-weighted", "--dt", "1e-320", "--t-list", "1"],
], ids=["kappa_8", "r_quarter", "intersection_kappa_4",
        "z_weighted_time_under_half_step", "z_weighted_dt_2",
        "density_t_nan", "density_t_inf", "z_weighted_t_nan",
        "curves_dt_nan", "z_weighted_t_inf", "z_weighted_steps_overflow",
        "z_weighted_steps_over_int64", "z_weighted_dt_subnormal"])
def test_rejected_configuration_exits_2(argv, tmp_path, capsys):
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert captured.out == ""  # no seed printed: nothing ran
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,config", [
    ("density", {"fit_window": [-1, 2]}),
    ("check", {"tolerances": {"quasi_invariance_typo": 1e-30}}),
    # JSON NaN and Infinity parse, and are rejected like the flags
    ("simulate", {"method": "curves", "dt": math.nan}),
    ("simulate", {"n_paths": math.inf}),
    # booleans and fractions are not integers, nor strings booleans
    ("simulate", {"dt_halving": "false"}),
    ("simulate", {"n_paths": 2.7}),
    ("simulate", {"n_paths": True}),
    ("simulate", {"master_seed": 1.9}),
    ("density", {"n_max": "4"}),
    ("density", {"grid_n": 3.5}),
    ("simulate", {"path_start": False}),
    ("check", {"n_drift_states": 1.5}),
], ids=["negative_fit_window", "unknown_tolerance", "json_curves_nan_dt",
        "json_infinite_n_paths", "json_dt_halving_string",
        "json_fractional_n_paths", "json_boolean_n_paths",
        "json_fractional_master_seed", "json_string_n_max",
        "json_fractional_grid_n", "json_boolean_path_start",
        "json_fractional_n_drift_states"])
def test_rejected_config_file_exits_2(command, config, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    assert main([command, "--config", str(path),
                 "--out-dir", str(out_dir)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out_dir.exists()


def test_config_file_integers_and_booleans(tmp_path):
    # integral JSON numbers are integers, true and false are dt_halving's
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_paths": 2000.0, "grid_n": 1e1,
                                  "master_seed": 7, "dt_halving": True}))
    cfg = cli.build_config(cli.build_parser().parse_args(
        ["simulate", "--config", str(config), "--path-start", "3"]))
    values = (cfg.n_paths, cfg.grid_n, cfg.master_seed, cfg.path_start)
    assert values == (2000, 10, 7, 3)
    assert all(type(v) is int for v in values)
    assert cfg.dt_halving is True


def test_unknown_config_key_exits_2(tmp_path, capsys):
    # a misspelt key, and a key the configuration no longer has
    for key, value in (("n_path", 10), ("parallelism", 2)):
        config = tmp_path / f"{key}.json"
        config.write_text(json.dumps({"kappa": 6.0, key: value}))
        out_dir = tmp_path / f"out_{key}"
        assert main(["simulate", "--config", str(config),
                     "--out-dir", str(out_dir)]) == 2
        assert (f"unknown config keys: ['{key}']"
                in capsys.readouterr().err)
        assert not out_dir.exists()


def test_config_precedence_flag_over_json_over_default(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid_n": 3, "n_max": 4}))
    out_dir = tmp_path / "out"
    assert main(["density", "--config", str(config), "--grid-n", "2",
                 "--t-list", "1", "--out-dir", str(out_dir)]) == 0
    resolved = _meta_without_out_dir(out_dir)["config"]
    assert resolved["grid_n"] == 2            # flag beats JSON
    assert resolved["n_max"] == 4             # JSON beats default
    assert resolved["fit_window"] == [4.0, 8.0]  # default
    rows = (out_dir / "pz_infty.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 2


def _simulate_meta(tmp_path, method, *args, n_paths=20):
    out_dir = tmp_path / method
    assert main(["simulate", "--method", method, "--n-paths", str(n_paths),
                 "--master-seed", "1", *args,
                 "--out-dir", str(out_dir)]) == 0
    with open(out_dir / "estimates_meta.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_simulate_meta_names_the_hsle_kernel(tmp_path):
    # every method names the library that ran its kernels
    kernel = _kernels.hsle_kernel()
    assert _simulate_meta(tmp_path, "curves")["hsle_kernel"] == kernel
    assert _simulate_meta(tmp_path, "z-weighted",
                          "--t-list", "0.5")["hsle_kernel"] == kernel


def test_sidecars_record_versions(tmp_path):
    # what produced each sidecar: the package, Python and numpy, and no
    # scipy, which the package does not use
    runs = {"check_report.json": ["check", "--kappas", "6",
                                  "--n-drift-states", "2"],
            "density_meta.json": ["density", "--kappa", "6", "--grid-n", "2",
                                  "--t-list", "1"],
            "estimates_meta.json": ["simulate", "--method", "z-weighted",
                                    "--n-paths", "20", "--t-list", "0.5",
                                    "--master-seed", "1"]}
    for name, argv in runs.items():
        out_dir = tmp_path / name
        assert main(argv + ["--out-dir", str(out_dir)]) == 0
        with open(out_dir / name, encoding="utf-8") as fh:
            versions = json.load(fh)["versions"]
        assert versions == {"twocurve": twocurve.__version__,
                            "python": platform.python_version(),
                            "numpy": np.__version__}
        assert "scipy" not in versions


WORKER_RUNS = [
    ("curves", ["--kappa", "6", "--n-paths", "100"]),
    ("intersection", ["--kappa", "7.5", "--n-paths", "20"]),
    ("intersection", ["--kappa", "7.5", "--n-paths", "200"]),
    ("z-weighted", ["--kappa", "6", "--n-paths", "300", "--t-list",
                    "0.5,1"]),
]


@pytest.mark.parametrize("method, args", WORKER_RUNS,
                         ids=["curves_k6", "intersection_k7.5_20",
                              "intersection_k7.5_200", "z_weighted_k6"])
def test_simulate_bytes_do_not_depend_on_kernel_workers(tmp_path,
                                                        monkeypatch, method,
                                                        args):
    # the compiled kernels split a call over 1 or 2 threads: estimates.csv
    # and the meta (stop-status histograms included) are the same bytes,
    # except for the worker count itself
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(_kernels, "_n_workers", lambda w=workers: w)
        out_dir = tmp_path / str(workers)
        assert main(["simulate", "--method", method, "--master-seed", "41",
                     *args, "--out-dir", str(out_dir)]) == 0
        with open(out_dir / "estimates_meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        compiled = meta["hsle_kernel"] == "c"
        assert meta.pop("kernel_workers") == (workers if compiled else 1)
        del meta["config"]["out_dir"]
        runs.append(((out_dir / "estimates.csv").read_bytes(), meta))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("method", ["curves", "intersection"])
def test_simulate_meta_status_histograms_sum_to_rows(tmp_path, method):
    # the first curves' stop statuses (0-4) count every path once per run;
    # a radius's second-curve statuses count its certified paths
    meta = _simulate_meta(tmp_path, method, "--dt-halving", n_paths=60)
    assert [a["dt"] for a in meta["status_a"]] == meta["dt_values"]
    for run in meta["status_a"]:
        assert len(run["counts"]) == 5 and sum(run["counts"]) == 60
    assert len(meta["counters"]) == 3 * 2
    for c in meta["counters"]:
        assert len(c["status_b"]) == 5
        assert sum(c["status_b"]) == c["certified"]
        # second curves alive at the horizon are the alive-certificate
        # hits, and a swallow hit is a status-3 stop
        assert c["status_b"][0] == c["hit_alive"]
        assert c["status_b"][3] >= c["hit_swallow"]
        # a first curve alive at the end reached every radius's snapshot
        status_a, = (a["counts"] for a in meta["status_a"]
                     if a["dt"] == c["dt"])
        assert status_a[0] <= c["certified"]
    assert sum(sum(c["status_b"]) for c in meta["counters"]) > 0


def test_simulate_meta_counts_absorbed_paths(tmp_path):
    # a coarse step from near the corner absorbs paths; the meta counts,
    # per record time, the ensemble's paths with weight zero
    args = ["--z0", "0.12,0.12", "--dt", "0.05", "--t-list", "0,0.1,0.25"]
    meta = _simulate_meta(tmp_path, "z-weighted", *args, n_paths=300)
    ens = simulate_z_ensemble(KappaContext(6.0), ZState(0.12, 0.12),
                              t_max=0.25, dt=0.05, n_paths=300,
                              master_seed=1, record_times=[0.1, 0.25])
    dead = [int(np.sum(w == -np.inf)) for w in ens.log_weight]
    assert [(c["t"], c["dt"], c["absorbed"]) for c in meta["counters"]] == [
        (0.0, 0.05, 0), (0.1, 0.05, dead[0]), (0.25, 0.05, dead[1])]
    assert 0 < dead[0] <= dead[1] == int(ens.absorbed.sum())


@pytest.mark.parametrize("method", ["curves", "intersection"])
def test_simulate_meta_counters_add_up_to_hits(tmp_path, method):
    # per radius, the hit classes in estimates_meta.json sum to the
    # two-curve hits, and the hit count in estimates.csv is that sum
    # (curves) or the meet count (intersection)
    meta = _simulate_meta(tmp_path, method, n_paths=100)
    rows = cli.read_records_csv(str(tmp_path / method / "estimates.csv"))
    hits = {row["r_or_t"]: round(row["estimate"] * row["n_paths"])
            for row in rows}
    counters = {c["r"]: c for c in meta["counters"]}
    assert sorted(counters) == sorted(hits) == [0.05, 0.1, 0.2]
    for r, c in counters.items():
        two_curve = c["hit_swallow"] + c["hit_alive"] + c["hit_probe"]
        assert two_curve <= c["certified"] <= 100
        if method == "intersection":
            assert c["two_curve_hits"] == two_curve
            assert hits[r] == c["meet"] <= two_curve
        else:
            assert hits[r] == two_curve
            assert "meet" not in c and "two_curve_hits" not in c
    assert sum(hits.values()) > 0


def test_density_meta_reports_series_truncation(tmp_path):
    # t = 0.01 needs far more levels than the cap (12 here, 60 by
    # default): its series is reported unconverged, with one warning line;
    # the default times 1, 2, 4 and the fit window converge
    cfg = cli.RunConfig(kappa=6.0, grid_n=2, n_max=12,
                        t_list=[0.01, 1.0, 2.0, 4.0], out_dir=str(tmp_path))
    out = io.StringIO()
    assert cli.cmd_density(cfg, out=out) == 0
    with open(tmp_path / "density_meta.json", encoding="utf-8") as fh:
        truncation = json.load(fh)["truncation"]
    assert [(r["t"], r["converged"]) for r in truncation["pz_t"]] == [
        (0.01, False), (1.0, True), (2.0, True), (4.0, True)]
    survival = truncation["survival"]
    assert [r["t"] for r in survival if not r["converged"]] == [0.01]
    # 0.01, 1 and 2, then the 17 fit times from 4 to 8
    assert len(survival) == 3 + 17
    report = truncation["pz_t"][0]
    assert report["n_used"] == 12 and report["tail_bound"] > 1e9
    warnings = [line for line in out.getvalue().splitlines()
                if line.startswith("warning")]
    assert len(warnings) == 1 and "t=0.01" in warnings[0]
    # its survival is not computed: nan, and the warning says so
    assert "survival was not computed (nan)" in warnings[0]
    with open(tmp_path / "survival.csv", newline="", encoding="utf-8") as fh:
        values = {float(row["t"]): float(row["survival"])
                  for row in csv.DictReader(fh)}
    assert math.isnan(values.pop(0.01))
    # the other times keep the bytes of a run without t = 0.01
    cfg.t_list, cfg.out_dir = [1.0, 2.0, 4.0], str(tmp_path / "default")
    assert cli.cmd_density(cfg, out=io.StringIO()) == 0
    with open(tmp_path / "default" / "survival.csv", newline="",
              encoding="utf-8") as fh:
        assert values == {float(row["t"]): float(row["survival"])
                          for row in csv.DictReader(fh)}


def test_simulate_path_ranges_add_up(tmp_path):
    # two runs over adjacent --path-start ranges hit exactly the paths that
    # one run over both ranges hits, radius by radius
    def hits(start, n_paths):
        out_dir = tmp_path / f"{start}_{n_paths}"
        assert main(["simulate", "--method", "curves", "--kappa", "6",
                     "--r-list", "0.05,0.1,0.2", "--dt", "1e-3",
                     "--n-paths", str(n_paths), "--path-start", str(start),
                     "--master-seed", "1", "--out-dir", str(out_dir)]) == 0
        rows = cli.read_records_csv(str(out_dir / "estimates.csv"))
        counts = {row["r_or_t"]: row["estimate"] * row["n_paths"]
                  for row in rows}
        assert all(abs(c - round(c)) < 1e-9 for c in counts.values())
        return {r: round(c) for r, c in counts.items()}

    whole = hits(0, 200)
    first, second = hits(0, 100), hits(100, 100)
    assert sorted(whole) == [0.05, 0.1, 0.2]
    assert {r: first[r] + second[r] for r in whole} == whole
    assert whole[0.2] > 0


def test_report_without_artifacts_exits_2(tmp_path, capsys):
    assert main(["report", "--out-dir", str(tmp_path)]) == 2
    assert "no artifacts found" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _estimates_with_bad_value(out_dir):
    """An estimates.csv whose one row holds ``abc`` as its estimate."""
    path = out_dir / "estimates.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("schema_version",) + mc.CSV_COLUMNS)
        writer.writerow((1, 6.0, "two_curve_hit", 0.1, "abc", 0.01, 100.0,
                         100, 1e-3, 1, ""))
    return path


def test_fit_of_malformed_csv_exits_2(tmp_path, capsys):
    path = _estimates_with_bad_value(tmp_path)
    assert main(["fit", str(path), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "line 2" in err and "abc" in err


def test_report_of_malformed_csv_exits_2(tmp_path, capsys):
    _estimates_with_bad_value(tmp_path)
    assert main(["report", "--out-dir", str(tmp_path)]) == 2
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_report_of_check_report_that_is_not_json_exits_2(tmp_path, capsys):
    (tmp_path / "check_report.json").write_text("{not json",
                                                encoding="utf-8")
    assert main(["report", "--out-dir", str(tmp_path)]) == 2
    assert "check_report.json is not valid JSON" in capsys.readouterr().err


def test_report_of_density_meta_without_slope_exits_2(tmp_path, capsys):
    (tmp_path / "density_meta.json").write_text(
        json.dumps({"Z_constant": 1.0, "alpha0": 2.0}), encoding="utf-8")
    assert main(["report", "--out-dir", str(tmp_path)]) == 2
    assert "lacks survival_slope" in capsys.readouterr().err


def test_python_m_twocurve_runs_the_cli(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(twocurve.__file__)),
         os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "twocurve", "simulate", "--kappa", "9",
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 2
    assert "configuration error" in done.stderr
    assert not (tmp_path / "out").exists()


def test_report_carries_density_constant(tmp_path):
    assert main(["density", "--grid-n", "2", "--t-list", "1", "--n-max",
                 "4", "--out-dir", str(tmp_path)]) == 0
    assert main(["report", "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "density_meta.json", encoding="utf-8") as fh:
        z_constant = json.load(fh)["Z_constant"]
    with open(tmp_path / "report.json", encoding="utf-8") as fh:
        assert json.load(fh)["density"]["Z_constant"] == z_constant


def test_report_aggregates_check_and_simulate(tmp_path):
    out = ["--out-dir", str(tmp_path)]
    assert main(["check", "--kappas", "6", "--n-drift-states", "20"]
                + out) == 0
    assert main(["simulate", "--method", "curves", "--kappa", "6",
                 "--r-list", "0.15,0.2", "--n-paths", "40", "--dt", "1e-3",
                 "--master-seed", "1"] + out) == 0
    assert main(["report"] + out) == 0
    with open(tmp_path / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["checks"] == {"all_passed": True, "n_checks": 8,
                                "failed": []}
    assert report["estimates"] == {"n_records": 2,
                                   "methods": ["two_curve_hit"]}
    assert [(f["method"], f["n_points"]) for f in report["fits"]] == [
        ("two_curve_hit", 2)]
    text = (tmp_path / "report.md").read_text(encoding="utf-8")
    assert "* verification: all passed (8 checks)" in text
    assert "* 2 estimate records (two_curve_hit)" in text
    assert text.count("| two_curve_hit | 0.") == 2
    assert "* two_curve_hit exponent" in text


class TestRecordsCsv:
    """``write_records_csv``/``read_records_csv``, the one writer and
    reader of ``estimates.csv``."""

    @pytest.fixture(scope="class")
    def records(self):
        cfg = BoundaryConfig(w1=3 * S8, v1=S8, w2=-S8, v2=-3 * S8)
        with pytest.MonkeyPatch.context() as mp:
            # a substep budget of 32768 units keeps the run short
            mp.setitem(mc._SAMPLER, "bmax", 32768)
            return mc.estimate_two_curve_hit(KappaContext(6.0), cfg,
                                             [0.2, 1.5], n_paths=100,
                                             dt=1e-3, seed=8)

    @staticmethod
    def _assert_rows_match(rows, records):
        assert len(rows) == len(records)
        for rec, row in zip(records, rows):
            assert row == {"kappa": rec.kappa, "method": rec.method,
                           "r_or_t": rec.r_or_t, "estimate": rec.estimate,
                           "stderr": rec.stderr, "ess": rec.ess,
                           "n_paths": rec.n_paths, "dt": rec.dt,
                           "seed": rec.seed, "flags": rec.flags}

    def test_round_trip(self, records, tmp_path):
        path = tmp_path / "estimates.csv"
        cli.write_records_csv(str(path), records)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header.split(",") == ["schema_version", *mc.CSV_COLUMNS]
        self._assert_rows_match(cli.read_records_csv(str(path)), records)

    def test_rejects_layout_without_schema_version(self, records, tmp_path):
        # the record columns without the leading schema_version column
        bare = tmp_path / "bare.csv"
        with open(bare, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(mc.CSV_COLUMNS)
            writer.writerows(rec.to_row() for rec in records)
        with pytest.raises(cli.ConfigError):
            cli.read_records_csv(str(bare))
        assert main(["fit", str(bare), "--out-dir", str(tmp_path)]) == 2

    def test_rejects_foreign_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(cli.ConfigError):
            cli.read_records_csv(str(bad))
