"""Contract of the ``twocurve`` command line: deterministic ``density``
output, exit code 2 for configurations rejected before any work, config
precedence, run provenance, ``report`` and the estimate CSV format."""
import argparse
import ast
import csv
import dataclasses
import hashlib
import importlib.util
import inspect
import io
import json
import math
import os
import pathlib
import platform
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import twocurve
from twocurve import _kernels, _rng, cli, density as dens, montecarlo as mc
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


# sha256 of estimates.csv of small hit and z-weighted runs, recorded before
# the stream derivations moved into the map of draws in ``_rng``; a change
# that moves an estimate must name it and record the digest again
ESTIMATE_DIGESTS = {
    "curves_k6_path_start": (
        ["--method", "curves", "--kappa", "6", "--n-paths", "100",
         "--r-list", "0.05,0.1,0.2", "--path-start", "140",
         "--master-seed", "11"],
        "0c7951b0f28f7622ca211f91651aac6879ee224e01047d545d8d4f853a45dbba"),
    "intersection_k7.5": (
        ["--method", "intersection", "--kappa", "7.5", "--n-paths", "40",
         "--master-seed", "12"],
        "081d301791c69d57306dc80f6db6ac347346c385914a2ec61187b33062430821"),
    # recorded again when the one record builder took over the z-weighted
    # stderr (one-pass sums of w and w^2 instead of np.std): the stderr of
    # t = 2 and 4 moved in its last bit, every other field kept its bytes
    "z_weighted_k6": (
        ["--method", "z-weighted", "--kappa", "6", "--n-paths", "300",
         "--master-seed", "13"],
        "444c191e0356ea34a9e75332a9adc68aaeffd9688dd9f3e3a7d303deddd157aa"),
}


@pytest.mark.parametrize("name", sorted(ESTIMATE_DIGESTS))
def test_simulate_output_pinned_bytes(name, tmp_path):
    args, digest = ESTIMATE_DIGESTS[name]
    assert main(["simulate", *args, "--out-dir", str(tmp_path)]) == 0
    got = hashlib.sha256((tmp_path / "estimates.csv").read_bytes())
    assert got.hexdigest() == digest


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
    # the infinite bound is written as null: the sidecar is strict JSON
    report = _meta_without_out_dir(tmp_path)["truncation"]["pz_t"][0]
    assert (report["tail_bound"], report["converged"]) == (None, False)


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
    basis = dens.SpectralBasis(ctx)
    n_limit = max(dens.truncation(basis, t)[0] for t in ts)
    basis._survival_cache = {
        "n_limit": n_limit, "quadrature": None,
        "integrals": level5_survival_integrals(ctx, basis, n_limit)}
    ref = np.array([dens.survival_P2(ctx, basis, tuple(defaults.z0), t)
                    for t in ts])
    assert np.all(np.abs(got - ref) <= 1e-12 * ref)


REJECTED_ARGV = [
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
    # path ids past 2^63 - 1
    ["simulate", "--method", "curves", "--n-paths", "20",
     "--path-start", "9223372036854775807"],
    ["simulate", "--method", "z-weighted", "--n-paths", "20",
     "--path-start", "9223372036854775807"],
    ["simulate", "--method", "curves", "--path-start",
     "18446744073709551616"],
    ["simulate", "--method", "z-weighted", "--path-start",
     "18446744073709551616"],
    # master seeds that a 64-bit word would wrap to seed 1
    ["simulate", "--method", "curves", "--n-paths", "40", "--r-list", "0.2",
     "--master-seed", "18446744073709551617"],
    ["simulate", "--method", "curves", "--n-paths", "40", "--r-list", "0.2",
     "--master-seed", "-18446744073709551615"],
    # a repeated radius, which would be counted twice into one record
    ["simulate", "--method", "curves", "--kappa", "6", "--n-paths", "100",
     "--r-list", "0.2,0.2", "--master-seed", "3"],
    # a repeated time, which would give two records of one time or write
    # every pz_t.csv row twice; two times on one step of dt likewise
    ["simulate", "--method", "z-weighted", "--t-list", "1,1"],
    ["density", "--t-list", "1,1"],
    ["simulate", "--method", "z-weighted", "--t-list", "1,1.0004"],
    # a repeated kappa, which would run its battery twice; a kappa below
    # the floor of F's accuracy
    ["check", "--kappas", "6,6"],
    ["check", "--kappas", "0.2"],
]
REJECTED_IDS = ["kappa_8", "r_quarter", "intersection_kappa_4",
        "z_weighted_time_under_half_step", "z_weighted_dt_2",
        "density_t_nan", "density_t_inf", "z_weighted_t_nan",
        "curves_dt_nan", "z_weighted_t_inf", "z_weighted_steps_overflow",
        "z_weighted_steps_over_int64", "z_weighted_dt_subnormal",
        "curves_path_ids_past_2^63", "z_weighted_path_ids_past_2^63",
        "curves_path_start_2^64", "z_weighted_path_start_2^64",
        "master_seed_2^64_plus_1", "master_seed_1_minus_2^64",
        "curves_repeated_radius", "z_weighted_repeated_time",
        "density_repeated_time", "z_weighted_times_on_one_step",
        "check_repeated_kappa", "check_kappa_below_floor"]


@pytest.mark.parametrize("argv", REJECTED_ARGV, ids=REJECTED_IDS)
def test_rejected_configuration_exits_2(argv, tmp_path, capsys):
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert captured.out == ""  # no seed printed: nothing ran
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, field, value, message", [
    ("check", "kappas", [6.0, 8.0], "kappa must lie in (0, 8), got 8.0"),
    ("check", "kappas", [math.nan], "kappa must lie in (0, 8), got nan"),
    ("density", "kappa", 0.0, "kappa must lie in (0, 8), got 0.0"),
    ("density", "z0", [0.0, 1.0], "ZState coordinates must lie in (0, pi)"),
    ("density", "z0", [1.0, math.pi],
     "ZState coordinates must lie in (0, pi)"),
    ("check", "kappas", [0.2], "kappa must be at least KAPPA_MIN = 0.25, "
     "got 0.2: below it F is not accurate to 1e-10 (ROADMAP item 3)"),
])
def test_kappa_and_z0_rules_are_their_types(command, field, value, message):
    # KappaContext and ZState own these rules: their message comes through
    # as the ConfigError's
    with pytest.raises(cli.ConfigError) as raised:
        cli.validate_config(cli.RunConfig(**{field: value}), command)
    assert str(raised.value).startswith(message)


@pytest.mark.parametrize("argv", [
    argv for argv in REJECTED_ARGV if argv[0] == "simulate"], ids=[
    name for argv, name in zip(REJECTED_ARGV, REJECTED_IDS)
    if argv[0] == "simulate"])
def test_rejected_simulate_inputs_raise_in_the_estimator(argv, monkeypatch):
    # the estimators own every rule that simulate applies: the same inputs,
    # with nan and inf passed through, raise ValueError before any stream
    # or kernel call
    def forbidden(*args, **kwargs):
        raise AssertionError("ran past the input check")

    for module, name in ((_rng, "hit_streams"), (_rng, "z_streams"),
                         (_kernels, "hsle_evolve_adaptive"),
                         (_kernels, "backward_flow"), (_kernels, "z_evolve")):
        monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(cli, "_finite", lambda name, value: float(value))
    cfg = cli.build_config(cli.build_parser().parse_args(argv))
    seed = 0 if cfg.master_seed is None else cfg.master_seed
    with pytest.raises(ValueError):
        cli._run_estimator(cfg, KappaContext(cfg.kappa), seed)


@pytest.mark.parametrize("command,config", [
    ("density", {"fit_window": [-1, 2]}),
    # keys the configuration no longer has (tolerances, dt_halving, n_max)
    ("check", {"tolerances": {"quasi_invariance_typo": 1e-30}}),
    # JSON NaN and Infinity parse, and are rejected like the flags
    ("simulate", {"method": "curves", "dt": math.nan}),
    ("simulate", {"n_paths": math.inf}),
    # booleans and fractions are not integers
    ("simulate", {"dt_halving": "false"}),
    ("simulate", {"n_paths": 2.7}),
    ("simulate", {"n_paths": True}),
    ("simulate", {"master_seed": 1.9}),
    ("density", {"n_max": "4"}),
    ("density", {"grid_n": 3.5}),
    ("simulate", {"path_start": False}),
    ("check", {"n_drift_states": 1.5}),
    # strings are strings: rejected before the command runs
    ("simulate", {"method": 5}),
    ("simulate", {"method": ["curves"]}),
    ("simulate", {"out_dir": 5}),
    ("density", {"out_dir": None}),
    ("check", {"out_dir": ["out"]}),
    ("simulate", {"out_dir": ""}),
    # booleans are not numbers either
    ("check", {"kappa": True}),
    ("simulate", {"method": "z-weighted", "dt": True}),
    ("density", {"t_list": [True, 2.0]}),
    ("check", {"kappas": [True, 6.0]}),
    # nor are strings: only a flag's text parses as numbers
    ("check", {"kappa": "6.5"}),
    ("density", {"t_list": "1 2"}),
    ("check", {"kappas": ["6"]}),
], ids=["negative_fit_window", "unknown_tolerance", "json_curves_nan_dt",
        "json_infinite_n_paths", "json_dt_halving_string",
        "json_fractional_n_paths", "json_boolean_n_paths",
        "json_fractional_master_seed", "json_string_n_max",
        "json_fractional_grid_n", "json_boolean_path_start",
        "json_fractional_n_drift_states", "json_numeric_method",
        "json_list_method", "json_numeric_out_dir", "json_null_out_dir",
        "json_list_out_dir", "json_empty_out_dir", "json_boolean_kappa",
        "json_boolean_dt", "json_boolean_t_list_entry",
        "json_boolean_kappas_entry", "json_string_kappa",
        "json_string_t_list", "json_string_kappas_entry"])
def test_rejected_config_file_exits_2(command, config, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    # the --out-dir flag would override the file's out_dir
    flags = [] if "out_dir" in config else ["--out-dir", str(out_dir)]
    assert main([command, "--config", str(path), *flags]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out_dir.exists()


def test_simulate_with_empty_out_dir_exits_2_before_running(monkeypatch,
                                                             capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("ran with an empty out_dir")

    monkeypatch.setattr(cli, "_run_estimator", forbidden)
    assert main(["simulate", "--n-paths", "10", "--master-seed", "1",
                 "--out-dir", ""]) == 2
    captured = capsys.readouterr()
    assert "out_dir must not be empty" in captured.err
    assert captured.out == ""  # no seed printed: nothing ran


def test_every_config_field_type_is_coerced():
    # build_config coerces a value by its field's annotation, and knows
    # these; a field of any other type would be set unchecked
    assert {f.type for f in dataclasses.fields(cli.RunConfig)} == {
        "list", "int", "int | None", "float", "str"}


def test_config_file_integers_and_booleans(tmp_path):
    # integral JSON numbers are integers
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_paths": 2000.0, "grid_n": 1e1,
                                  "master_seed": 7}))
    cfg = cli.build_config(cli.build_parser().parse_args(
        ["simulate", "--config", str(config), "--path-start", "3"]))
    values = (cfg.n_paths, cfg.grid_n, cfg.master_seed, cfg.path_start)
    assert values == (2000, 10, 7, 3)
    assert all(type(v) is int for v in values)


def test_unknown_config_key_exits_2(tmp_path, capsys):
    # a misspelt key, and keys the configuration no longer has: saved
    # configs that set them are rejected, not half-read
    for command, key, value in (
            ("simulate", "n_path", 10), ("simulate", "parallelism", 2),
            ("density", "n_max", 60), ("simulate", "dt_halving", True),
            ("check", "tolerances", {"stationarity": 1e-8})):
        config = tmp_path / f"{key}.json"
        config.write_text(json.dumps({"kappa": 6.0, key: value}))
        out_dir = tmp_path / f"out_{key}"
        assert main([command, "--config", str(config),
                     "--out-dir", str(out_dir)]) == 2
        assert (f"unknown config keys: ['{key}']"
                in capsys.readouterr().err)
        assert not out_dir.exists()
    # and their flags are gone
    for argv in (["density", "--n-max", "60"],
                 ["simulate", "--method", "curves", "--dt-halving"]):
        out_dir = tmp_path / argv[0]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out-dir", str(out_dir)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out_dir.exists()


def test_run_config_fields_and_flags_are_pinned():
    # a new option is a visible edit here: the RunConfig fields, and every
    # destination of the parser is one of them or command, config, input
    fields = [f.name for f in dataclasses.fields(cli.RunConfig)]
    assert fields == [
        "kappa", "z0", "cfg", "r_list", "t_list", "n_paths", "dt", "method",
        "master_seed", "out_dir", "path_start", "grid_n", "fit_window",
        "kappas", "n_drift_states", "inject_alpha0_error"]
    parser = cli.build_parser()
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for p in (parser, *sub.choices.values())
             for a in p._actions if a.dest != "help"}
    assert "config" in dests and "input" in dests
    assert dests <= set(fields) | {"command", "config", "input"}


def test_config_precedence_flag_over_json_over_default(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid_n": 3, "t_list": [1]}))
    out_dir = tmp_path / "out"
    assert main(["density", "--config", str(config), "--grid-n", "2",
                 "--out-dir", str(out_dir)]) == 0
    resolved = _meta_without_out_dir(out_dir)["config"]
    assert resolved["grid_n"] == 2            # flag beats JSON
    assert resolved["t_list"] == [1.0]        # JSON beats default
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
    # the first curves' stop statuses (0-4) count every path once; a
    # radius's second-curve statuses count its certified paths
    meta = _simulate_meta(tmp_path, method, n_paths=60)
    status_a = meta["status_a"]
    assert len(status_a) == 5 and sum(status_a) == 60
    assert len(meta["counters"]) == 3
    for c in meta["counters"]:
        assert len(c["status_b"]) == 5
        assert sum(c["status_b"]) == c["certified"]
        # second curves alive at the horizon are the alive-certificate
        # hits, and a swallow hit is a status-3 stop
        assert c["status_b"][0] == c["hit_alive"]
        assert c["status_b"][3] >= c["hit_swallow"]
        # a first curve alive at the end reached every radius's snapshot
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
    assert [(c["t"], c["absorbed"]) for c in meta["counters"]] == [
        (0.0, 0), (0.1, dead[0]), (0.25, dead[1])]
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
    # t = 0.01 needs more levels than the cap of 60: its series is
    # reported unconverged, with one warning line; the default times 1, 2,
    # 4 and the fit window converge
    cfg = cli.RunConfig(kappa=6.0, grid_n=2,
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
    assert report["n_used"] == dens.N_CAP == 60
    assert report["tail_bound"] > 1e9
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


def test_density_evaluates_each_call_invariant_once(tmp_path, monkeypatch):
    # one default call: G_u at z0 once, the extension pZ_infty / G_u on
    # the output grid once, the modes at z0 once and each time's
    # truncation scan once, though three pz_t times, pz_infty and 19
    # survival times ask for them
    seen = {"G_u": [], "ratio": [], "modes": [], "scan": []}
    originals = {name: getattr(dens, name) for name in (
        "G_u", "_pz_over_gu", "mode_blocks", "_scan_truncation")}

    def G_u(ctx, z):
        seen["G_u"].append(tuple(np.asarray(v).tobytes() for v in z))
        return originals["G_u"](ctx, z)

    def pz_over_gu(ctx, z1, z2):
        seen["ratio"].append((z1.tobytes(), z2.tobytes()))
        return originals["_pz_over_gu"](ctx, z1, z2)

    def mode_blocks(basis, n_limit, x, y):
        if np.size(x) == 1:
            seen["modes"].append((float(x), float(y)))
        return originals["mode_blocks"](basis, n_limit, x, y)

    def scan(basis, t):
        seen["scan"].append(t)
        return originals["_scan_truncation"](basis, t)

    for name, f in (("G_u", G_u), ("_pz_over_gu", pz_over_gu),
                    ("mode_blocks", mode_blocks),
                    ("_scan_truncation", scan)):
        monkeypatch.setattr(dens, name, f)
    cfg = cli.RunConfig(out_dir=str(tmp_path))
    assert cli.cmd_density(cfg, out=io.StringIO()) == 0
    z0 = tuple(np.asarray(v, dtype=float).tobytes() for v in cfg.z0)
    assert seen["G_u"] == [z0]
    grid = (np.arange(cfg.grid_n) + 0.5) * math.pi / cfg.grid_n
    za, zb = (v.ravel() for v in np.meshgrid(grid, grid, indexing="ij"))
    assert seen["ratio"].count((za.tobytes(), zb.tobytes())) == 1
    assert len(seen["modes"]) == 1
    fit_ts = np.linspace(*cfg.fit_window, 17).tolist()
    assert sorted(seen["scan"]) == sorted(set(cfg.t_list) | set(fit_ts))


def test_simulate_path_ranges_add_up(tmp_path):
    # two runs over adjacent --path-start ranges hit exactly the paths that
    # one run over both ranges hits, radius by radius, with the same probe
    # rows and flow steps
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
        with open(out_dir / "estimates_meta.json", encoding="utf-8") as fh:
            cost = {c["r"]: (c["probe_rows"], c["flow_steps"])
                    for c in json.load(fh)["counters"]}
        return {r: (round(c), *cost[r]) for r, c in counts.items()}

    whole = hits(0, 200)
    first, second = hits(0, 100), hits(100, 100)
    assert sorted(whole) == [0.05, 0.1, 0.2]
    assert {r: tuple(a + b for a, b in zip(first[r], second[r]))
            for r in whole} == whole
    assert whole[0.2][0] > 0
    assert all(steps > rows > 0 for _, rows, steps in whole.values())


def test_simulate_z_weighted_path_ranges_merge(tmp_path):
    # z-weighted runs over adjacent --path-start ranges merge into the run
    # over both by adding their accumulators: the counts add exactly, the
    # sums of w and w^2 up to rounding, and the record built from the sums
    # is the one run's
    def run(start, n_paths):
        out_dir = tmp_path / f"{start}_{n_paths}"
        assert main(["simulate", "--method", "z-weighted", "--kappa", "6",
                     "--t-list", "0,1,2,4", "--n-paths", str(n_paths),
                     "--path-start", str(start), "--master-seed", "13",
                     "--out-dir", str(out_dir)]) == 0
        with open(out_dir / "estimates_meta.json", encoding="utf-8") as fh:
            counters = json.load(fh)["counters"]
        return cli.read_records_csv(str(out_dir / "estimates.csv")), counters

    rows, whole = run(0, 300)
    (_, first), (_, second) = run(0, 150), run(150, 150)
    assert [c["t"] for c in whole] == [0.0, 1.0, 2.0, 4.0]
    for row, w, a, b in zip(rows, whole, first, second):
        summed = {k: a[k] + b[k] for k in (*mc.ACCUMULATORS, "absorbed")}
        for k in ("n", "band", "excluded", "absorbed"):
            assert summed[k] == w[k]
        for k in ("sum_x", "sum_x2", "sum_l", "sum_l2"):
            assert summed[k] == pytest.approx(w[k], rel=1e-12, abs=0.0)
        rec = mc.build_record(row["kappa"], row["method"], row["r_or_t"],
                              row["dt"], row["seed"], summed, weighted=True)
        for k in ("estimate", "stderr", "ess"):
            assert getattr(rec, k) == pytest.approx(row[k], rel=1e-12,
                                                    abs=0.0)
        assert (rec.n_paths, rec.flags) == (row["n_paths"], row["flags"])
    assert whole[-1]["sum_x"] < whole[0]["sum_x"] == 300


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


def _estimates_with_one_value(out_dir, column, value):
    """An estimates.csv of two two_curve_hit rows at r 0.1 and 0.2 whose
    second row holds ``value`` in ``column``."""
    path = out_dir / "estimates.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("schema_version",) + mc.CSV_COLUMNS)
        for r in (0.1, 0.2):
            row = dict(kappa=6.0, method="two_curve_hit", r_or_t=r,
                       estimate=r, stderr=0.01, ess=100.0, n_paths=100,
                       dt=1e-3, seed=1, flags="")
            if r == 0.2:
                row[column] = value
            writer.writerow((1, *(row[k] for k in mc.CSV_COLUMNS)))
    return path


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["kappa", "r_or_t", "estimate", "stderr",
                                    "ess", "dt"])
def test_non_finite_csv_value_exits_2(column, value, tmp_path, capsys):
    # a NaN estimate was skipped as lacking two radii, an infinite stderr
    # fitted exponent 0.0 and intercept 1.0; both exited 0
    path = _estimates_with_one_value(tmp_path, column, value)
    with pytest.raises(cli.ConfigError, match=f"line 3: {column}"):
        cli.read_records_csv(str(path))
    for argv in (["fit", str(path)], ["report"]):
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "finite" in err
    assert not (tmp_path / "fit.json").exists()
    assert not (tmp_path / "report.json").exists()


def _estimates_not_utf8(out_dir):
    """An estimates.csv whose second line is not UTF-8."""
    path = out_dir / "estimates.csv"
    path.write_bytes(b"schema_version,kappa\n\xff\xfe\n")
    return path


def test_fit_of_csv_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = _estimates_not_utf8(tmp_path)
    assert main(["fit", str(path), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "not UTF-8" in err
    assert not (tmp_path / "fit.json").exists()


def test_fit_of_csv_with_a_row_longer_than_the_header_exits_2(tmp_path,
                                                             capsys):
    path = tmp_path / "estimates.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("schema_version",) + mc.CSV_COLUMNS)
        for r in (0.1, 0.2):
            writer.writerow((1, 6.0, "two_curve_hit", r, r, 0.01, 100.0,
                             100, 1e-3, 1, "", "extra"))
    assert main(["fit", str(path), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "line 2" in err
    assert "more values than columns" in err
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("kappa", ["8.0", "0.0", "-1.0", "nan"])
def test_fit_of_records_with_kappa_outside_0_8_exits_2(kappa, tmp_path,
                                                       capsys):
    path = tmp_path / "estimates.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("schema_version",) + mc.CSV_COLUMNS)
        for r in (0.1, 0.2):
            writer.writerow((1, kappa, "two_curve_hit", r, r, 0.01, 100.0,
                             100, 1e-3, 1, ""))
    assert main(["fit", str(path), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "kappa" in err
    assert not (tmp_path / "fit.json").exists()


def test_report_of_csv_that_holds_only_the_header(tmp_path):
    with open(tmp_path / "estimates.csv", "w", newline="",
              encoding="utf-8") as fh:
        csv.writer(fh).writerow(("schema_version",) + mc.CSV_COLUMNS)
    assert main(["report", "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["estimates"] == {"n_records": 0, "methods": []}


def test_report_of_csv_that_is_not_utf8_exits_2(tmp_path, capsys):
    _estimates_not_utf8(tmp_path)
    assert main(["report", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "not UTF-8" in err
    assert not (tmp_path / "report.json").exists()


def test_report_of_estimates_directory_exits_2(tmp_path, capsys):
    # an unreadable input is an input error for report as for fit
    (tmp_path / "estimates.csv").mkdir()
    for argv in (["fit", str(tmp_path / "estimates.csv")], ["report"]):
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        assert "input error: [Errno" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_runtime_failure_exits_3(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("kernel gave up")

    monkeypatch.setattr(mc, "estimate_two_curve_hit", broken)
    assert main(["simulate", "--method", "curves", "--n-paths", "10",
                 "--master-seed", "1", "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "runtime error: RuntimeError: kernel gave up" in err
    assert not (tmp_path / "estimates.csv").exists()


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


@pytest.mark.parametrize("name, payload, message", [
    ("fit.json", {"fits": [{"method": "x"}]},
     "lacks exponent, exponent_stderr, alpha0"),
    ("fit.json", {"fits": 3}, "fits must be a list of objects"),
    ("density_meta.json", {"Z_constant": "1.0", "survival_slope": -1.0,
                           "alpha0": 1.0}, "must be numbers"),
    ("check_report.json", {"all_passed": "false", "checks": []},
     "all_passed must be a boolean"),
], ids=["fit_entry_without_exponent", "fits_not_a_list",
        "density_constant_a_string", "check_all_passed_a_string"])
def test_report_of_sidecar_with_values_of_the_wrong_type_exits_2(
        name, payload, message, tmp_path, capsys):
    (tmp_path / name).write_text(json.dumps(payload), encoding="utf-8")
    assert main(["report", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and message in err
    assert not (tmp_path / "report.json").exists()


def test_report_counts_a_check_as_passed_only_when_passed_is_true(tmp_path):
    (tmp_path / "check_report.json").write_text(json.dumps({
        "all_passed": False, "checks": [
            {"name": "a", "passed": True}, {"name": "b", "passed": "true"},
            {"name": "c", "passed": 1}, {"name": "d"}]}), encoding="utf-8")
    assert main(["report", "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "report.json", encoding="utf-8") as fh:
        assert json.load(fh)["checks"]["failed"] == ["b", "c", "d"]


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
    assert main(["density", "--grid-n", "2", "--t-list", "1",
                 "--out-dir", str(tmp_path)]) == 0
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
            # a substep budget of 32768 units keeps the run short; r 0.01
            # gives a record with two flags
            mp.setitem(mc._SAMPLER, "bmax", 32768)
            return mc.estimate_two_curve_hit(KappaContext(6.0), cfg,
                                             [0.01, 0.2], n_paths=100,
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


def _outputs(out_dir):
    """Every file a density or check run wrote, the JSON sidecars read
    without their run-dependent entries (out_dir, the check seconds)."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix != ".json":
            files[path.name] = path.read_bytes()
            continue
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        del data["config"]["out_dir"]
        data.pop("seconds", None)
        files[path.name] = data
    return files


def test_outputs_do_not_depend_on_what_ran_before(tmp_path, kappa_caches):
    # the per-kappa caches serve every later call with the bits a direct
    # evaluation gives: after a small-time density (survival to
    # quadrature level 4) and a check at kappas 3 and 6, the default
    # density and check write what they write in a fresh process
    def run(argv, name):
        assert main(argv + ["--out-dir", str(tmp_path / name)]) == 0
        return _outputs(tmp_path / name)

    def misses():
        return [cache.cache_info().misses for cache in kappa_caches]

    run(["density", "--kappa", "6", "--t-list", "0.002,0.05"], "small_t")
    run(["check", "--kappas", "3,6"], "check_3_6")
    before = misses()
    got = {"density": run(["density"], "density")}
    assert misses() == before  # kappa 6 is built already
    got["check"] = run(["check"], "check")
    # the first default check may build kappas 2, 4 and 7.5, which the
    # steps before never asked for; a second one builds nothing
    before = misses()
    assert run(["check"], "check_again") == got["check"]
    assert misses() == before
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(twocurve.__file__)),
         os.environ.get("PYTHONPATH", "")])}
    for command, files in got.items():
        fresh = tmp_path / f"fresh_{command}"
        subprocess.run([sys.executable, "-m", "twocurve", command,
                        "--out-dir", str(fresh)],
                       capture_output=True, env=env, timeout=300, check=True)
        assert _outputs(fresh) == files


# ---------------------------------------------------------------------------
# each command's flags
# ---------------------------------------------------------------------------

COMMAND_FLAGS = {
    "check": {"--config", "--out-dir", "--kappas", "--n-drift-states",
              "--inject-alpha0-error"},
    "density": {"--config", "--out-dir", "--kappa", "--z0", "--t-list",
                "--grid-n"},
    "simulate": {"--config", "--out-dir", "--kappa", "--master-seed",
                 "--method", "--z0", "--cfg", "--r-list", "--t-list",
                 "--n-paths", "--dt", "--path-start"},
    "fit": {"--config", "--out-dir"},
    "report": {"--config", "--out-dir"},
}


def _subparsers() -> dict:
    sub, = (a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_each_command_offers_only_the_flags_it_reads(capsys):
    parsers = _subparsers()
    assert {name: {o for a in p._actions for o in a.option_strings
                   if o not in ("-h", "--help")}
            for name, p in parsers.items()} == COMMAND_FLAGS
    # every flag but --config sets a field that the command's function
    # reads (simulate's through _run_estimator)
    readers = {"check": [cli.cmd_check], "density": [cli.cmd_density],
               "simulate": [cli.cmd_simulate, cli._run_estimator],
               "fit": [cli.cmd_fit], "report": [cli.cmd_report]}
    for name, p in parsers.items():
        read = set(re.findall(r"\bcfg\.(\w+)", "".join(
            map(inspect.getsource, readers[name]))))
        dests = {a.dest for a in p._actions if a.option_strings} - {
            "help", "config"}
        assert dests <= read, (name, dests - read)
    # and --help shows those flags and no other
    for name, flags in COMMAND_FLAGS.items():
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        shown = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
        assert shown - {"--help"} == flags


def test_every_field_has_a_reader_that_offers_its_flag():
    # the declaration of what each command reads: every RunConfig field
    # has a reader, and each command offers a flag of exactly its fields
    # (simulate's of every method, JSON_ONLY aside), with --config, and
    # fit its input; --method offers the declared methods
    fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
    assert {"out_dir"}.union(*cli.COMMAND_FIELDS.values(),
                             *cli.METHOD_FIELDS.values()) == fields
    assert set(cli.JSON_ONLY) <= fields
    parsers = _subparsers()
    assert set(parsers) == set(cli.COMMAND_FIELDS)
    for name, p in parsers.items():
        read = {"out_dir", *cli.COMMAND_FIELDS[name]}
        if name == "simulate":
            read.update(*cli.METHOD_FIELDS.values())
        extra = {"config", "input"} if name == "fit" else {"config"}
        assert {a.dest for a in p._actions} - {"help"} \
            == read - set(cli.JSON_ONLY) | extra, name
    method, = (a for a in parsers["simulate"]._actions if a.dest == "method")
    assert method.choices == tuple(cli.METHOD_FIELDS)


# the fields a sidecar records under "config" besides out_dir: those its
# command, and simulate's method, reads
SIMULATE_FIELDS = {"kappa", "master_seed", "method", "n_paths", "dt",
                   "path_start"}
SIDECAR_CONFIG = {
    ("check", None): {"kappas", "n_drift_states", "inject_alpha0_error"},
    ("density", None): {"kappa", "z0", "t_list", "grid_n", "fit_window"},
    ("simulate", "z-weighted"): SIMULATE_FIELDS | {"z0", "t_list"},
    ("simulate", "curves"): SIMULATE_FIELDS | {"cfg", "r_list"},
    ("simulate", "intersection"): SIMULATE_FIELDS | {"cfg", "r_list"},
}


@pytest.mark.parametrize("command, method", SIDECAR_CONFIG)
def test_sidecar_config_holds_the_fields_its_command_read(command, method,
                                                          tmp_path):
    # one config file sets every field; each command records the values
    # of the fields it read and no other
    every = dataclasses.asdict(cli.RunConfig(
        kappa=7.5, r_list=[0.2], t_list=[0.5], n_paths=20,
        method=method or "curves", master_seed=1, grid_n=2, kappas=[6.0],
        n_drift_states=2))
    config = tmp_path / "every.json"
    config.write_text(json.dumps(every))
    out_dir = tmp_path / "out"
    assert main([command, "--config", str(config),
                 "--out-dir", str(out_dir)]) == 0
    sidecar, = out_dir.glob("*.json")
    recorded = json.loads(sidecar.read_text(encoding="utf-8"))["config"]
    fields = SIDECAR_CONFIG[command, method] | {"out_dir"}
    assert recorded == {k: every[k] for k in fields} | {
        "out_dir": str(out_dir)}


def test_check_neither_checks_nor_records_kappa(tmp_path, capsys):
    # check reads kappas, not kappa: the kappa 9 of a shared config file
    # is no error there, and density, which reads it, still refuses it
    config = tmp_path / "k9.json"
    config.write_text(json.dumps({"kappa": 9}))
    out_dir = tmp_path / "check"
    assert main(["check", "--config", str(config),
                 "--out-dir", str(out_dir)]) == 0
    report = json.loads((out_dir / "check_report.json").read_text(
        encoding="utf-8"))
    assert "kappa" not in report["config"]
    assert main(["density", "--config", str(config),
                 "--out-dir", str(tmp_path / "density")]) == 2
    assert "kappa must lie in (0, 8), got 9.0" in capsys.readouterr().err
    assert not (tmp_path / "density").exists()


@pytest.mark.parametrize("argv, flag", [
    (["check", "--kappa", "3"], "--kappa 3"),
    (["density", "--master-seed", "1"], "--master-seed 1"),
    (["fit", "estimates.csv", "--kappa", "6"], "--kappa 6"),
    (["report", "--master-seed", "1"], "--master-seed 1"),
], ids=["check_kappa", "density_master_seed", "fit_kappa",
        "report_master_seed"])
def test_a_flag_its_command_does_not_read_exits_2(argv, flag, tmp_path,
                                                  monkeypatch, capsys):
    # `check --kappa 3` ran the kappa 6 battery and recorded kappa 3.0
    def forbidden(*args, **kwargs):
        raise AssertionError("ran past the argument parser")

    for name in ("build_config", "cmd_check", "cmd_density",
                 "cmd_simulate", "cmd_fit", "cmd_report"):
        monkeypatch.setattr(cli, name, forbidden)
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out-dir", str(out_dir)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag}" in captured.err
    assert captured.out == "" and not out_dir.exists()


def test_benchmark_command_lines_parse(monkeypatch):
    # benchmarks/run.py calls cli.main with the argv of its workloads'
    # plans, and benchmarks/tests runs them with the TINY specs of
    # test_run.py: each must still parse
    bench = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", run)
    spec.loader.exec_module(run)
    tree = ast.parse((bench / "tests" / "test_run.py").read_text(
        encoding="utf-8"))
    tiny, = (ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign)
             and [getattr(t, "id", None) for t in node.targets] == ["TINY"])
    argvs = [call.argv for name, workload in run.WORKLOADS.items()
             for spec in (workload, {**workload, **tiny.get(name, {})})
             for call in next(run.plan(spec, 1))]
    assert {argv[0] for argv in argvs} == {"check", "density", "simulate"}
    parser = cli.build_parser()
    for argv in argvs:
        parser.parse_args(argv + ["--out-dir", "out"])


# ---------------------------------------------------------------------------
# strict JSON and schema versions
# ---------------------------------------------------------------------------

def _strict_json(path):
    """The JSON of ``path``, failing on NaN, Infinity and -Infinity, which
    RFC 8259 parsers reject."""
    def reject(token):
        raise AssertionError(f"{path.name} holds {token}")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


def test_density_meta_is_strict_json(tmp_path):
    # at kappa 2 the series tail bound of t 0.001 is infinite, written as
    # Infinity in the pz_t and in the survival truncation entries
    assert main(["density", "--kappa", "2", "--t-list", "0.001",
                 "--grid-n", "2", "--out-dir", str(tmp_path)]) == 0
    meta = _strict_json(tmp_path / "density_meta.json")
    entries = [*meta["truncation"]["pz_t"], *meta["truncation"]["survival"]]
    assert [e["t"] for e in entries if e["tail_bound"] is None] == [
        0.001, 0.001]


def test_write_json_writes_non_finite_floats_as_null(tmp_path):
    path = tmp_path / "payload.json"
    cli._write_json(str(path), {
        "a": math.nan, "b": [1.0, -math.inf, (math.inf, 2)],
        "c": {"d": np.float64("nan"), "e": "x"}, "f": None, "g": True})
    assert _strict_json(path) == {"a": None, "b": [1.0, None, [None, 2]],
                                  "c": {"d": None, "e": "x"}, "f": None,
                                  "g": True}


def test_nan_check_residual_is_null_and_report_reads_it(tmp_path,
                                                         monkeypatch):
    result = cli.checks_mod.CheckResult("stationarity", 6.0, 1e-8,
                                        math.nan, False, 0.0)
    monkeypatch.setattr(cli.checks_mod, "run_all_checks",
                        lambda **kwargs: [result])
    out = ["--out-dir", str(tmp_path)]
    assert main(["check"] + out) == 1
    report = _strict_json(tmp_path / "check_report.json")
    assert report["checks"][0]["residual"] is None
    assert main(["report"] + out) == 0
    assert _strict_json(tmp_path / "report.json")["checks"]["failed"] == [
        "stationarity"]


def test_report_reads_null_numbers_as_nan(tmp_path):
    (tmp_path / "density_meta.json").write_text(json.dumps({
        "schema_version": 1, "Z_constant": 1.5, "survival_slope": None,
        "alpha0": 1.25}), encoding="utf-8")
    (tmp_path / "fit.json").write_text(json.dumps({
        "schema_version": 1, "fits": [{
            "method": "two_curve_hit", "exponent": 1.2,
            "exponent_stderr": None, "alpha0": 1.25}]}), encoding="utf-8")
    assert main(["report", "--out-dir", str(tmp_path)]) == 0
    report = _strict_json(tmp_path / "report.json")
    assert report["density"] == {"Z_constant": 1.5, "survival_slope": None,
                                 "alpha0": 1.25}
    assert report["fits"][0]["exponent_stderr"] is None
    text = (tmp_path / "report.md").read_text(encoding="utf-8")
    assert "* survival slope nan (target -1.250000)" in text
    assert "exponent 1.2000 +/- nan vs alpha0 1.2500" in text


def test_estimate_csv_of_another_schema_version_exits_2(tmp_path, capsys):
    path = tmp_path / "estimates.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("schema_version",) + mc.CSV_COLUMNS)
        for r in (0.1, 0.2):
            writer.writerow((7, 6.0, "two_curve_hit", r, r, 0.01, 100.0,
                             100, 1e-3, 1, ""))
    with pytest.raises(cli.ConfigError,
                       match="line 2: schema_version '7', expected 1"):
        cli.read_records_csv(str(path))
    for argv in (["fit", str(path)], ["report"]):
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and f"{path} line 2: schema_version" in err
    assert not (tmp_path / "fit.json").exists()
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("version", [2, "1", True, None])
@pytest.mark.parametrize("name, payload", [
    ("check_report.json", {"all_passed": True, "checks": []}),
    ("density_meta.json", {"Z_constant": 1.0, "survival_slope": -1.25,
                           "alpha0": 1.25}),
    ("fit.json", {"fits": []}),
], ids=["check_report", "density_meta", "fit"])
def test_sidecar_of_another_schema_version_exits_2(name, payload, version,
                                                   tmp_path, capsys):
    path = tmp_path / name
    path.write_text(json.dumps({**payload, "schema_version": version}),
                    encoding="utf-8")
    assert main(["report", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and f"{path}: schema_version" in err
    assert not (tmp_path / "report.json").exists()
