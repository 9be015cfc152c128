"""Contract of the ``twocurve`` command line: deterministic ``density``
output, exit code 2 for configurations rejected before any work, config
precedence, run provenance, ``report`` and the estimate CSV format."""
import csv
import hashlib
import io
import json
import math
import warnings

import numpy as np
import pytest

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


# sha256 of pz_t.csv, pz_infty.csv and survival.csv.  The pz_t.csv and
# pz_infty.csv digests were recorded before the tail scan doubled and the
# tanh-sinh grid was shared; survival.csv was recorded again when the
# survival mode integrals began to escalate from level 0 (within 8 ulp of
# the level-4 values, see test_survival_within_16_ulp_of_level_4_values)
DENSITY_DIGESTS = {
    ("3", "default"): (
        "71c6eb9f0cf40a87e270d3a0066f3453eb226f06e8914a8a4ed78a33539ec337",
        "49071854e1d28902fef6db00e00d3fa7c9d11e4853ccef0e7fe7c82bf5ea0f46",
        "3d1dc83c8e71f7336dbd4ebcda34d4b0d351e6175f800e2d19040984371627f0"),
    ("3", "small_t"): (
        "61128866c231aebf49c9d99f30c7991290796071e5ccafbde01e76bdd03af7b9",
        "082381891ce0f73119cad757f97dd1b74b6ab1fd5d8347d9bb6f83a18c9fbcdb",
        "f4dc2801d2ce0785fb79f584446fb32e4088f39951b26fbe4a7f5cf0a9d1f3f1"),
    ("6", "default"): (
        "d7af227a710c81216d7f17d9089088c4b78ea76041958ae48fee42f9ef465361",
        "82588e986a971bc747d27c9b76ff1f1d9109d2b18b24acd221f80798dd33e441",
        "80524a5e95ddb71e51e058dc0d4874dd9cc47695995efad70f735f13e8f24df4"),
    ("6", "small_t"): (
        "c753b4f61e389a951b258388d7498f2173b6f8bedc3b062e48801831bceff684",
        "e7f1a4eb76f37b4135c575c1de9b93b37a9406a60d8da0128dc27a9568f677b8",
        "74a6ac832b97251b97b3ba447258db7a9d0f3d1eefe58a740d7ad1e829dfb92f"),
    ("7.5", "default"): (
        "3452104e3454f7a0c8c82b3832ccda2a1260c335e0fc8b9c70b570cc51586d6b",
        "612c6f2da3533c11949ab02a3581faea24a94c4256d61c1ca755f4c40fcb953b",
        "26e4604bf14439d5f2b16902f48eec089725b98e66b2a1a5bda2ba333975699f"),
    ("7.5", "small_t"): (
        "2dadcfcaba3e7fb4d2c5ad26117007a5dc46eaeac1ec6bdb1a65c1263718c498",
        "fe8a8a5ab045e202b2cf112f70b7e82ebc0960b3d53f15f3d424a714793d00d4",
        "6c7c9c40b72e88ef8360a8ba4bf7f15bc1dc3524044cba5beab06585eb1aab7b"),
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
# from 4 to 8), as the level-4 start of the survival quadrature wrote it
LEVEL4_SURVIVAL = {
    "3": """
        0x1.9b27e9650bb74p-3 0x1.df7c75be216d4p-7 0x1.42120d00d4287p-14
        0x1.4e2d0bb606e3ap-15 0x1.5abc854198dbap-16 0x1.67c4da6bec66dp-17
        0x1.754a961dc4c91p-18 0x1.83526ef4e8282p-19 0x1.91e148e94bb2dp-20
        0x1.a0fc370175fc4p-21 0x1.b0a87d1748473p-22 0x1.c0eb91adcc90ep-23
        0x1.d1cb1fd8ac207p-24 0x1.e34d0935f8801p-25 0x1.f57767faf72e2p-26
        0x1.0428488a53785p-26 0x1.0def8b2e5e4c2p-27 0x1.1814e471ee106p-28
        0x1.229bdda8ed421p-29""".split(),
    "6": """
        0x1.a2d41e98f56c2p-2 0x1.e034e0fcad011p-4 0x1.3b57986e8183cp-7
        0x1.cd6b2419ad2a8p-8 0x1.5194bc7195799p-8 0x1.edf585bc3df66p-9
        0x1.69635f9248008p-9 0x1.0865b16b4438ap-9 0x1.82dfd25fb20c0p-10
        0x1.1b0b14dcfcb19p-10 0x1.9e28649954a71p-11 0x1.2f011a5a70bf6p-11
        0x1.bb5d893c07802p-12 0x1.445f7f6942907p-12 0x1.daa1fd19c13aap-13
        0x1.5b3fae29c232dp-13 0x1.fc1af02a1fdecp-14 0x1.73bcdb90e2854p-14
        0x1.0ff818e26a390p-14""".split(),
    "7.5": """
        0x1.0cb61296889a5p-1 0x1.c5c20812a46adp-3 0x1.4363c7839af4ep-5
        0x1.04aa0e331520fp-5 0x1.a435dafbc7681p-6 0x1.52b48ffe396b0p-6
        0x1.11025a8deeb8ep-6 0x1.b81c7e47c283ap-7 0x1.62bf081d6a29bp-7
        0x1.1df0526ba45d7p-7 0x1.ccf4690e34bf8p-8 0x1.738bfb24237a2p-8
        0x1.2b7b0c6622d30p-8 0x1.e2c9089519f8fp-9 0x1.85249ef3b145bp-9
        0x1.39a9f50798c16p-9 0x1.f9a654ac7ec71p-10 0x1.979299185a15ap-10
        0x1.4884d2dc62375p-10""".split(),
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
    # the run says so on its own warning line, with no numpy warning; the
    # pz files keep the bytes recorded before the overflow was silenced
    # (survival.csv: recorded again at the level-0 start of the survival
    # quadrature, 4 ulp from the level-4 values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["density", "--kappa", "1.1", "--t-list", "0.0024",
                     "--grid-n", "2", "--out-dir", str(tmp_path)]) == 0
    assert _digests(tmp_path) == (
        "ca7200053a41135007fa52faef1c11dcbda052a2ad608349ddbab1d9aa65e674",
        "33cc274485065b0f32bbd06cc5c2f539f0d489b3b5b12107b6699bda0b945456",
        "ee652f9ac1ad1ef1352b47315ac5c2d8cdddbecaeb21b41b9858e0da3ecafb7d")
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
        return mc.estimate_two_curve_hit(KappaContext(6.0), cfg, [0.2, 1.5],
                                         n_paths=100, dt=1e-3, seed=8,
                                         bmax=32768)

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
