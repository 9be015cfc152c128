"""Contract of the ``twocurve`` command line: deterministic ``density``
output, exit code 2 for configurations rejected before any work, config
precedence, run provenance, ``report`` and the estimate CSV format."""
import csv
import io
import json
import math

import pytest

from twocurve import _kernels, cli, montecarlo as mc
from twocurve.cli import main
from twocurve.context import KappaContext
from twocurve.green import BoundaryConfig

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


@pytest.mark.parametrize("argv", [
    ["density", "--kappa", "8"],
    ["simulate", "--method", "curves", "--r-list", "0.25"],
    ["simulate", "--method", "intersection", "--kappa", "4"],
], ids=["kappa_8", "r_quarter", "intersection_kappa_4"])
def test_rejected_configuration_exits_2(argv, tmp_path, capsys):
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
    meta = _simulate_meta(tmp_path, "curves")
    assert meta["hsle_kernel"] == _kernels.hsle_kernel()
    assert "hsle_kernel" not in _simulate_meta(tmp_path, "z-weighted",
                                               "--t-list", "0.5")


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
