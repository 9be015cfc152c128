"""Contract of the ``twocurve`` command line: deterministic ``density``
output and exit code 2 for configurations rejected before any work."""
import json

import pytest

from twocurve.cli import main

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
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kappa": 6.0, "n_path": 10}))
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(config),
                 "--out-dir", str(out_dir)]) == 2
    assert "unknown config keys: ['n_path']" in capsys.readouterr().err
    assert not out_dir.exists()
