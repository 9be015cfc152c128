"""Contract of the ``twocurve check`` command: exit codes, the report file,
and a fault injection that the battery must catch."""
import json

from twocurve.cli import main

ARGV = ["check", "--kappas", "6", "--n-drift-states", "20"]
CHECK_NAMES = {"hyp_ode_residual", "hyp_value_at_one", "basis_orthonormality",
               "drift_residual", "eigenfunction_residual",
               "chapman_kolmogorov", "stationarity", "quasi_invariance"}


def _report(out_dir):
    with open(out_dir / "check_report.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_battery_passes(tmp_path):
    assert main(ARGV + ["--out-dir", str(tmp_path)]) == 0
    report = _report(tmp_path)
    assert report["all_passed"] is True
    assert {c["name"] for c in report["checks"]} == CHECK_NAMES
    assert all(c["kappa"] == 6.0 and c["passed"] for c in report["checks"])


def test_injected_alpha0_error_fails_quasi_invariance_only(tmp_path):
    rc = main(ARGV + ["--inject-alpha0-error", "0.01",
                      "--out-dir", str(tmp_path)])
    assert rc == 1
    report = _report(tmp_path)
    assert report["all_passed"] is False
    assert [c["name"] for c in report["checks"] if not c["passed"]] \
        == ["quasi_invariance"]
