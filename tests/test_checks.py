"""Contract of the ``twocurve check`` command and its battery: exit codes,
the report file, fault injections that the battery must catch, and the
batched drift check against the per-state public function."""
import json

import numpy as np
import pytest

from twocurve import checks, ensemble
from twocurve import density as dens
from twocurve.cli import main
from twocurve.context import KappaContext

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


@pytest.mark.parametrize("kappa", [3.0, 6.0, 7.5])
def test_drift_battery_equals_per_state_drift_residual(kappa):
    ctx = KappaContext(kappa)
    states = ensemble.sample_states(20, seed=20240 + int(10 * kappa))
    per_state = np.array([[[ensemble.drift_residual(ctx, st, j, mode)
                            for mode in ("c4", "ch")] for j in (1, 2)]
                          for st in states])
    assert np.array_equal(ensemble.drift_residuals(ctx, states), per_state)
    result = checks.check_drift_residual(KappaContext(kappa), n_states=20)
    assert result.residual == np.max(np.abs(per_state))
    assert result.passed


def test_nan_drift_residual_fails_the_check(monkeypatch):
    drift_residuals = ensemble.drift_residuals

    def one_nan(ctx, states):
        out = drift_residuals(ctx, states)
        out[2, 1, 1] = np.nan
        return out

    ctx = KappaContext(6.0)
    assert checks.check_drift_residual(ctx, n_states=5).passed
    monkeypatch.setattr(ensemble, "drift_residuals", one_nan)
    result = checks.check_drift_residual(ctx, n_states=5)
    assert np.isnan(result.residual) and not result.passed


def test_nan_eigenfunction_residual_fails_the_check(monkeypatch):
    generator_apply = dens.generator_apply
    calls = []

    def nan_on_third_mode(ctx, f, x, y, *args, **kwargs):
        out = generator_apply(ctx, f, x, y, *args, **kwargs)
        calls.append(None)
        if len(calls) == 3:
            out = np.where(np.arange(out.size) == 4, np.nan, out)
        return out

    ctx = KappaContext(6.0)
    assert checks.check_eigenfunctions(ctx, n_limit=3).passed
    monkeypatch.setattr(dens, "generator_apply", nan_on_third_mode)
    result = checks.check_eigenfunctions(ctx, n_limit=3)
    assert np.isnan(result.residual) and not result.passed
