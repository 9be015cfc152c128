"""Contract of the ``twocurve check`` command and its battery: exit codes,
the report file and its timings, the pinned residuals of the default
battery, fault injections that the battery must catch, and the batched
drift check against the per-state public function."""
import json

import numpy as np
import pytest

from twocurve import checks, ensemble, quadrature
from twocurve import density as dens
from twocurve.cli import main
from twocurve.context import KappaContext

import references as ref

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


def test_report_times_each_check(tmp_path):
    assert main(ARGV + ["--out-dir", str(tmp_path)]) == 0
    report = _report(tmp_path)
    seconds = report["seconds"]
    assert len(seconds["checks"]) == len(report["checks"])
    assert all(s >= 0.0 for s in seconds["checks"])
    assert seconds["total"] >= sum(seconds["checks"])
    # the timings stay out of the check entries
    assert all(set(c) == {"name", "kappa", "tolerance", "residual",
                          "passed"} for c in report["checks"])


# residuals of the default battery, in battery order
DEFAULT_BATTERY = [
    ("hyp_ode_residual", 2.0, "0x1.ce9d000000000p-32"),
    ("hyp_value_at_one", 2.0, "0x1.ffffffffffff8p-51"),
    ("basis_orthonormality", 2.0, "0x1.7800000000000p-48"),
    ("drift_residual", 2.0, "0x1.0000000000000p-43"),
    ("hyp_ode_residual", 3.0, "0x1.481a140000000p-32"),
    ("hyp_value_at_one", 3.0, "0x1.509d3275fc486p-51"),
    ("basis_orthonormality", 3.0, "0x1.d000000000000p-48"),
    ("drift_residual", 3.0, "0x1.8000000000000p-45"),
    ("hyp_ode_residual", 4.0, "0x0.0p+0"),
    ("hyp_value_at_one", 4.0, "0x0.0p+0"),
    ("basis_orthonormality", 4.0, "0x1.f000000000000p-48"),
    ("drift_residual", 4.0, "0x1.8000000000000p-46"),
    ("hyp_ode_residual", 6.0, "0x1.67d41c8000000p-28"),
    ("hyp_value_at_one", 6.0, "0x1.500bea7e88d43p-51"),
    ("basis_orthonormality", 6.0, "0x1.1800000000000p-47"),
    ("drift_residual", 6.0, "0x1.4000000000000p-46"),
    ("hyp_ode_residual", 7.5, "0x1.9caac5e000000p-26"),
    ("hyp_value_at_one", 7.5, "0x1.26e3929d032c4p-53"),
    ("basis_orthonormality", 7.5, "0x1.3000000000000p-47"),
    ("drift_residual", 7.5, "0x1.6100000000000p-44"),
    ("eigenfunction_residual", 6.0, "0x1.5e07500000000p-26"),
    ("chapman_kolmogorov", 6.0, "0x1.0370000000000p-41"),
    ("stationarity", 6.0, "0x1.4000000000000p-52"),
    ("quasi_invariance", 6.0, "0x1.8000000000000p-56"),
]


def test_default_battery_pinned_bits():
    results = checks.run_all_checks()
    assert [(r.name, r.kappa, r.residual.hex()) for r in results] \
        == DEFAULT_BATTERY
    assert all(r.passed for r in results)


@pytest.mark.parametrize("kappa", checks.DEFAULT_KAPPAS)
def test_drift_battery_equals_per_state_drift_residual(kappa):
    ctx = KappaContext(kappa)
    states = ensemble.sample_states(200, seed=20240 + int(10 * kappa))
    per_state = np.array([[[ensemble.drift_residual(ctx, st, j, mode)
                            for mode in ("c4", "ch")] for j in (1, 2)]
                          for st in ref.rows(states)])
    assert np.array_equal(ensemble.drift_residuals(ctx, states), per_state)
    result = checks.check_drift_residual(KappaContext(kappa))
    assert result.residual == np.max(np.abs(per_state))
    assert result.passed


@pytest.mark.parametrize("kappa", [0.3, 0.35])
def test_per_kappa_checks_pass_at_small_kappa(kappa):
    # a Taylor degree of 60 is too short here: kappa 0.3 would fail
    # hyp_ode_residual (9.0e-6) and hyp_value_at_one (5.8e-7), kappa 0.35
    # hyp_value_at_one (1.7e-10)
    ctx = KappaContext(kappa)
    results = [checks.check_hyp_ode(ctx), checks.check_hyp_value_at_one(ctx),
               checks.check_orthonormality(ctx),
               checks.check_drift_residual(ctx, n_states=20)]
    assert [r.name for r in results if not r.passed] == []


def test_injected_F_error_near_one_fails_value_at_one_only(monkeypatch):
    hyp_F = checks.hyp_F

    def off_near_one(ctx, x):
        bump = np.where(np.asarray(x) > 1.0 - 2.0 ** -30, 1.0 + 1e-9, 1.0)
        return hyp_F(ctx, x) * bump

    monkeypatch.setattr(checks, "hyp_F", off_near_one)
    results = checks.run_all_checks(kappas=(3.0, 6.0), n_drift_states=2)
    assert [(r.name, r.kappa) for r in results if not r.passed] \
        == [("hyp_value_at_one", 3.0), ("hyp_value_at_one", 6.0)]


def test_quasi_invariance_evaluates_each_node_pair_once(monkeypatch):
    # both (point, time) pairs and all their quadrature levels read G_u
    # from one node grid: each unordered node pair is evaluated once per
    # context, and a second run on the context evaluates none
    pairs = []
    G_u = dens.G_u

    def recorded(ctx, z):
        z1, z2 = (np.ravel(v).tolist() for v in z)
        pairs.extend(zip(map(min, z1, z2), map(max, z1, z2)))
        return G_u(ctx, z)

    monkeypatch.setattr(dens, "G_u", recorded)
    basis = dens.SpectralBasis(KappaContext(checks.SPECTRAL_KAPPA), 60)
    first = checks.check_quasi_invariance(basis)
    assert first.passed and pairs and len(set(pairs)) == len(pairs)
    evaluated = len(pairs)
    assert checks.check_quasi_invariance(basis) == first
    assert len(pairs) == evaluated


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
    # one generator_apply call covers every mode: a NaN at one (point,
    # mode) entry of it fails the check
    generator_apply = dens.generator_apply
    calls = []

    def nan_at_one_entry(ctx, f, x, y):
        out = generator_apply(ctx, f, x, y)
        calls.append(out.shape)
        out[4, 7] = np.nan
        return out

    ctx = KappaContext(6.0)
    assert checks.check_eigenfunctions(ctx).passed
    monkeypatch.setattr(dens, "generator_apply", nan_at_one_entry)
    result = checks.check_eigenfunctions(ctx)
    assert calls == [(10, dens.SpectralBasis(ctx, 10).n_modes)]
    assert np.isnan(result.residual) and not result.passed


def test_eigenfunctions_apply_the_generator_once_to_mode_values(monkeypatch):
    # the check stencils every mode in one call, on the densities'
    # evaluator, and evaluates no mode another way
    generator_apply, mode_values = dens.generator_apply, dens.mode_values
    calls = []

    def counted_apply(ctx, f, x, y):
        calls.append(("generator_apply", np.shape(x)))
        return generator_apply(ctx, f, x, y)

    def counted_values(basis, n_limit, x, y):
        calls.append(("mode_values", np.shape(x)))
        return mode_values(basis, n_limit, x, y)

    monkeypatch.setattr(dens, "generator_apply", counted_apply)
    monkeypatch.setattr(dens, "mode_values", counted_values)
    assert checks.check_eigenfunctions(KappaContext(6.0)).passed
    assert calls == [("generator_apply", (10, 1)),
                     ("mode_values", (26, 10, 1)),
                     ("mode_values", (10, 1))]


def _failing(results):
    return [r.name for r in results if not r.passed]


def test_wrong_eigenvalue_fails_eigenfunction_residual_only(monkeypatch):
    # lambda_n off by a relative 1e-4 is about 1e-3 * |v| at level 10
    eigenvalue = dens.eigenvalue
    monkeypatch.setattr(dens, "eigenvalue",
                        lambda ctx, n: eigenvalue(ctx, n) * (1.0 + 1e-4))
    results = checks.run_all_checks(kappas=(6.0,), n_drift_states=2)
    assert _failing(results) == ["eigenfunction_residual"]


def test_perturbed_mode_row_fails_eigenfunction_residual_only(monkeypatch):
    # one mode of the check's level-10 basis times 1 + 1e-4 (1 + x^2), no
    # eigenfunction any more; the other checks' bases are not touched
    mode_values = dens.mode_values

    def one_row_off(basis, n_limit, x, y):
        out = mode_values(basis, n_limit, x, y)
        if basis.n_max == 10:
            row = ref.mode_index(basis, 7, 2, 2)
            out[row] *= 1.0 + 1e-4 * (1.0 + np.ravel(x) ** 2)
        return out

    monkeypatch.setattr(dens, "mode_values", one_row_off)
    results = checks.run_all_checks(kappas=(6.0,), n_drift_states=2)
    assert _failing(results) == ["eigenfunction_residual"]


@pytest.mark.parametrize("name", sorted(CHECK_NAMES))
def test_each_tolerance_override_reaches_its_check(name, monkeypatch):
    # each check is judged against its entry of the one pinned table
    assert set(checks.TOLERANCES) == CHECK_NAMES
    monkeypatch.setitem(checks.TOLERANCES, name, 0.0)
    results = checks.run_all_checks(kappas=(6.0,), n_drift_states=2)
    assert sorted(r.name for r in results) == sorted(CHECK_NAMES)
    assert [r.name for r in results if not r.passed] == [name]
    for r in results:
        expect = 0.0 if r.name == name else checks.TOLERANCES[r.name]
        assert r.tolerance == expect


def test_shared_disc_rule_reports_what_fresh_rules_report(tmp_path,
                                                          monkeypatch):
    # chapman_kolmogorov and stationarity read one cached disc_rule(ctx,
    # 30, 64); a run that builds every rule afresh reports the same checks
    argv = ["check", "--kappas", "6", "--n-drift-states", "2"]
    assert main(argv + ["--out-dir", str(tmp_path / "shared")]) == 0
    built = []

    def fresh_rule(ctx, n_r, n_theta):
        built.append((n_r, n_theta))
        return quadrature.disc_rule(KappaContext(ctx.kappa), n_r, n_theta)

    monkeypatch.setattr(checks, "disc_rule", fresh_rule)
    assert main(argv + ["--out-dir", str(tmp_path / "fresh")]) == 0
    assert built == [(26, 52), (30, 64), (30, 64)]
    assert _report(tmp_path / "shared")["checks"] \
        == _report(tmp_path / "fresh")["checks"]
