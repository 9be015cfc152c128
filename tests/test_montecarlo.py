"""Tests for the Monte Carlo estimators.

Oracles used here:

* the four-angle drift is checked against an independent finite-difference
  Girsanov computation: kappa times the partial derivative of the ensemble
  module's log-martingale at a fresh (zero-capacity) state;
* weighted survival estimates are compared with the spectral expansion;
* the power-law fitter is exercised on synthetic data with known slope;
* the backward-flow probe recovers the closed-form radial slit tip.
"""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from twocurve import _kernels, ensemble, montecarlo as mc, special
from twocurve.context import KappaContext
from twocurve.density import SpectralBasis, survival_P2
from twocurve.green import BoundaryConfig, G_quad
from twocurve.timecurve import ZState

import loewner

TWO_PI = 2.0 * math.pi
CTX6 = KappaContext(6.0)
S8 = math.pi / 4.0
SYM_CFG = BoundaryConfig(w1=3 * S8, v1=S8, w2=-S8, v2=-3 * S8)
ASYM_CFG = BoundaryConfig(w1=2.2, v1=0.9, w2=-0.4, v2=-1.9)


def random_quads(n, seed, min_gap=0.15):
    """Descending marked quadruples (w1 > v1 > w2 > v2) with safe gaps."""
    rng = np.random.default_rng(seed)
    quads = []
    while len(quads) < n:
        cuts = rng.uniform(min_gap, 1.0, size=4)
        gaps = cuts / cuts.sum() * TWO_PI
        if gaps.min() < min_gap:
            continue
        w1 = rng.uniform(-math.pi, math.pi)
        v1 = w1 - gaps[0]
        w2 = v1 - gaps[1]
        v2 = w2 - gaps[2]
        quads.append((w1, v1, w2, v2))
    return quads


class TestHsleDrift:
    def test_matches_displayed_formula(self):
        # independent recomputation: (kappa-6)/2 cot2(w0-winf)
        #   + (1/2)(cot2(w0-v1) - cot2(w0-v2)) * Gtilde(R)
        from twocurve.special import hyp_tilde_G
        from twocurve.trig import cot2, sin2
        for kappa in (3.0, 6.0, 7.5):
            ctx = KappaContext(kappa)
            for w1, v1, w2, v2 in random_quads(6, seed=int(10 * kappa)):
                # ascending curve-1 tuple: w0 < v1s < v2s < winf
                w0, v1s, v2s, winf = w1, v2 + TWO_PI, w2 + TWO_PI, v1 + TWO_PI
                R = 1.0 - (sin2(w0 - winf) * sin2(v1s - v2s)
                           / (sin2(w0 - v2s) * sin2(v1s - winf)))
                assert 0.0 < R < 1.0
                expect = (0.5 * (kappa - 6.0) * cot2(w0 - winf)
                          + 0.5 * (cot2(w0 - v1s) - cot2(w0 - v2s))
                          * hyp_tilde_G(ctx, R))
                got = mc.hsle_drift(ctx, w0, winf, v1s, v2s)
                assert_allclose(got, expect, rtol=1e-12, atol=1e-12)

    def test_orientation_antisymmetry(self):
        # mirror the circle (negate all angles): drift flips sign
        for w1, v1, w2, v2 in random_quads(8, seed=3):
            w0, v1s, v2s, winf = w1, v2 + TWO_PI, w2 + TWO_PI, v1 + TWO_PI
            d_up = mc.hsle_drift(CTX6, w0, winf, v1s, v2s)
            d_dn = mc.hsle_drift(CTX6, -w0, -winf, -v1s, -v2s)
            assert_allclose(d_dn, -d_up, rtol=1e-12, atol=1e-12)

    def test_pi_separation_kills_endpoint_term(self):
        # when the target sits diametrically opposite the driver the
        # (kappa-6)/2 cot2 term vanishes and the drift reduces to the
        # flank term alone -- for every kappa
        from twocurve.special import hyp_tilde_G
        from twocurve.trig import cot2, sin2
        w0, winf = 2.0, 2.0 - math.pi
        v1s, v2s = 1.2, 0.2
        for kappa in (2.5, 4.0, 6.0, 7.9):
            ctx = KappaContext(kappa)
            R = 1.0 - (sin2(w0 - winf) * sin2(v1s - v2s)
                       / (sin2(w0 - v2s) * sin2(v1s - winf)))
            flank = (0.5 * (cot2(w0 - v1s) - cot2(w0 - v2s))
                     * hyp_tilde_G(ctx, R))
            got = mc.hsle_drift(ctx, w0, winf, v1s, v2s)
            assert_allclose(got, flank, rtol=1e-10, atol=1e-12)

    def test_girsanov_finite_difference(self):
        # kappa * d/dW_j log M at a fresh state equals the drift (the
        # tilt of the driving Brownian motion under the two-curve law)
        h = 1e-5
        for kappa in (2.0, 3.5, 6.0, 7.5):
            ctx = KappaContext(kappa)
            for w1, v1, w2, v2 in random_quads(6, seed=int(7 * kappa)):
                st = ensemble.fresh_state(w1, v1, w2, v2)
                for j, field in ((1, "W1"), (2, "W2")):
                    base = getattr(st, field)
                    lp = ensemble.log_M_iB_ch(
                        ctx, dataclasses.replace(st, **{field: base + h}))
                    lm = ensemble.log_M_iB_ch(
                        ctx, dataclasses.replace(st, **{field: base - h}))
                    fd = kappa * (lp - lm) / (2.0 * h)
                    if j == 1:
                        drift = mc.hsle_drift(ctx, w1, v1 + TWO_PI,
                                              v2 + TWO_PI, w2 + TWO_PI)
                    else:
                        drift = mc.hsle_drift(ctx, w2, v2 + TWO_PI, v1, w1)
                    assert abs(fd - drift) < 1e-8

    def test_rejects_broken_cyclic_order(self):
        # v1 and v2 on the same side of the driver (not bracketing winf)
        with pytest.raises(ValueError):
            mc.hsle_drift(CTX6, 0.0, 3.0, 1.0, -1.0)
        # coincident points
        with pytest.raises(ValueError):
            mc.hsle_drift(CTX6, 0.0, 2.0, 1.0, 1.0)
        # span beyond a full turn
        with pytest.raises(ValueError):
            mc.hsle_drift(CTX6, 0.0, 7.0, 1.0, 2.0)


# the sampler's and the adaptive kernel's constants, none of which an
# estimator takes as an argument
SAMPLER_CONSTANTS = ("eps_kill", "eps_ret", "kres", "bmax", "stride", "cap_b",
                  "swallow_margin", "eps_in", "probe_rel_err", "chunk_paths")


@pytest.fixture
def fast_sampler(monkeypatch):
    """The sampler at a substep budget of 32768 units per macro step
    instead of 262144, which keeps these runs short."""
    monkeypatch.setitem(mc._SAMPLER, "bmax", 32768)


class TestTwoCurveHit:
    def test_reproducible_and_chunk_invariant(self, monkeypatch,
                                              fast_sampler):
        kw = dict(n_paths=1200, dt=1e-3, seed=11)
        a = mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.2], **kw)
        b = mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.2], **kw)
        monkeypatch.setitem(mc._SAMPLER, "chunk_paths", 500)
        c = mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.2], **kw)
        assert a[0] == b[0]
        assert a[0].estimate == c[0].estimate
        assert a[0].stderr == c[0].stderr
        assert a[0].config["certified"] == c[0].config["certified"]

    def test_path_range_merge(self, fast_sampler):
        # disjoint path ranges reproduce the exact per-path outcomes of
        # the full run (counter-based streams), so counts add
        kw = dict(dt=1e-3, seed=4)
        full = mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.2],
                                         n_paths=1200, **kw)[0]
        lo = mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.2],
                                       n_paths=600, **kw)[0]
        hi = mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.2],
                                       n_paths=600, path_start=600, **kw)[0]
        hits = lambda rec: round(rec.estimate * rec.n_paths)
        assert hits(lo) + hits(hi) == hits(full)
        assert (lo.config["certified"] + hi.config["certified"]
                == full.config["certified"])

    def test_record_contract(self, fast_sampler):
        recs = mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.2, 0.1, 1.5],
                                         n_paths=800, dt=1e-3, seed=2)
        assert [r.r_or_t for r in recs] == [0.1, 0.2, 1.5]
        for rec in recs:
            assert rec.kappa == 6.0
            assert rec.method == "two_curve_hit"
            assert rec.stderr > 0.0
            assert 0.0 <= rec.estimate <= 1.0
            assert rec.ess == rec.n_paths == 800
            assert rec.accepted
        assert recs[2].estimate == 1.0
        assert "trivial_radius" in recs[2].flags
        # certificate bookkeeping is present and consistent
        for rec in recs[:2]:
            cfgd = rec.config
            total = (cfgd["hit_swallow"] + cfgd["hit_alive"]
                     + cfgd["hit_probe"])
            assert total == round(rec.estimate * rec.n_paths)
            assert cfgd["certified"] <= rec.n_paths
            # first-stage horizon is log(1/r) rounded to the snapshot
            # stride (10 steps)
            assert abs(cfgd["stop_capacity"] - math.log(1.0 / rec.r_or_t)) \
                <= 5.0 * rec.dt + 1e-12
        # deeper radius hits less often (3-sigma slack)
        p_small, p_big = recs[0], recs[1]
        slack = 3.0 * math.hypot(p_small.stderr, p_big.stderr)
        assert p_small.estimate <= p_big.estimate + slack

    def test_excluded_counts_only_unresolved_paths(self):
        # kappa 6, seed 1, paths 800-899: at r = 0.2 one first curve stops
        # with status 2 or 4 only after the radius's snapshot (certified,
        # so its second curve ran) and one second curve stops so after a
        # probe already decided it as a hit; neither is excluded there
        # (counting every status-2/4 row gave 1, 1, 2)
        recs = mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.05, 0.1, 0.2],
                                         n_paths=100, dt=1e-3, seed=1,
                                         path_start=800)
        assert [rec.config["excluded"] for rec in recs] == [1, 1, 0]
        assert ["collision_excluded" in rec.flags for rec in recs] == [
            True, True, False]

    def test_one_probe_pass_per_radius(self, monkeypatch):
        # a coarse and a refined round of backward-flow calls per radius
        calls = []
        flow = _kernels.backward_flow
        monkeypatch.setattr(_kernels, "backward_flow",
                            lambda *args: calls.append(flow(*args)))
        mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.05, 0.1, 0.2],
                                  n_paths=100, dt=1e-3, seed=1)
        assert len(calls) == 2 * 3

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.3], n_paths=10,
                                      dt=1e-3, seed=0)
        with pytest.raises(ValueError):
            mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.25], n_paths=10,
                                      dt=1e-3, seed=0)
        with pytest.raises(ValueError):
            mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.1], n_paths=10,
                                      dt=1e-2, seed=0)
        with pytest.raises(ValueError):
            mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.1], n_paths=0,
                                      dt=1e-3, seed=0)
        with pytest.raises(TypeError):
            mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.1], n_paths=10,
                                      dt=1e-3, seed=0, not_a_param=1)
        # the sampler's and the kernel's constants are not options
        for name in SAMPLER_CONSTANTS:
            for estimate, args in (
                    (mc.estimate_two_curve_hit, (SYM_CFG, [0.1], 10)),
                    (mc.estimate_intersection_hit, (SYM_CFG, [0.1], 10)),
                    (mc.estimate_C0, ([SYM_CFG], [0.1], 10))):
                with pytest.raises(TypeError, match=name):
                    estimate(CTX6, *args, dt=1e-3, seed=0, **{name: 1})

    def test_drift_table_built_once_per_kappa(self, monkeypatch,
                                              fast_sampler):
        # two runs on fresh contexts at a kappa no other test uses: the
        # table's one G-tilde evaluation happens in the first
        built = []
        tilde_g = special.hyp_tilde_G

        def counted(ctx, x):
            built.append(ctx.kappa)
            return tilde_g(ctx, x)

        monkeypatch.setattr(special, "hyp_tilde_G", counted)
        for seed in (0, 1):
            mc.estimate_two_curve_hit(KappaContext(5.25), SYM_CFG, [0.2],
                                      n_paths=20, dt=1e-3, seed=seed)
        assert built == [5.25]
        u_max, vals, du = special.gtilde_table(5.25)
        assert special.gtilde_table(5.25)[1] is vals
        assert not vals.flags.writeable
        assert du == u_max / (vals.size - 1)

    def test_tiny_run_flags(self, fast_sampler):
        recs = mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.01], n_paths=3,
                                         dt=1e-3, seed=0)
        rec = recs[0]
        assert not rec.accepted
        # with three paths at r=0.01 nothing gets certified deep enough:
        # degenerate counts produce the 3/n bound
        if round(rec.estimate * 3) in (0, 3):
            assert "degenerate_counts" in rec.flags
            assert rec.stderr >= 1.0


class TestSurvivalWeighted:
    def test_time_zero_is_exact(self):
        recs = mc.estimate_survival_weighted(CTX6, (0.3, 0.9), [0.0],
                                             n_paths=50, dt=1e-3, seed=0)
        assert recs[0].estimate == 1.0
        assert recs[0].stderr < 1e-14

    def test_matches_spectral_oracle(self):
        basis = SpectralBasis(CTX6, 12)
        z0 = ZState(0.3, 0.9)
        recs = mc.estimate_survival_weighted(CTX6, z0, [1.0, 2.0],
                                             n_paths=20000, dt=1e-3, seed=9)
        for rec in recs:
            exact = survival_P2(CTX6, basis, z0, rec.r_or_t)
            assert rec.method == "survival_weighted"
            assert abs(rec.estimate - exact) < 3.0 * rec.stderr
            assert rec.ess > 100.0 and rec.accepted

    def test_low_ess_flag(self):
        recs = mc.estimate_survival_weighted(CTX6, (0.3, 0.9), [1.0],
                                             n_paths=40, dt=1e-3, seed=1)
        assert not recs[0].accepted
        assert "low_ess" in recs[0].flags

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mc.estimate_survival_weighted(CTX6, (0.3, 0.9), [],
                                          n_paths=10, dt=1e-3, seed=0)
        with pytest.raises(ValueError):
            mc.estimate_survival_weighted(CTX6, (0.3, 0.9), [-1.0],
                                          n_paths=10, dt=1e-3, seed=0)


class TestFitPowerLaw:
    def test_exact_power_law(self):
        rs = np.array([0.05, 0.1, 0.2])
        pts = [(r, 3.0 * r ** 2.0, 0.0) for r in rs]
        expo, c0, cov = mc.fit_power_law(pts)
        assert_allclose(expo, 2.0, atol=1e-12)
        assert_allclose(c0, 3.0, rtol=1e-12)
        assert np.all(np.abs(cov) < 1e-20)

    def test_weighted_coverage(self):
        # synthetic noisy data with slope alpha0: the reported slope
        # sigma must give ~95% coverage at 2 sigma
        rng = np.random.default_rng(42)
        alpha, c0 = 1.25, 1.7
        rs = np.array([0.05, 0.1, 0.2])
        truth = c0 * rs ** alpha
        n = 100000
        sig = np.sqrt(truth * (1.0 - truth) / n)
        cover = 0
        trials = 400
        for _ in range(trials):
            ps = truth + sig * rng.standard_normal(3)
            expo, _, cov = mc.fit_power_law(list(zip(rs, ps, sig)))
            if abs(expo - alpha) < 2.0 * math.sqrt(cov[0, 0]):
                cover += 1
        assert cover / trials > 0.90

    def test_unweighted_fallback(self):
        # zero stderr entries select the unweighted fit with
        # residual-scaled covariance
        pts = [(0.05, 0.02, 0.0), (0.1, 0.048, 0.0), (0.2, 0.11, 0.0)]
        expo, c0, cov = mc.fit_power_law(pts)
        assert 1.0 < expo < 1.5
        assert cov[0, 0] >= 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            mc.fit_power_law([(0.1, 0.5, 0.01)])
        with pytest.raises(ValueError):
            mc.fit_power_law([(0.1, 0.5, 0.01), (0.1, 0.4, 0.01)])
        with pytest.raises(ValueError):
            mc.fit_power_law([(0.1, 0.5, 0.01), (0.2, -0.1, 0.01)])


class TestIntersectionHit:
    def test_subset_of_two_curve(self, fast_sampler):
        kw = dict(n_paths=900, dt=1e-3, seed=21)
        both = mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.2, 0.1], **kw)
        inter = mc.estimate_intersection_hit(CTX6, SYM_CFG, [0.2, 0.1], **kw)
        for b, i in zip(both, inter):
            assert i.method == "intersection_hit"
            assert i.r_or_t == b.r_or_t
            # same seed, same paths: structural inclusion
            assert i.estimate <= b.estimate + 1e-15
            assert "surrogate_meet_rule" in i.flags
            assert i.config["two_curve_hits"] == round(b.estimate
                                                       * b.n_paths)

    def test_requires_intersecting_regime(self):
        ctx3 = KappaContext(3.0)
        with pytest.raises(ValueError):
            mc.estimate_intersection_hit(ctx3, SYM_CFG, [0.1], n_paths=10,
                                         dt=1e-3, seed=0)


class TestC0Estimate:
    def test_two_config_record(self, fast_sampler):
        cfgs = [SYM_CFG, ASYM_CFG]
        rec = mc.estimate_C0(CTX6, cfgs, [0.2, 0.12], n_paths=1500,
                             dt=1e-3, seed=5)
        assert rec.method == "C0"
        assert math.isnan(rec.r_or_t)
        assert rec.estimate > 0.0
        assert rec.stderr > 0.0
        assert rec.ess == 3000.0
        cells = rec.config["cells"]
        assert len(cells) == 4
        for cell in cells:
            # each cell rescales a hit frequency by G * r^alpha0
            assert cell["C0"] > 0.0


class TestBackwardFlow:
    def test_constant_driver_reproduces_slit_tip(self):
        # pulling the near-tip boundary point back through a constant
        # driver recovers the radial slit tip modulus
        du, n = 1e-3, 1000
        drivers = np.zeros((1, n))
        lengths = np.array([n], dtype=np.int64)
        y = np.array([(1.0 - 1e-6) * np.exp(1j * 0.0)])
        _kernels.backward_flow(drivers, lengths, du, y)
        assert_allclose(abs(y[0]), loewner.slit_tip_modulus(n * du),
                        rtol=2e-3)

    def test_origin_is_fixed(self):
        drivers = np.full((1, 50), 0.3)
        lengths = np.array([50], dtype=np.int64)
        y = np.array([0.0 + 0.0j])
        _kernels.backward_flow(drivers, lengths, 1e-3, y)
        assert y[0] == 0.0


class TestCrossEstimatorConsistency:
    def test_two_curve_slope_versus_spectral_alpha(self, fast_sampler):
        # the hit-probability log-log slope and the spectral decay rate
        # are two routes to the same exponent; at modest sample size
        # they must agree within combined uncertainty
        recs = mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.2, 0.1],
                                         n_paths=1500, dt=1e-3, seed=13)
        pts = [(r.r_or_t, r.estimate, r.stderr) for r in recs]
        expo, _, cov = mc.fit_power_law(pts)
        sig = math.sqrt(cov[0, 0])
        assert abs(expo - CTX6.alpha0) < 3.0 * sig + 0.05
