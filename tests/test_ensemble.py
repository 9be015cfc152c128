"""Tests for the two-curve ensemble state and its martingale algebra.

The central property: both change-of-measure densities are local
martingales under the independent-Brownian driving law, i.e. the Ito
drift of each log-density, assembled from first principles out of the
component SDE rows, cancels against (kappa/2) times the squared
displayed noise coefficient.  A finite-difference Ito oracle
re-derives the same cancellation without using any assembled SDE.
"""
import hashlib
import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from twocurve import ensemble as ens
from twocurve import green
from twocurve.context import KappaContext
from twocurve.special import hyp_tilde_G
from twocurve.trig import cot2, cot2p, cot2ppp, sin2

import references as ref

TWO_PI = 2.0 * math.pi

CTX3 = KappaContext(3.0)
CTX6 = KappaContext(6.0)
KAPPAS = (2.0, 3.0, 4.0, 6.0, 7.5)

SYM = (math.pi, math.pi / 2, 0.0, -math.pi / 2)


def min_gap(st: ens.EnsembleState) -> float:
    return min(st.W1 - st.V1, st.V1 - st.W2, st.W2 - st.V2,
               st.V2 - (st.W1 - TWO_PI))


def evolve_second_order(state: ens.EnsembleState, j: int, dt: float,
                        dw: float) -> ens.EnsembleState:
    """One-step state update, second order in dw and first order in dt.

    Used by finite-difference Ito cross-checks: averaging a functional of
    the two states evolved with dw = +/- sqrt(kappa dt) reproduces its
    Ito drift to O(dt), and the difference quotient its noise
    coefficient.  Only the fields the density formulas read are updated
    to the required order (tip angle and tip first derivative carry the
    dw^2/2 terms; all passive fields evolve deterministically).
    """
    rhs = ens.ode_rhs(state, j)
    k = 3 - j
    wj1 = state.tip_deriv(j, 1)
    wj2 = state.tip_deriv(j, 2)
    wj3 = state.tip_deriv(j, 3)
    upd = {
        f"W{j}": (state.angle(f"W{j}") + wj1 * dw + 0.5 * wj2 * dw * dw
                  + rhs["W_tip_flow"] * dt),
        f"W{k}": state.angle(f"W{k}") + rhs["W_passive"] * dt,
        "V1": state.V1 + rhs["V1"] * dt,
        "V2": state.V2 + rhs["V2"] * dt,
        f"W{j}1": wj1 + wj2 * dw + 0.5 * wj3 * dw * dw
                  + wj1 * rhs["ln_W11_tip_flow"] * dt,
        f"W{k}1": state.tip_deriv(k, 1) * (1.0 + rhs["ln_W1_passive"] * dt),
        "V11": state.V11 * (1.0 + rhs["ln_V11"] * dt),
        "V21": state.V21 * (1.0 + rhs["ln_V21"] * dt),
        "mA": state.mA + rhs["mA"] * dt,
        "Icc": state.Icc + rhs["Icc"] * dt,
        f"t{j}": getattr(state, f"t{j}") + dt,
    }
    return replace(state, **upd)


class TestEnsembleState:
    def test_fresh_state_fields(self):
        st = ref.fresh_state(*SYM)
        assert st.W11 == st.W21 == st.V11 == st.V21 == 1.0
        assert st.W12 == st.W22 == st.W13 == st.W23 == 0.0
        assert st.mA == st.Icc == st.t1 == st.t2 == 0.0

    def test_ordering_violation_rejected(self):
        with pytest.raises(ValueError, match="ordering"):
            ref.fresh_state(0.0, math.pi / 2, math.pi, -math.pi / 2)
        with pytest.raises(ValueError, match="ordering"):
            # V2 below W1 - 2*pi wraps past the tip
            ref.fresh_state(math.pi, math.pi / 2, 0.0, math.pi - TWO_PI - 0.1)

    def test_first_deriv_domains(self):
        with pytest.raises(ValueError, match="W11"):
            replace(ref.fresh_state(*SYM), W11=1.2)
        with pytest.raises(ValueError, match="W21"):
            replace(ref.fresh_state(*SYM), W21=0.0)
        with pytest.raises(ValueError, match="V11"):
            replace(ref.fresh_state(*SYM), V11=-0.5)

    def test_time_and_capacity_domains(self):
        st = ref.fresh_state(*SYM)
        with pytest.raises(ValueError, match="nonnegative"):
            replace(st, t1=-0.1)
        with pytest.raises(ValueError, match="mA"):
            replace(st, t1=1.0, t2=1.0, mA=0.5)   # below max(t1, t2)
        with pytest.raises(ValueError, match="mA"):
            replace(st, t1=1.0, t2=1.0, mA=2.5)   # above t1 + t2
        ok = replace(st, t1=1.0, t2=1.0, mA=1.5)  # interior is fine
        assert ok.mA == 1.5

    @pytest.mark.parametrize("field, value, match", [
        ("V1", 10.0, "ordering"), ("W11", 1.2, "W11"), ("W21", 0.0, "W21"),
        ("V11", -0.5, "V11"), ("V21", 0.0, "V21"),
        ("t1", -0.1, "nonnegative"), ("t2", -0.1, "nonnegative"),
        ("mA", 0.1, "mA"), ("mA", 4.5, "mA")])
    def test_batch_with_one_invalid_state_rejected(self, field, value,
                                                   match):
        # each invariant holds at every state of a batch: one bad entry
        # among valid ones is named by its index
        batch = ens.sample_states(8, seed=5)
        column = getattr(batch, field).copy()
        column[3] = value
        with pytest.raises(ValueError, match=f"{match}.* at state 3"):
            replace(batch, **{field: column})

    def test_fields_of_two_shapes_rejected(self):
        batch = ens.sample_states(4, seed=5)
        with pytest.raises(ValueError, match="shape"):
            replace(batch, Icc=0.0)
        with pytest.raises(ValueError, match="shape"):
            replace(batch, t2=batch.t2[:3])

    def test_label_checks(self):
        st = ref.fresh_state(*SYM)
        with pytest.raises(ValueError):
            st.angle("W3")
        with pytest.raises(ValueError):
            st.tip_deriv(3, 1)
        with pytest.raises(ValueError):
            st.tip_deriv(1, 4)

    def test_schwarzian_combination(self):
        st = replace(ref.fresh_state(*SYM), W11=0.5, W12=0.3, W13=-0.4)
        expect = -0.4 / 0.5 - 1.5 * (0.3 / 0.5) ** 2
        assert st.w_S(1) == pytest.approx(expect, rel=1e-15)
        assert st.w_S(2) == 0.0  # fresh tip: derivatives (1, 0, 0)


class TestOdeRhs:
    def test_invalid_index(self):
        with pytest.raises(ValueError):
            ens.ode_rhs(ref.fresh_state(*SYM), 3)

    def test_symmetric_fresh_values(self):
        # W11 = 1 so capacity grows at unit rate; the passive tip sits
        # diametrically opposite so its angular velocity cot2(pi) = 0.
        rhs = ens.ode_rhs(ref.fresh_state(*SYM), 1)
        assert rhs["mA"] == pytest.approx(1.0, abs=1e-15)
        assert rhs["W_passive"] == pytest.approx(0.0, abs=1e-15)
        assert rhs["t"] == 1.0

    def test_fresh_tip_terms_vanish(self):
        rhs = ens.ode_rhs(ref.fresh_state(*SYM), 1)
        assert rhs["W_tip_flow"] == 0.0
        assert rhs["ln_W11_tip_flow"] == 0.0  # (W11^2 - 1)/6 = 0 too
        assert rhs["Icc"] == 0.0

    def test_passive_log_derivative_always_negative(self):
        # cot2' < 0 everywhere, so every passive first derivative decays.
        for st in ref.rows(ens.sample_states(50, seed=7)):
            for j in (1, 2):
                rhs = ens.ode_rhs(st, j)
                assert rhs["ln_W1_passive"] < 0.0
                assert rhs["ln_V11"] < 0.0
                assert rhs["ln_V21"] < 0.0

    def test_component_formulas(self):
        st = ref.rows(ens.sample_states(3, seed=13))[2]
        for j in (1, 2):
            k = 3 - j
            wj = st.angle(f"W{j}")
            sq = st.tip_deriv(j, 1) ** 2
            rhs = ens.ode_rhs(st, j)
            assert rhs["mA"] == pytest.approx(sq, rel=1e-15)
            assert rhs["W_passive"] == pytest.approx(
                sq * cot2(st.angle(f"W{k}") - wj), rel=1e-13)
            assert rhs["V1"] == pytest.approx(sq * cot2(st.V1 - wj), rel=1e-13)
            assert rhs["ln_V21"] == pytest.approx(
                sq * cot2p(st.V2 - wj), rel=1e-13)
            assert rhs["WS_passive"] == pytest.approx(
                sq * st.tip_deriv(k, 1) ** 2 * cot2ppp(st.angle(f"W{k}") - wj),
                rel=1e-13)
            assert rhs["Icc"] == pytest.approx(st.w_S(j), rel=1e-13)
            assert rhs["W_tip_flow"] == pytest.approx(
                -3.0 * st.tip_deriv(j, 2), rel=1e-15)


class TestCrossRatioAndPhi:
    def test_symmetric_value(self):
        cfg = ref.state_config(ref.fresh_state(*SYM))
        assert green.cross_ratio_of_config(cfg) == pytest.approx(0.5,
                                                                 abs=1e-15)

    def test_range(self):
        for st in ref.rows(ens.sample_states(100, seed=3)):
            R = green.cross_ratio_of_config(ref.state_config(st))
            assert 0.0 < R < 1.0

    def test_complement_identity(self):
        # 1 - R factors over the complementary sine pairs.
        for st in ref.rows(ens.sample_states(50, seed=5)):
            R = green.cross_ratio_of_config(ref.state_config(st))
            for j in (1, 2):
                k = 3 - j
                wj, vj = st.angle(f"W{j}"), st.angle(f"V{j}")
                wk, vk = st.angle(f"W{k}"), st.angle(f"V{k}")
                rhs = (sin2(wj - vj) * sin2(wk - vk)
                       / (sin2(wj - wk) * sin2(vj - vk)))
                assert 1.0 - R == pytest.approx(rhs, abs=1e-12)

    def test_phi_ratio_identity(self):
        # R Phi_j / (1 - R) telescopes to a two-term cot2 difference.
        for st in ref.rows(ens.sample_states(50, seed=9)):
            R = green.cross_ratio_of_config(ref.state_config(st))
            for j in (1, 2):
                k = 3 - j
                wj, vj = st.angle(f"W{j}"), st.angle(f"V{j}")
                wk = st.angle(f"W{k}")
                lhs = R * ref.phi(st, j) / (1.0 - R)
                assert lhs == pytest.approx(cot2(wj - wk) - cot2(wj - vj),
                                            abs=1e-12)

    def test_phi_product_form(self):
        for st in ref.rows(ens.sample_states(20, seed=11)):
            for j in (1, 2):
                k = 3 - j
                wj = st.angle(f"W{j}")
                wk, vk = st.angle(f"W{k}"), st.angle(f"V{k}")
                prod = -sin2(wk - vk) / (sin2(wj - vk) * sin2(wj - wk))
                assert ref.phi(st, j) == pytest.approx(prod, rel=1e-12)


class TestLogDensities:
    def test_fresh_state_c4_is_sine_product(self):
        # At t1 = t2 = 0 everything except the six-sine factor is trivial.
        rng = np.random.default_rng(17)
        for _ in range(10):
            cuts = np.sort(rng.uniform(0.0, TWO_PI, 3))[::-1]
            w1 = rng.uniform(0.0, TWO_PI)
            v1, w2, v2 = (w1 - (TWO_PI - c) for c in cuts)
            if min(w1 - v1, v1 - w2, w2 - v2, v2 - w1 + TWO_PI) < 0.05:
                continue
            st = ref.fresh_state(w1, v1, w2, v2)
            pairs = ((w1, v1), (w2, v2), (w1, w2), (w1, v2), (v1, w2),
                     (v1, v2))
            expect = (2.0 / 6.0) * sum(
                math.log(sin2(p - q)) for p, q in pairs)
            assert ref.log_M_iB_c4(CTX6, st) == pytest.approx(
                expect, abs=1e-12)

    def test_symmetric_fresh_frozen_values(self):
        st = ref.fresh_state(*SYM)
        assert ref.log_M_iB_c4(CTX3, st) == pytest.approx(
            -0.92419624074659375, abs=1e-12)
        assert ref.log_M_iB_ch(CTX3, st) == pytest.approx(
            0.13170552713327075, abs=1e-12)
        assert ref.log_M_iB_c4(CTX6, st) == pytest.approx(
            -0.46209812037329687, abs=1e-12)
        assert ref.log_M_iB_ch(CTX6, st) == pytest.approx(
            -0.12406845052004443, abs=1e-12)

    def test_capacity_shift_response(self):
        # Raising mA with everything else fixed scales both densities by
        # their explicit capacity exponent.
        delta = 0.125
        for ctx in (CTX3, CTX6):
            kap = ctx.kappa
            for st in ref.rows(ens.sample_states(5, seed=21)):
                if st.mA + delta > st.t1 + st.t2:
                    st = replace(st, mA=max(st.t1, st.t2))
                bumped = replace(st, mA=st.mA + delta)
                d4 = ref.log_M_iB_c4(ctx, bumped) - ref.log_M_iB_c4(ctx, st)
                dch = ref.log_M_iB_ch(ctx, bumped) - ref.log_M_iB_ch(ctx, st)
                assert d4 == pytest.approx(
                    (60.0 / (8.0 * kap) + ctx.sle_b / 6.0) * delta, abs=1e-12)
                assert dch == pytest.approx(
                    ((kap - 6.0) * (kap - 2.0) / (8.0 * kap)
                     + ctx.sle_b / 6.0) * delta, abs=1e-12)

    def test_mode_ratio_is_capacity_times_greens(self):
        # log M_ch - log M_c4 = -alpha0 mA - log G for the four-angle
        # boundary Green's function; exact because the sine products and
        # hypergeometric factor reorganize into G.
        for ctx in (CTX3, CTX6, KappaContext(7.5)):
            for st in ref.rows(ens.sample_states(20, seed=31)):
                cfg = green.BoundaryConfig(st.W1, st.V1, st.W2, st.V2)
                lhs = ref.log_M_iB_ch(ctx, st) - ref.log_M_iB_c4(ctx, st)
                rhs = -ctx.alpha0 * st.mA - math.log(green.G_quad(ctx, cfg))
                assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_densities_finite(self):
        for st in ref.rows(ens.sample_states(50, seed=41)):
            for ctx in (CTX3, CTX6):
                assert math.isfinite(ref.log_M_iB_c4(ctx, st))
                assert math.isfinite(ref.log_M_iB_ch(ctx, st))


class TestSdeAssembly:
    """Assembled SDE pairs must match the closed displayed forms."""

    def test_passive_sine_pair_drift(self):
        # For a pair not containing the growing tip the sine ratio is a
        # pure drift: -(1/2) W_{j,1}^2 [1 + cot2(Wj-P) cot2(Wj-Q)].
        for st in ref.rows(ens.sample_states(30, seed=51)):
            for j, pairs in ((1, (("W2", "V1"), ("W2", "V2"))),
                             (2, (("W1", "V1"), ("W1", "V2")))):
                wj = st.angle(f"W{j}")
                sq = st.tip_deriv(j, 1) ** 2
                for p, q in pairs:
                    sig, mu = ens.sin_ratio_sde(CTX6, st, j, (p, q))
                    assert sig == 0.0
                    expect = -0.5 * sq * (
                        1.0 + cot2(wj - st.angle(p)) * cot2(wj - st.angle(q)))
                    assert mu == pytest.approx(expect, abs=1e-10)

    def test_passive_v_pair_drift(self):
        for st in ref.rows(ens.sample_states(30, seed=53)):
            for j in (1, 2):
                k = 3 - j
                wj = st.angle(f"W{j}")
                sq = st.tip_deriv(j, 1) ** 2
                sig, mu = ens.sin_ratio_sde(CTX6, st, j, ("V1", "V2"))
                assert sig == 0.0
                expect = -0.5 * sq * (
                    1.0 + cot2(wj - st.angle(f"V{j}"))
                    * cot2(wj - st.angle(f"V{k}")))
                assert mu == pytest.approx(expect, abs=1e-10)

    def test_cross_ratio_sde_matches_display(self):
        for kap in KAPPAS:
            ctx = KappaContext(kap)
            for st in ref.rows(ens.sample_states(10, seed=int(kap * 10) + 61)):
                for j in (1, 2):
                    k = 3 - j
                    wj = st.angle(f"W{j}")
                    wk, vj, vk = (st.angle(f"W{k}"), st.angle(f"V{j}"),
                                  st.angle(f"V{k}"))
                    w1 = st.tip_deriv(j, 1)
                    w2 = st.tip_deriv(j, 2)
                    ph = ref.phi(st, j)
                    sig_d = 0.5 * w1 * ph
                    mu_d = ph * (
                        0.5 * (cot2(wj - wk) + cot2(wj - vk)) * w1 ** 2
                        + 0.5 * (kap / 2.0 - 3.0) * w2
                        + 0.5 * cot2(wj - vj) * w1 ** 2
                        - kap / 4.0 * cot2(wj - wk) * w1 ** 2)
                    sig_a, mu_a = ref.cross_ratio_sde(ctx, st, j)
                    assert sig_a == pytest.approx(sig_d, abs=1e-10)
                    assert mu_a == pytest.approx(mu_d, abs=1e-10)

    def test_hyp_factor_sde_matches_display(self):
        # The assembled form uses H, H' and the second derivative from
        # the hypergeometric ODE; the displayed form has folded all of
        # that into Gtilde(R) and Phi_j^2.  Agreement checks the folding.
        for kap in KAPPAS:
            ctx = KappaContext(kap)
            for st in ref.rows(ens.sample_states(10, seed=int(kap * 10) + 71)):
                R = green.cross_ratio_of_config(ref.state_config(st))
                Gt = hyp_tilde_G(ctx, R)
                for j in (1, 2):
                    wj = st.angle(f"W{j}")
                    vj = st.angle(f"V{j}")
                    w1 = st.tip_deriv(j, 1)
                    w2 = st.tip_deriv(j, 2)
                    ph = ref.phi(st, j)
                    sig_d = Gt * w1 * ph / (2.0 * kap)
                    mu_d = (Gt * (kap / 2.0 - 3.0) * w2 * ph / (2.0 * kap)
                            + 0.25 * (6.0 / kap - 1.0) * cot2(wj - vj)
                            * Gt * w1 ** 2 * ph
                            + 0.25 * (6.0 / kap - 1.0) * w1 ** 2 * ph ** 2)
                    sig_a, mu_a = ref.hyp_factor_sde(ctx, st, j)
                    assert sig_a == pytest.approx(sig_d, abs=1e-10)
                    assert mu_a == pytest.approx(mu_d, abs=1e-10)

    def test_assembled_noise_equals_displayed_coefficient(self):
        for kap in KAPPAS:
            ctx = KappaContext(kap)
            for st in ref.rows(ens.sample_states(20, seed=int(kap * 10) + 81)):
                for j in (1, 2):
                    for mode in ("c4", "ch"):
                        sig, _ = ref.log_M_sde(ctx, st, j, mode)
                        disp = ref.martingale_coefficient(ctx, st, j, mode)
                        assert sig == pytest.approx(disp, abs=1e-12)


class TestDriftResidual:
    def test_mode_validation(self):
        st = ref.fresh_state(*SYM)
        with pytest.raises(ValueError, match="mode"):
            ens.drift_residual(CTX6, st, 1, "c2")

    # (kappa, martingale_coefficient(state 0, j 2, "ch"),
    #  log_M_sde(state 0, j 1, "ch") drift, drift_residual(state 7, j 1,
    #  "ch")) at the battery's states (seed 20240 + 10 kappa), as hex
    # floats recorded when F moved to the Taylor table
    PINNED = [
        (3.0, "-0x1.184c7b8c542dep-1", "-0x1.6851896b1b74fp+2",
         "0x1.0000000000000p-47"),
        (6.0, "-0x1.243c1cf5a6249p-4", "-0x1.8c792f2f0078cp-3",
         "-0x1.0000000000000p-52"),
        (7.5, "0x1.aeb547cf2cda2p-3", "-0x1.db7709b4db77dp-2",
         "0x1.e300000000000p-52"),
    ]

    @pytest.mark.parametrize("kap, coef, mu, res", PINNED)
    def test_ch_terms_pinned_bits(self, kap, coef, mu, res):
        ctx = KappaContext(kap)
        st = ref.rows(ens.sample_states(8, seed=20240 + int(10 * kap)))
        assert ref.martingale_coefficient(ctx, st[0], 2, "ch") \
            == float.fromhex(coef)
        assert ref.log_M_sde(ctx, st[0], 1, "ch")[1] == float.fromhex(mu)
        assert ens.drift_residual(ctx, st[7], 1, "ch") == float.fromhex(res)

    @pytest.mark.parametrize("kap", [3.0, 7.5])
    def test_array_pass_equals_per_state_where_pow_rounds_apart(self, kap):
        # at this state glibc's pow(s, 2.0) and s * s round the square of
        # csc2(V1 - W1) apart; the helpers square by multiplication, which
        # a float, a numpy scalar and an array all round alike
        ctx = KappaContext(kap)
        st = ref.rows(ens.sample_states(11, seed=3))[10]
        per_state = [[ens.drift_residual(ctx, st, j, mode)
                      for mode in ("c4", "ch")] for j in (1, 2)]
        assert ens.drift_residuals(ctx, ref.stack([st])).tolist() \
            == [per_state]

    @pytest.mark.parametrize("kap", [3.0, 7.5])
    def test_batch_calls_equal_per_state_calls(self, kap):
        # the batch holds the state where pow(s, 2.0) and s * s round
        # apart (index 10); drift_residual and ode_rhs on a batch give
        # each state's per-state bits
        ctx = KappaContext(kap)
        batch = ens.sample_states(11, seed=3)
        states = ref.rows(batch)
        for j in (1, 2):
            for mode in ("c4", "ch"):
                want = np.array([ens.drift_residual(ctx, st, j, mode)
                                 for st in states])
                got = ens.drift_residual(ctx, batch, j, mode)
                assert got.tobytes() == want.tobytes(), (j, mode)
            rhs = ens.ode_rhs(batch, j)
            for key, value in rhs.items():
                want = np.array([ens.ode_rhs(st, j)[key] for st in states])
                got = np.broadcast_to(value, want.shape)
                assert got.tobytes() == want.tobytes(), (j, key)

    def test_martingale_cancellation_sweep(self):
        # Reduced-size version of the acceptance sweep (the acceptance
        # suite runs the full thousand states per kappa).
        worst = 0.0
        for kap in KAPPAS:
            ctx = KappaContext(kap)
            for st in ref.rows(ens.sample_states(250,
                                                 seed=int(kap * 1000) + 7)):
                for j in (1, 2):
                    for mode in ("c4", "ch"):
                        worst = max(worst, abs(
                            ens.drift_residual(ctx, st, j, mode)))
        assert worst < 1e-9

    def test_finite_difference_ito_cross_check(self):
        # Independent oracle: evolve the state one step with driving
        # increments +/- sqrt(kappa h), average the log-density to get
        # its drift and difference it to get its noise coefficient.  The
        # O(h) truncation is removed by a Richardson pair at steps
        # (1e-5, 5e-6); states keep angular gaps >= 0.5 because the
        # truncation constants grow like gap^-4.
        h = 1e-5

        def res_fd(ctx, st, j, mode, step):
            f = ref.log_M_iB_c4 if mode == "c4" else ref.log_M_iB_ch
            dw = math.sqrt(ctx.kappa * step)
            up = evolve_second_order(st, j, step, dw)
            dn = evolve_second_order(st, j, step, -dw)
            mu = (0.5 * (f(ctx, up) + f(ctx, dn)) - f(ctx, st)) / step
            sig = (f(ctx, up) - f(ctx, dn)) / (2.0 * dw)
            return mu + 0.5 * ctx.kappa * sig * sig

        worst = 0.0
        for kap in KAPPAS:
            ctx = KappaContext(kap)
            pool = ref.rows(ens.sample_states(400, seed=int(kap * 100) + 3))
            states = [s for s in pool if min_gap(s) >= 0.5][:20]
            assert len(states) == 20
            for st in states:
                for j in (1, 2):
                    for mode in ("c4", "ch"):
                        r = (2.0 * res_fd(ctx, st, j, mode, 0.5 * h)
                             - res_fd(ctx, st, j, mode, h))
                        worst = max(worst, abs(r))
        assert worst < 1e-4


class TestEvolveSecondOrder:
    def test_time_and_capacity_advance(self):
        st = ref.rows(ens.sample_states(1, seed=91))[0]
        out = evolve_second_order(st, 1, 1e-4, 0.0)
        assert out.t1 == pytest.approx(st.t1 + 1e-4)
        assert out.t2 == st.t2
        assert out.mA == pytest.approx(st.mA + st.W11 ** 2 * 1e-4)

    def test_passive_fields_deterministic(self):
        st = ref.rows(ens.sample_states(1, seed=93))[0]
        a = evolve_second_order(st, 1, 1e-4, +0.01)
        b = evolve_second_order(st, 1, 1e-4, -0.01)
        assert a.W2 == b.W2
        assert a.V11 == b.V11
        assert a.Icc == b.Icc
        assert a.W1 != b.W1
        assert a.W11 != b.W11


class TestSampleStates:
    @pytest.mark.parametrize("seed, digest", [
        (20260, "b90444d506178890eb879952e1ee359e"
                "9278d5bcebfa86e712185f3f5bde2e1d"),
        (20300, "3c56bc8de369a7425f498378320ed94e"
                "83e88df7c348736d2eee62b8dfd5435a"),
    ])
    def test_pinned_digest(self, seed, digest):
        # sha256 of every field of every state, in field order, as
        # little-endian doubles: the draws, their order and the rejections
        h = hashlib.sha256()
        for st in ref.rows(ens.sample_states(200, seed)):
            for name in st.__dataclass_fields__:
                h.update(struct.pack("<d", getattr(st, name)))
        assert h.hexdigest() == digest

    # seeds whose draws reject at least once and run past the first block
    # of 17 n draws: 1, 5 and 52 rejections
    @pytest.mark.parametrize("n, seed", [(1, 5), (8, 1), (200, 3)])
    def test_columns_equal_the_rejection_loop(self, n, seed):
        states, rejections = ref.sample_states_loop(n, seed)
        assert rejections >= 1
        cols = ens.sample_states(n, seed)
        assert len(ref.rows(cols)) == n
        for name in ens.EnsembleState.__dataclass_fields__:
            want = np.array([getattr(st, name) for st in states])
            assert np.array_equal(getattr(cols, name).view(np.int64),
                                  want.view(np.int64)), name
        assert ref.rows(ens.sample_states(n, seed)) == states
        # the array pass reads the columns as it reads the list
        ctx = KappaContext(6.0)
        assert ens.drift_residuals(ctx, cols).tobytes() \
            == ens.drift_residuals(ctx, ref.stack(states)).tobytes()

    def test_reproducible_and_valid(self):
        a = ref.rows(ens.sample_states(10, seed=5))
        b = ref.rows(ens.sample_states(10, seed=5))
        assert all(x == y for x, y in zip(a, b))
        for st in a:
            assert min_gap(st) >= 0.1
            assert max(st.t1, st.t2) <= st.mA <= st.t1 + st.t2
