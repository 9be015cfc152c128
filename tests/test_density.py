"""Tests for the spectral transition density of the disc diffusion."""

import functools
import hashlib
import math

import numpy as np
import pytest
from numpy.polynomial import legendre

from twocurve.context import KappaContext
from twocurve import density as dens, quadrature
from twocurve.green import G_u
from twocurve.quadrature import (disc_rule, square_integrate,
                                 tanh_sinh_rule)
from twocurve.special import log_gamma
from twocurve.timecurve import ZState, simulate_z_ensemble

import references as ref


CTX6 = KappaContext(6.0)
CTX4 = KappaContext(4.0)

# one shared basis per kappa; construction is cheap, survival integrals
# computed lazily are reused across tests through the instance cache
BASIS6 = dens.SpectralBasis(CTX6, 60)
BASIS4 = dens.SpectralBasis(CTX4, 60)


def _grid_integral(f, rtol):
    """square_integrate of f(z1, z2), called on each level's meshgrid."""
    return square_integrate(
        lambda z, w: w @ f(*np.meshgrid(z, z, indexing="ij")) @ w, rtol)[0]


def _all_modes(basis, n_limit):
    for n in range(n_limit + 1):
        for j in range(n // 2 + 1):
            yield n, j, 1
        for j in range((n - 1) // 2 + 1):
            yield n, j, 2


class TestEigenvalue:
    def test_zero_mode(self):
        for k in (2.0, 4.0, 6.0, 7.5):
            assert dens.eigenvalue(KappaContext(k), 0) == 0.0

    def test_gap_mode(self):
        for k in (2.0, 4.0, 6.0, 7.5):
            ctx = KappaContext(k)
            np.testing.assert_allclose(dens.eigenvalue(ctx, 1),
                                       -(2.0 + k / 8.0), rtol=1e-15)

    def test_level_two_value(self):
        # -(6/8)*2*(2 + 16/6) = -7 exactly in reals; 16/6 rounds in floats
        np.testing.assert_allclose(dens.eigenvalue(CTX6, 2), -7.0, rtol=1e-14)

    def test_strictly_decreasing(self):
        lams = [dens.eigenvalue(CTX6, n) for n in range(62)]
        assert all(b < a for a, b in zip(lams, lams[1:]))

    def test_negative_index_rejected(self):
        # negative levels, booleans and non-integer types are no levels
        for bad in (-1, True, np.True_, 2.0, np.array([1, -1]),
                    np.array([1.0, 2.0]), np.array([True, False]), "3"):
            with pytest.raises(ValueError):
                dens.eigenvalue(CTX6, bad)

    def test_integer_array_equals_scalar_calls_bit_for_bit(self):
        for k in (0.5, 2.0, 3.3, 6.0, 7.5):
            ctx = KappaContext(k)
            levels = np.arange(2049)
            got = dens.eigenvalue(ctx, levels)
            want = np.array([dens.eigenvalue(ctx, int(n)) for n in levels])
            assert got.tobytes() == want.tobytes()
            grid = dens.eigenvalue(ctx, levels[:12].reshape(3, 4))
            assert grid.tobytes() == want[:12].tobytes()
        assert type(dens.eigenvalue(CTX6, np.int64(3))) is float


class TestBasisConstruction:
    def test_mode_count(self):
        basis = dens.SpectralBasis(CTX6, 12)
        assert basis.n_modes == 13 * 14 // 2  # sum of (n+1)

    def test_mode_index_roundtrip(self):
        basis = dens.SpectralBasis(CTX6, 8)
        seen = set()
        for n, j, i in _all_modes(basis, 8):
            k = ref.mode_index(basis, n, j, i)
            assert (int(basis.mode_n[k]), int(basis.mode_j[k]),
                    int(basis.mode_i[k])) == (n, j, i)
            seen.add(k)
        assert seen == set(range(basis.n_modes))

    def test_invalid_modes_rejected(self):
        basis = dens.SpectralBasis(CTX6, 8)
        for bad in [(3, 2, 1), (2, 1, 2), (4, 0, 3), (9, 0, 1), (1, -1, 1)]:
            with pytest.raises(ValueError):
                ref.mode_index(basis, *bad)
            with pytest.raises(ValueError):
                ref.basis_eval(basis, *bad, 0.1, 0.1)

    def test_bad_n_max(self):
        for bad in (-1, True, False, 3.0, np.array(3)):
            with pytest.raises(ValueError):
                dens.SpectralBasis(CTX6, bad)


@functools.cache
def _tail_logs_per_pair(kappa):
    """Per-pair evaluation of the truncation-scan logs: log_gamma and
    np.log run on all (n, j) pairs of the scan; the reference for the
    tabulated ``dens._tail_logs``.  Built once per kappa for the two test
    classes that read it, and read-only."""
    e = KappaContext(kappa).weight_exponent
    ek = e + 1.0
    counts = np.arange(dens._N_SCAN + 1) // 2 + 1
    starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    n_flat = np.repeat(np.arange(dens._N_SCAN + 1), counts)
    j_flat = np.concatenate([np.arange(c) for c in counts])
    m_flat = (n_flat - 2 * j_flat).astype(float)
    jf = j_flat.astype(float)
    nf = n_flat.astype(float)
    log_h2 = (np.log(np.where(n_flat == 2 * j_flat, 1.0, 2.0) / np.pi)
              + log_gamma(jf + 1.0) + np.log(nf + ek)
              + log_gamma(nf - jf + ek)
              - log_gamma(jf + ek) - log_gamma(nf - jf + 1.0))
    log_sup_a = (log_gamma(e + jf + 1.0) - log_gamma(jf + 1.0)
                 - log_gamma(e + 1.0))
    log_sup_b = (log_gamma(m_flat + jf + 1.0) - log_gamma(jf + 1.0)
                 - log_gamma(m_flat + 1.0))
    log_sup2 = log_h2 + 2.0 * np.maximum(log_sup_a, log_sup_b)
    per_level = np.maximum.reduceat(log_sup2, starts)
    out = per_level + np.log(np.arange(dens._N_SCAN + 1) + 1.0)
    out.flags.writeable = False
    return out


class TestTabulatedConstants:
    """Per-kappa tables equal the per-element formulas bit for bit."""

    @pytest.mark.parametrize("kappa", [0.5, 3.0, 4.0, 6.0, 7.5])
    def test_tail_logs_match_per_pair_evaluation(self, kappa):
        ctx = KappaContext(kappa)
        got = dens._tail_logs(ctx)
        assert np.array_equal(got, _tail_logs_per_pair(kappa))
        assert dens._tail_logs(ctx) is got  # cached per kappa

    @pytest.mark.parametrize("kappa", [0.5, 3.0, 4.0, 6.0, 7.5])
    def test_mode_h_matches_scalar_h_const(self, kappa):
        from twocurve.special import h_const
        ctx = KappaContext(kappa)
        basis = dens.SpectralBasis(ctx, 60)
        ref = [h_const(ctx, int(n), int(j))
               for n, j in zip(basis.mode_n, basis.mode_j)]
        assert all(type(v) is float for v in ref)
        assert np.array_equal(basis.mode_h, np.array(ref))

    def test_sup_norm_needs_a_basis_mode(self):
        basis = dens.SpectralBasis(CTX6, 8)
        with pytest.raises(ValueError):
            ref.sup_norm(basis, 9, 0)
        with pytest.raises(ValueError):
            ref.sup_norm(basis, 3, 2)


def _full_scan_truncation(basis, logs, t, rtol=dens.SERIES_RTOL):
    """Truncation from the full per-pair table of _N_SCAN levels: the
    selection as it ran before the scan doubled.  Returns
    ((n_used, tail_bound, converged), top summand)."""
    ctx = basis.ctx
    levels = np.arange(logs.size, dtype=float)
    lam = -(ctx.kappa / 8.0) * levels * (levels + 16.0 / ctx.kappa)
    with np.errstate(over="ignore"):
        terms = np.exp(lam * t + logs) * (np.pi * ctx.kappa / 8.0)
        tails = np.zeros(logs.size)
        tails[:-1] = np.cumsum(terms[::-1])[::-1][1:]
    cap = min(dens.N_CAP, basis.n_max)
    if tails[cap] <= rtol:
        n_used = int(np.argmax(tails <= rtol))
        return (n_used, float(tails[n_used]), True), terms[-1]
    return (cap, float(tails[cap]), False), terms[-1]


class TestTruncationScan:
    """The doubled tail scan selects what the full scan selects."""

    TIMES = np.geomspace(1e-4, 8.0, 40)

    @pytest.mark.parametrize("kappa", [0.5, 1.1, 2.0, 3.0, 4.0, 6.0, 7.5,
                                       7.9])
    def test_doubled_scan_matches_full_scan(self, kappa):
        logs = _tail_logs_per_pair(kappa)
        oracle = {}
        basis = dens.SpectralBasis(KappaContext(kappa), 60)
        for t in self.TIMES:
            oracle[t], top = _full_scan_truncation(basis, logs, t)
            if top != 0.0:  # the scan misses levels past _N_SCAN
                assert not oracle[t][2]
        # from long times down, each call scans further than the last;
        # then from short times up
        for times in (self.TIMES[::-1], self.TIMES):
            basis = dens.SpectralBasis(KappaContext(kappa), 60)
            for t in times:
                assert dens.truncation(basis, t) == oracle[t]

    def test_unconverged_whenever_the_top_level_is_nonzero(self):
        # the times the comment at _N_SCAN names
        for kappa, t, top in ((0.5, 0.004, np.inf), (2.0, 0.002, 8e-55)):
            basis = dens.SpectralBasis(KappaContext(kappa), 60)
            got, top_term = _full_scan_truncation(
                basis, dens._tail_logs(basis.ctx), t)
            assert top_term == pytest.approx(top, rel=0.01)
            assert not got[2]
            assert dens.truncation(basis, t)[2] is False

    def test_short_table_is_head_of_full_table(self):
        ctx = KappaContext(6.0)
        head = dens._tail_logs(ctx, 128)
        assert head.size == 129
        short = dens._tail_logs(ctx, 100)  # reaches level 100
        assert short.tobytes() == head[:101].tobytes()
        full = dens._tail_logs(ctx)
        assert full.size == dens._N_SCAN + 1
        assert head.tobytes() == full[:129].tobytes()
        # built once per kappa and top level, whatever was built before
        assert dens._tail_logs(ctx, 128) is head


class TestBasisEval:
    def test_ground_mode_constant(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-0.6, 0.6, 32)
        y = rng.uniform(-0.6, 0.6, 32)
        val = ref.basis_eval(BASIS6, 0, 0, 1, x, y)
        np.testing.assert_allclose(val, np.sqrt(8.0 / (np.pi * 6.0)),
                                   rtol=1e-14)

    def test_matches_explicit_formula(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-0.55, 0.55, 40)
        y = rng.uniform(-0.55, 0.55, 40)
        r2 = x * x + y * y
        th = np.arctan2(y, x)
        e = BASIS6.weight_exponent
        for (n, j, i) in [(1, 0, 1), (1, 0, 2), (4, 2, 1), (7, 2, 2),
                          (12, 3, 1), (12, 6, 1)]:
            m = n - 2 * j
            ang = np.cos(m * th) if i == 1 else np.sin(m * th)
            from twocurve.special import h_const
            want = (h_const(CTX6, n, j)
                    * ref.jacobi(j, e, float(m), 2 * r2 - 1)
                    * np.sqrt(r2) ** m * ang)
            np.testing.assert_allclose(
                ref.basis_eval(BASIS6, n, j, i, x, y), want, rtol=1e-12)

    def test_outside_disc_rejected(self):
        # the oracle, and the evaluator's dense matrix; the closed disc is in
        dens.mode_values(BASIS6, 2, [1.0, 0.0], [0.0, -1.0])
        with pytest.raises(ValueError):
            ref.basis_eval(BASIS6, 2, 1, 1, 0.9, 0.9)
        with pytest.raises(ValueError):
            dens.mode_values(BASIS6, 2, [0.1, 0.9], [0.0, 0.9])

    @pytest.mark.parametrize("kappa", [3.3, 6.0])
    def test_orthonormality(self, kappa):
        ctx = KappaContext(kappa)
        basis = dens.SpectralBasis(ctx, 12)
        x, y, w = disc_rule(ctx, 26, 52)
        vals = np.array([ref.basis_eval(basis, n, j, i, x, y)
                         for n, j, i in _all_modes(basis, 12)])
        gram = (vals * w) @ vals.T
        err = np.max(np.abs(gram - np.eye(basis.n_modes)))
        assert err < 1e-8

    def test_sup_norm_upper_bound_and_attained_cases(self):
        # The endpoint-formula value always dominates the grid sup; when
        # the r=1 endpoint term is the larger one (or the mode is purely
        # radial) the sup is attained there and matches to 1e-8.
        e = BASIS6.weight_exponent
        r = np.linspace(0.0, 1.0, 801)
        th = np.linspace(0.0, 2.0 * np.pi, 721)[:-1]
        rr, tt = np.meshgrid(r, th, indexing="ij")
        x = (rr * np.cos(tt)).ravel()
        y = (rr * np.sin(tt)).ravel()
        for n in range(9):
            for j in range(n // 2 + 1):
                m = n - 2 * j
                bound = ref.sup_norm(BASIS6, n, j)
                grid = np.max(np.abs(ref.basis_eval(BASIS6, n, j, 1, x, y)))
                assert grid <= bound * (1.0 + 1e-12)
                end_r1 = np.exp(log_gamma(e + j + 1.0) - log_gamma(j + 1.0)
                                - log_gamma(e + 1.0))
                end_r0 = np.exp(log_gamma(m + j + 1.0) - log_gamma(j + 1.0)
                                - log_gamma(m + 1.0))
                if m == 0 or end_r1 >= end_r0:
                    np.testing.assert_allclose(grid, bound, rtol=1e-8)


class TestModeEvaluator:
    """``mode_blocks``, the one evaluator every series runs on, and
    ``mode_values``, its dense matrix."""

    @pytest.mark.parametrize("kappa", [3.3, 6.0])
    def test_rows_match_basis_eval(self, kappa):
        # every mode up to level 12 against the per-mode formula, within
        # 1e-13 of the mode's largest value on the points: each row of the
        # blocks, and each row of the dense matrix
        basis = dens.SpectralBasis(KappaContext(kappa), 12)
        rng = np.random.default_rng(21)
        rad = np.sqrt(rng.uniform(0.0, 1.0, 300))
        th = rng.uniform(-np.pi, np.pi, 300)
        x = np.concatenate((rad * np.cos(th), [0.0, 1.0, 0.0, -0.6]))
        y = np.concatenate((rad * np.sin(th), [0.0, 0.0, -1.0, 0.8]))
        want = np.array([ref.basis_eval(basis, n, j, i, x, y)
                         for n, j, i in zip(basis.mode_n, basis.mode_j,
                                            basis.mode_i)])
        atol = 1e-13 * np.max(np.abs(want), axis=1, keepdims=True)
        seen = np.zeros((basis.n_modes, x.size), dtype=int)
        for rows, sl, V in dens.mode_blocks(basis, 12, x, y):
            seen[rows, sl] += 1
            assert np.all(np.abs(V - want[rows, sl])
                          <= atol[rows] + 1e-13 * np.abs(want[rows, sl]))
        assert (seen == 1).all()
        got = dens.mode_values(basis, 12, x, y)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= atol + 1e-13 * np.abs(want))

    def test_mode_values_is_the_scatter_of_the_blocks(self, monkeypatch):
        # 2-d points read flat, a lower level, and blocks of 25 points
        rng = np.random.default_rng(23)
        x, y = rng.uniform(-0.7, 0.7, (2, 40, 30))
        monkeypatch.setattr(dens, "_CHUNK", 500)
        got = dens.mode_values(BASIS6, 20, x, y)
        assert got.shape == (BASIS6.modes_up_to(20), 1200)
        want = np.full(got.shape, np.nan)
        for rows, sl, V in dens.mode_blocks(BASIS6, 20, x, y):
            want[rows, sl] = V
        assert got.tobytes() == want.tobytes()

    def test_blocks_stay_within_chunk(self, monkeypatch):
        rng = np.random.default_rng(22)
        x, y = rng.uniform(-0.7, 0.7, (2, 4000))
        sizes = [V.size for _, _, V in dens.mode_blocks(BASIS6, 60, x, y)]
        assert max(sizes) <= dens._CHUNK
        coef = rng.standard_normal(BASIS6.n_modes)

        def series():
            out = np.zeros(x.size)
            for rows, sl, V in dens.mode_blocks(BASIS6, 20, x, y):
                assert V.size <= dens._CHUNK
                out[sl] += coef[rows] @ V
            return out

        whole = series()
        monkeypatch.setattr(dens, "_CHUNK", 500)  # 20 rows by 25 points
        np.testing.assert_allclose(series(), whole, rtol=1e-13, atol=1e-13)

    # Values recorded from the per-mode loops the evaluator replaced.  At
    # t = 0.01 the series is capped at level 60 and its terms are large, so
    # the points sit near the start: far from it the value is the residue
    # of cancelling terms, and any change of summation order moves it.
    A = (0.25, -0.15)
    XS = (np.array([0.27, 0.22, 0.3]), np.array([-0.13, -0.2, -0.1]))
    FS = (np.array([0.26, 0.24, 0.28]), np.array([-0.14, -0.17, -0.12]))
    Z0 = (1.1, 2.0)
    ZS = (np.array([1.15, 1.0, 1.2]), np.array([1.95, 2.1, 2.05]))
    PINNED = {
        0.01: (("0x1.5ef96c5945484p+3", "0x1.41e3b0729c15dp+3",
                "0x1.30ee82a1d93a3p+3"),
               ("0x1.6675cb23017afp+3", "0x1.597085fd1a2a1p+3",
                "0x1.6078299043d7cp+3"),
               ("0x1.380e203547cb4p+2", "0x1.ed240a68f2f0ep+1",
                "0x1.0993abe738d2cp+2")),
        1.5: (("0x1.a7f68886ab194p-2", "0x1.a81de21f0a13ap-2",
               "0x1.a677c17585ec9p-2"),
              ("0x1.a801e56a29bedp-2", "0x1.a82c85510de5cp-2",
               "0x1.a6a84d0798e18p-2"),
              ("0x1.cc090fd010b2fp-6", "0x1.b72e19ba2f6cap-6",
               "0x1.b6c7a6e6ee387p-6")),
        4.0: (("0x1.a52ed12d15224p-2", "0x1.a5660db63329bp-2",
               "0x1.a39a8ff318a7bp-2"),
              ("0x1.a52ed4302238dp-2", "0x1.a56611960f2f6p-2",
               "0x1.a39a9ccf3600cp-2"),
              ("0x1.3f4e19f821d76p-10", "0x1.2f85c2b30c33fp-10",
               "0x1.305cb04abbf67p-10")),
    }

    @pytest.mark.parametrize("t", [0.01, 1.5, 4.0])
    def test_pinned_kernels(self, t):
        series, pointwise, tilde = (
            [float.fromhex(h) for h in pins] for pins in self.PINNED[t])
        np.testing.assert_allclose(dens.p_t(BASIS6, self.A, self.XS, t),
                                   series, rtol=1e-13, atol=0)
        # p_t takes a single point on one side: one call per point pair
        np.testing.assert_allclose(
            [dens.p_t(BASIS6, (fx, fy), (tx, ty), t)
             for fx, fy, tx, ty in zip(*self.FS, *self.XS)],
            pointwise, rtol=1e-13, atol=0)
        np.testing.assert_allclose(
            dens.tilde_pZ_t(CTX6, BASIS6, self.Z0, self.ZS, t), tilde,
            rtol=1e-13, atol=0)

    def test_pinned_survival(self):
        # a level-12 basis keeps the t = 0.01 mode integrals cheap; the
        # integrals are cached at the first level asked, so the order of
        # the times is part of the pin
        basis = dens.SpectralBasis(CTX6, 12)
        got = [dens.survival_P2(CTX6, basis, (0.4, 0.5), t)
               for t in (0.01, 1.5, 4.0)]
        pins = ("0x1.f87bf199bbfd5p-1", "0x1.47b8430c18723p-4",
                "0x1.c79e8f54164b3p-9")
        np.testing.assert_allclose(got, [float.fromhex(h) for h in pins],
                                   rtol=1e-13, atol=0)


    def test_modes_at_a_lower_level_are_the_head_of_a_higher_one(self):
        # the basis answers a lower level at its last point with the head
        # of the vector it keeps: bit for bit a fresh evaluation there
        x, y = (np.asarray(v) for v in (0.31, -0.42))
        basis = dens.SpectralBasis(CTX6, 60)
        top = dens._modes_at(basis, 60, x, y).copy()
        for n in (0, 1, 2, 7, 30, 59):
            fresh = dens._modes_at(dens.SpectralBasis(CTX6, 60), n, x, y)
            head = dens._modes_at(basis, n, x, y)
            assert fresh.size == head.size == basis.modes_up_to(n)
            assert fresh.tobytes() == head.tobytes() \
                == top[:fresh.size].tobytes()
        # another point is evaluated afresh
        other = dens._modes_at(basis, 7, np.asarray(0.1), y)
        assert other.tobytes() == dens._modes_at(
            dens.SpectralBasis(CTX6, 7), 7, np.asarray(0.1), y).tobytes()


class TestGeneratorApply:
    def test_constant_function(self):
        val = dens.generator_apply(CTX6, lambda x, y: np.ones_like(x),
                                   np.array([0.2, -0.4]), np.array([0.1, 0.3]))
        # the 1/h^2 second-difference stencil amplifies rounding of the
        # exact cancellation to ~ eps / h^2 = 2e-10
        np.testing.assert_allclose(val, 0.0, atol=5e-9)

    def test_coordinate_function(self):
        x = np.array([0.3, -0.5, 0.0])
        y = np.array([0.1, 0.2, -0.6])
        val = dens.generator_apply(CTX6, lambda a, b: a, x, y)
        np.testing.assert_allclose(val, dens.eigenvalue(CTX6, 1) * x,
                                   atol=1e-9)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            dens.generator_apply(CTX6, lambda a, b: a, 1.0, 0.0)

    @pytest.mark.parametrize("kappa", [3.3, 6.0])
    def test_eigenfunction_residual(self, kappa):
        ctx = KappaContext(kappa)
        basis = dens.SpectralBasis(ctx, 10)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-0.62, 0.62, (2, 10))
        for n, j, i in _all_modes(basis, 10):
            f = (lambda n=n, j=j, i=i: lambda a, b:
                 ref.basis_eval(basis, n, j, i, a, b))()
            lhs = dens.generator_apply(ctx, f, pts[0], pts[1])
            rhs = dens.eigenvalue(ctx, n) * f(pts[0], pts[1])
            assert np.max(np.abs(lhs - rhs)) < 1e-6


def _per_point_generator(ctx, f, x, y, h=1e-3):
    """L f with one call of f per stencil point, each derivative summed
    in the order ``generator_apply`` sums it: the oracle for its single
    call on the stacked stencil."""
    c1 = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
    o1 = np.array([-2.0, -1.0, 1.0, 2.0])
    c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    o2 = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    f_x = sum(c * f(x + o * h, y) for c, o in zip(c1, o1))
    f_y = sum(c * f(x, y + o * h) for c, o in zip(c1, o1))
    f_xx = sum(c * f(x + o * h, y) for c, o in zip(c2, o2))
    f_yy = sum(c * f(x, y + o * h) for c, o in zip(c2, o2))
    f_xy = sum(ci * cj * f(x + oi * h, y + oj * h)
               for ci, oi in zip(c1, o1) for cj, oj in zip(c1, o1))
    k = ctx.kappa
    return (k / 8.0 * (1.0 - x * x) * f_xx
            + k / 8.0 * (1.0 - y * y) * f_yy
            - k / 4.0 * x * y * f_xy
            - ctx.lambda_gap * (x * f_x + y * f_y))


class TestGeneratorStencil:
    PX, PY = np.random.default_rng(11).uniform(-0.62, 0.62, (2, 10))

    @pytest.mark.parametrize("f", [
        lambda a, b: a ** 3 * b - 2.0 * a * b * b + 0.5 * b,
        lambda a, b: ref.basis_eval(BASIS6, 0, 0, 1, a, b),
        lambda a, b: ref.basis_eval(BASIS6, 5, 1, 2, a, b),
        lambda a, b: ref.basis_eval(BASIS6, 10, 3, 1, a, b),
    ], ids=["polynomial", "mode_0_0_1", "mode_5_1_2", "mode_10_3_1"])
    def test_one_call_same_bytes_as_per_point_calls(self, f):
        calls = []

        def counted(a, b):
            calls.append(np.shape(a))
            return f(a, b)

        got = dens.generator_apply(CTX6, counted, self.PX, self.PY)
        assert calls == [(26, 10)]
        want = _per_point_generator(CTX6, f, self.PX, self.PY)
        assert got.tobytes() == want.tobytes()


class TestPInfty:
    def test_formula(self):
        val = dens.p_infty(CTX6, 0.3, -0.4)
        ref = 8.0 / (np.pi * 6.0) * (1 - 0.09 - 0.16) ** CTX6.weight_exponent
        np.testing.assert_allclose(val, ref, rtol=1e-15)

    @pytest.mark.parametrize("kappa", [2.0, 4.0, 6.0, 7.5])
    def test_unit_mass(self, kappa):
        ctx = KappaContext(kappa)
        x, y, w = disc_rule(ctx, 24, 48)
        mass = np.sum(w) * 8.0 / (np.pi * kappa)
        assert abs(mass - 1.0) < 1e-10

    def test_near_upper_kappa_limit_constant(self):
        # at kappa -> 8 the weight exponent 8/kappa - 1 -> 0 and the
        # density approaches the uniform value 1/pi on the open disc
        ctx = KappaContext(8.0 - 1e-9)
        for pt in [(0.0, 0.0), (0.5, 0.3), (-0.8, 0.1)]:
            np.testing.assert_allclose(dens.p_infty(ctx, *pt), 1.0 / np.pi,
                                       rtol=1e-7)

    def test_boundary_zero_and_domain(self):
        assert dens.p_infty(CTX6, 1.0, 0.0) == 0.0
        with pytest.raises(ValueError):
            dens.p_infty(CTX6, 1.1, 0.0)


class TestPt:
    A = (0.3, -0.2)
    B = (-0.25, 0.45)

    def test_time_domain(self):
        for t in (0.0, -1.0):
            with pytest.raises(ValueError):
                dens.p_t(BASIS6, self.A, self.B, t)

    def test_truncation_report_converged(self):
        n_used, tail, converged = dens.truncation(BASIS6, 0.5)
        assert converged and n_used > 0
        assert tail <= dens.SERIES_RTOL
        assert type(n_used) is int and type(tail) is float

    def test_truncation_report_capped(self):
        n_used, tail, converged = dens.truncation(BASIS6, 0.004)
        assert not converged
        assert n_used == 60
        assert tail > dens.SERIES_RTOL

    def test_single_term_is_stationary_exactly(self):
        assert dens.truncation(BASIS6, 60.0)[0] == 0
        assert dens.p_t(BASIS6, self.A, self.B, 60.0) \
            == dens.p_infty(CTX6, *self.B)
        # an array of start points: the constant on their shape
        fx = np.array([0.3, -0.1, 0.0])
        got = dens.p_t(BASIS6, (fx, fx), self.B, 60.0)
        assert got.shape == (3,)
        assert np.array_equal(got, np.full(3, dens.p_infty(CTX6, *self.B)))

    def test_shape_branches_agree(self):
        basis = dens.SpectralBasis(CTX6, 12)
        rng = np.random.default_rng(1)
        fx, fy, tx, ty = rng.uniform(-0.5, 0.5, (4, 12))
        # arrays on both sides are refused: K is a series in one point
        with pytest.raises(ValueError, match="single point"):
            dens.p_t(basis, (fx, fy), (tx, ty), 0.5)
        scal_to = np.array([dens.p_t(basis, (fx[0], fy[0]), (tx[i], ty[i]),
                                     0.5) for i in range(12)])
        np.testing.assert_allclose(
            dens.p_t(basis, (fx[0], fy[0]), (tx, ty), 0.5), scal_to,
            atol=1e-13)
        np.testing.assert_allclose(
            dens.p_t(basis, (fx, fy), (tx[0], ty[0]), 0.5),
            np.array([dens.p_t(basis, (fx[i], fy[i]), (tx[0], ty[0]), 0.5)
                      for i in range(12)]), atol=1e-13)

    def test_chapman_kolmogorov(self):
        x, y, w = disc_rule(CTX6, 30, 64)
        psi = np.clip(1 - x * x - y * y, 0.0, None) ** CTX6.weight_exponent
        lhs = float(np.sum(
            w * (dens.p_t(BASIS6, self.A, (x, y), 0.5) / psi)
            * dens.p_t(BASIS6, (x, y), self.B, 0.5)))
        rhs = dens.p_t(BASIS6, self.A, self.B, 1.0)
        assert abs(lhs - rhs) < 1e-6

    def test_stationarity(self):
        x, y, w = disc_rule(CTX6, 30, 64)
        lhs = float(np.sum(w * (8.0 / (np.pi * 6.0))
                           * dens.p_t(BASIS6, (x, y), self.B, 0.7)))
        assert abs(lhs - dens.p_infty(CTX6, *self.B)) < 1e-8

    def test_mass_conserved(self):
        x, y, w = disc_rule(CTX6, 30, 64)
        psi = np.clip(1 - x * x - y * y, 0.0, None) ** CTX6.weight_exponent
        mass = float(np.sum(w * dens.p_t(BASIS6, self.A, (x, y), 0.8) / psi))
        assert abs(mass - 1.0) < 1e-10

    def test_decay_envelope_to_stationary(self):
        # |p_t - p_inf| <= C exp(-(2+k/8) t) p_inf with a stable constant:
        # calibrate C at t=1 and verify the bound over a finer time grid.
        rng = np.random.default_rng(3)
        fx, fy, tx, ty = rng.uniform(-0.6, 0.6, (4, 30))
        pi_to = dens.p_infty(CTX6, tx, ty)

        def c_of(t):
            p = np.array([dens.p_t(BASIS6, (a, b), (c, d), t)
                          for a, b, c, d in zip(fx, fy, tx, ty)])
            return np.max(np.abs(p - pi_to)
                          / (np.exp(-CTX6.lambda_gap * t) * pi_to))

        c_ref = c_of(1.0)
        assert np.isfinite(c_ref) and c_ref > 0
        for t in (1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0):
            assert c_of(t) <= 1.05 * c_ref


class TestPz:
    Z0 = (1.1, 2.0)
    ZB = (0.7, 2.3)

    def test_pz_infty_unit_mass(self):
        val = _grid_integral(lambda a, b: ref.pZ_infty(CTX6, (a, b)),
                             rtol=1e-10)
        assert abs(val - 1.0) < 1e-8

    def test_pz_infty_swap_symmetry(self):
        a = ref.pZ_infty(CTX6, (1.1, 2.0))
        b = ref.pZ_infty(CTX6, (2.0, 1.1))
        assert a == b

    def test_pz_t_swap_symmetry(self):
        a = ref.pZ_t(BASIS6, (1.1, 2.0), (0.7, 2.3), 0.8)
        b = ref.pZ_t(BASIS6, (2.0, 1.1), (2.3, 0.7), 0.8)
        np.testing.assert_allclose(a, b, rtol=1e-13)

    def test_pz_t_mass(self):
        val = _grid_integral(
            lambda a, b: ref.pZ_t(BASIS6, self.Z0, (a, b), 0.5), rtol=1e-9)
        assert abs(val - 1.0) < 1e-6

    def test_jacobian_relation(self):
        z_to = (0.9, 1.7)
        x_to = np.cos((z_to[0] + z_to[1]) / 2.0)
        y_to = np.sin((z_to[0] - z_to[1]) / 2.0)
        x_f = np.cos((self.Z0[0] + self.Z0[1]) / 2.0)
        y_f = np.sin((self.Z0[0] - self.Z0[1]) / 2.0)
        jac = (np.sin(z_to[0]) + np.sin(z_to[1])) / 4.0
        lhs = ref.pZ_t(BASIS6, self.Z0, z_to, 0.6)
        rhs = dens.p_t(BASIS6, (x_f, y_f), (x_to, y_to), 0.6) * jac
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            ref.pZ_infty(CTX6, (3.5, 1.0))
        with pytest.raises(ValueError):
            ref.pZ_t(BASIS6, self.Z0, (1.0, -0.1), 0.5)
        with pytest.raises(ValueError):
            ref.pZ_t(BASIS6, self.Z0, self.ZB, 0.0)


class TestTilde:
    Z0 = (1.1, 2.0)

    def test_definition_matches_ratio_form(self):
        z_to = (1.4, 0.9)
        t = 0.8
        direct = (np.exp(-CTX6.alpha0 * t)
                  * ref.pZ_t(BASIS6, self.Z0, z_to, t)
                  * G_u(CTX6, self.Z0) / G_u(CTX6, z_to))
        np.testing.assert_allclose(
            dens.tilde_pZ_t(CTX6, BASIS6, self.Z0, z_to, t), direct,
            rtol=1e-12)

    def test_truncation_sets_the_level_of_tilde_and_pZ_t(self):
        # both sum the series to the level truncation(basis, t) reports:
        # a basis cut there gives the same bits, one level lower does not
        z_to = (1.4, 0.9)
        levels = []
        for t in (0.004, 0.8, 60.0):
            n_used, _, converged = dens.truncation(BASIS6, t)
            levels.append((n_used, converged))
            cut = dens.SpectralBasis(CTX6, n_used)
            for f in (lambda b: ref.pZ_t(b, self.Z0, z_to, t),
                      lambda b: dens.tilde_pZ_t(CTX6, b, self.Z0, z_to, t)):
                assert f(cut) == f(BASIS6)
                if n_used > 0:
                    assert f(dens.SpectralBasis(CTX6, n_used - 1)) \
                        != f(BASIS6)
        assert levels[0] == (60, False) and levels[1][1] \
            and levels[2] == (0, True)

    def test_quasi_invariance(self):
        # integrating the tilted stationary law against the tilted kernel
        # reproduces the law scaled by exp(-alpha0 t)
        for bz, t in [((1.4, 1.9), 0.7), ((0.9, 1.2), 1.3)]:
            val = _grid_integral(
                lambda a, b: (dens.tilde_pZ_infty(CTX6, (a, b))
                              * dens.tilde_pZ_t(CTX6, BASIS6, (a, b), bz, t)),
                rtol=1e-9)
            target = np.exp(-CTX6.alpha0 * t) * dens.tilde_pZ_infty(CTX6, bz)
            assert abs(val - target) < 1e-6

    def test_sub_markov(self):
        for t in (0.3, 1.0, 3.0):
            val = _grid_integral(
                lambda a, b: dens.tilde_pZ_t(CTX6, BASIS6, self.Z0, (a, b),
                                             t), rtol=1e-9)
            assert val <= 1.0 + 1e-9

    def test_boundary_values_finite(self):
        assert dens.tilde_pZ_t(CTX6, BASIS6, self.Z0, (np.pi, 1.0), 0.5) == 0.0
        v = dens.tilde_pZ_t(CTX6, BASIS6, self.Z0, (1e-12, 1.0), 0.5)
        assert np.isfinite(v) and v > 0.0


class TestZConstant:
    def test_frozen_value_kappa6(self):
        # pinned by an independent 2000x2000 midpoint-rule computation
        # (Richardson-extrapolated) run before this module was written
        np.testing.assert_allclose(dens.Z_constant(CTX6), 2.0026679441,
                                   atol=5e-9)

    def test_exact_value_kappa4(self):
        np.testing.assert_allclose(dens.Z_constant(CTX4), 4.0, atol=1e-9)

    @pytest.mark.parametrize("kappa", [2.0, 4.0, 6.0, 7.5])
    def test_finite_positive(self, kappa):
        val = dens.Z_constant(KappaContext(kappa))
        assert np.isfinite(val) and val > 0.0

    def test_cached(self):
        ctx = KappaContext(5.5)
        assert dens.Z_constant(ctx) == dens.Z_constant(ctx)

    @pytest.mark.parametrize("kappa", [2.0, 6.0, 7.5])
    def test_tilde_infty_unit_mass(self, kappa):
        ctx = KappaContext(kappa)
        val = _grid_integral(
            lambda a, b: dens.tilde_pZ_infty(ctx, (a, b)), rtol=1e-10)
        assert abs(val - 1.0) < 1e-8

    def test_corner_values_zero(self):
        assert dens.tilde_pZ_infty(CTX6, (0.0, 0.0)) == 0.0
        assert dens.tilde_pZ_infty(CTX6, (np.pi, np.pi)) == 0.0
        assert dens.tilde_pZ_infty(CTX6, (0.0, np.pi)) == 0.0
        assert dens.tilde_pZ_infty(CTX6, (np.pi, 0.0)) == 0.0


def _direct_grid(ctx, z):
    """_pz_over_gu on meshgrid(z, z, indexing="ij"), evaluated row block by
    row block."""
    return np.vstack([dens._pz_over_gu(ctx, *np.meshgrid(z[i:i + 64], z,
                                                         indexing="ij"))
                      for i in range(0, z.size, 64)])


class TestPzGrid:
    """One grid of the tilted weight per kappa, shared by every level."""

    LEVELS = range(6)

    @pytest.mark.parametrize("kappa", [3.0, 6.0, 7.5])
    def test_grid_equals_direct_evaluation_in_any_order(
            self, kappa, monkeypatch, clear_kappa_caches):
        ctx = KappaContext(kappa)
        nodes = [np.pi * tanh_sinh_rule(level)[0] for level in self.LEVELS]
        direct = [_direct_grid(ctx, z) for z in nodes]
        distinct = np.unique(nodes[-1]).size
        pz_over_gu = dens._pz_over_gu
        pairs = []

        def counted(ctx, z1, z2):
            pairs.append(z1.size)
            return pz_over_gu(ctx, z1, z2)

        monkeypatch.setattr(dens, "_pz_over_gu", counted)
        for order in ([0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0], [2, 5, 0]):
            dens._values_of.cache_clear()
            pairs.clear()
            for level in order:
                got = dens.pz_over_gu_grid(ctx, nodes[level])
                assert np.array_equal(got, direct[level])
            # each distinct pair of node values once, in any order (the 0
            # and pi ends repeat within a level)
            assert sum(pairs) == distinct * (distinct + 1) // 2


    @pytest.mark.parametrize("kappa", [3.0, 6.0, 7.5])
    def test_gu_grid_equals_direct_evaluation_in_any_order(self, kappa):
        # the quasi-invariance kernel reads G_u from the same kind of grid:
        # each entry has the bits of G_u on the level's meshgrid
        ctx = KappaContext(kappa)
        nodes = [np.pi * tanh_sinh_rule(level)[0] for level in (0, 1, 2)]
        for level in (1, 0, 2, 1):
            direct = G_u(ctx, np.meshgrid(nodes[level], nodes[level],
                                          indexing="ij"))
            got = dens._node_grid(ctx, dens._gu, nodes[level])
            assert np.array_equal(got.view(np.int64), direct.view(np.int64))

    def test_grid_kernel_equals_tilde_pZ_t_on_the_meshgrid(self):
        z = np.pi * tanh_sinh_rule(1)[0]
        mesh = np.meshgrid(z, z, indexing="ij")
        for bz, t in [((1.4, 1.9), 0.7), ((0.9, 1.2), 1.3)]:
            got = dens._tilde_pZ_t_grid(CTX6, BASIS6, z, bz, t)
            want = dens.tilde_pZ_t(KappaContext(6.0), BASIS6, mesh, bz, t)
            assert got.tobytes() == want.tobytes()


class TestQuadraturePins:
    """Z_constant and the survival mode integrals at kappa 6, recorded
    again when F moved to the Taylor table and the Gamma function to
    Python's math module."""

    def test_z_constant_bits(self):
        ctx = KappaContext(6.0)
        assert dens.Z_constant(ctx).hex() == "0x1.00576c5657805p+1"
        report = dens.quadrature_report(ctx, dens.SpectralBasis(ctx, 2))
        assert report["Z_constant"]["level"] == 2
        assert report["Z_constant"]["converged"] is True
        assert report["survival"] is None

    def test_survival_integrals_bits(self):
        ctx = KappaContext(6.0)
        basis = dens.SpectralBasis(ctx, 60)
        dens.Z_constant(ctx)  # its levels 0-2 come first, as in density
        ints = dens._survival_integrals(ctx, basis, 4)
        assert [float(v).hex() for v in ints[:3]] == [
            "0x1.897b4d6c06a99p+1", "0x1.1af63287f0cc6p+0",
            "-0x1.b836d1456c9edp-52"]
        assert hashlib.sha256(ints.tobytes()).hexdigest() == (
            "c8fbdbddc0268d47b4b1c6055b68c18b4e5205aa60d7e87ae0d57bb4483236a2")
        survival = dens.quadrature_report(ctx, basis)["survival"]
        assert survival["level"] == 2 and survival["converged"] is True
        assert 0.0 <= survival["change"] <= 1e-10 * ints[0]

    def test_unsettled_survival_quadrature_is_reported(self, monkeypatch,
                                                       clear_kappa_caches):
        # a rule whose weights drift with the level never settles: the one
        # level loop reports it the same way for both of its callers
        nodes, weights = tanh_sinh_rule(1)
        monkeypatch.setattr(
            quadrature, "tanh_sinh_rule",
            lambda level: (nodes, weights * (1.0 + 1e-6 * level)))
        ctx = KappaContext(6.0)
        basis = dens.SpectralBasis(ctx, 4)
        dens.Z_constant(ctx)
        dens._survival_integrals(ctx, basis, 4)
        report = dens.quadrature_report(ctx, basis)
        for name in ("Z_constant", "survival"):
            assert report[name]["level"] == 6
            assert report[name]["converged"] is False
            assert report[name]["change"] > 1e-10

    def test_survival_cache_object_marks_cold_calls(self):
        # a cold survival_P2 replaces the basis's cache object, a warm one
        # keeps it: the benchmark tracer tells the two apart by identity
        ctx = KappaContext(6.0)
        basis = dens.SpectralBasis(ctx, 60)
        assert basis._survival_cache is None
        dens.survival_P2(ctx, basis, (1.1, 2.0), 2.0)
        cold = basis._survival_cache
        assert cold is not None
        dens.survival_P2(ctx, basis, (1.1, 2.0), 4.0)
        assert basis._survival_cache is cold
        # a time that needs more levels is cold again
        dens.survival_P2(ctx, basis, (1.1, 2.0), 0.5)
        assert basis._survival_cache is not cold

    @pytest.mark.parametrize("kappa", [1.1, 6.0, 7.9])
    def test_escalation_does_not_stop_early(self, kappa,
                                            level5_survival_integrals):
        # the level-0 start settles where a fixed level-5 tensor sum agrees
        ctx = KappaContext(kappa)
        for n_limit in (4, 14):
            basis = dens.SpectralBasis(ctx, n_limit)
            ints = dens._survival_integrals(ctx, basis, n_limit)
            ref = level5_survival_integrals(ctx, basis, n_limit)
            assert np.max(np.abs(ints - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestBasisOfAnotherKappa:
    """A context and a basis of different kappas are refused, not mixed
    (a kappa-3 survival on a kappa-6 basis gave 0.0404, where kappa 3
    gives 0.162 and kappa 6 gives 0.381)."""

    CTX3 = KappaContext(3.0)

    def test_tilde_pZ_t(self):
        with pytest.raises(ValueError, match="kappa"):
            dens.tilde_pZ_t(self.CTX3, BASIS6, (1.2, 1.9), (1.0, 2.0), 1.0)

    def test_survival_P2(self):
        with pytest.raises(ValueError, match="kappa"):
            dens.survival_P2(self.CTX3, BASIS6, (1.2, 1.9), 1.0)
        # an equal context of the basis's kappa is accepted
        assert dens.survival_P2(KappaContext(6), BASIS6, (1.2, 1.9),
                                1.0) == dens.survival_P2(CTX6, BASIS6,
                                                         (1.2, 1.9), 1.0)

    def test_quadrature_report(self):
        with pytest.raises(ValueError, match="kappa"):
            dens.quadrature_report(self.CTX3, BASIS6)


class TestSurvival:
    Z0 = (1.1, 2.0)

    def test_time_zero_and_domain(self):
        assert dens.survival_P2(CTX6, BASIS6, self.Z0, 0.0) == 1.0
        assert dens.truncation(BASIS6, 0.0) == (0, 0.0, True)
        # NaN fails the t >= 0 test too, before any series is scanned
        for t in (-0.5, math.nan):
            with pytest.raises(ValueError):
                dens.survival_P2(CTX6, BASIS6, self.Z0, t)
            with pytest.raises(ValueError):
                dens.truncation(BASIS6, t)

    def test_short_time_total_mass(self):
        assert abs(dens.survival_P2(CTX6, BASIS6, self.Z0, 0.01) - 1.0) < 0.02

    def test_matches_direct_quadrature(self):
        direct = _grid_integral(
            lambda a, b: dens.tilde_pZ_t(CTX6, BASIS6, self.Z0, (a, b), 1.5),
            rtol=1e-10)
        spectral = dens.survival_P2(CTX6, BASIS6, self.Z0, 1.5)
        assert abs(direct - spectral) < 1e-8

    @pytest.mark.parametrize("ctx,basis", [(CTX6, BASIS6), (CTX4, BASIS4)],
                             ids=["kappa6", "kappa4"])
    def test_log_slope_is_decay_exponent(self, ctx, basis):
        ts = np.linspace(4.0, 8.0, 9)
        logs = np.log([dens.survival_P2(ctx, basis, self.Z0, float(t))
                       for t in ts])
        slope = np.polyfit(ts, logs, 1)[0]
        assert abs(slope + ctx.alpha0) < 1e-4

    def test_asymptote_ratio_envelope(self):
        zc = dens.Z_constant(CTX6)
        gu = G_u(CTX6, self.Z0)
        for t in (2.0, 4.0, 6.0):
            s = dens.survival_P2(CTX6, BASIS6, self.Z0, t)
            ratio = s / (zc * gu * np.exp(-CTX6.alpha0 * t))
            assert abs(ratio - 1.0) <= np.exp(-CTX6.lambda_gap * t)

    def test_ratio_form_converges_uniformly(self):
        # tilde_pZ_t(z0,.)/survival approaches the tilted stationary law
        # at the spectral-gap rate, uniformly over an interior grid
        g = np.linspace(0.5, np.pi - 0.5, 6)
        m1, m2 = np.meshgrid(g, g, indexing="ij")
        target = dens.tilde_pZ_infty(CTX6, (m1, m2))

        def dev(t):
            num = dens.tilde_pZ_t(CTX6, BASIS6, self.Z0, (m1, m2), t)
            s = dens.survival_P2(CTX6, BASIS6, self.Z0, t)
            return np.max(np.abs(num / s - target))

        d3, d5, d7 = dev(3.0), dev(5.0), dev(7.0)
        gap = CTX6.lambda_gap
        assert d5 <= 3.0 * d3 * np.exp(-gap * 2.0)
        assert d7 <= 3.0 * d5 * np.exp(-gap * 2.0)


class TestMonteCarloAgreement:
    """Simulation cross-checks of the spectral objects."""

    Z0 = (1.2, 1.9)

    def test_weighted_survival_matches_spectral(self):
        t = 1.0
        ens = simulate_z_ensemble(CTX6, ZState(*self.Z0), t_max=t, dt=1e-3,
                                  n_paths=20000, master_seed=20260823)
        w = np.exp(ens.log_weight[0])
        est = float(np.mean(w))
        err = float(np.std(w) / np.sqrt(w.size))
        ref = dens.survival_P2(CTX6, BASIS6, self.Z0, t)
        assert abs(est - ref) <= 3.0 * err

    def test_weighted_histogram_matches_tilde_kernel(self):
        # per-bin comparison of the weighted endpoint measure against the
        # tilted kernel's bin masses at t=2
        t = 2.0
        n_paths = 30000
        ens = simulate_z_ensemble(CTX6, ZState(*self.Z0), t_max=t, dt=1e-3,
                                  n_paths=n_paths, master_seed=91)
        w = np.exp(ens.log_weight[0])
        z1, z2 = ens.z1[0], ens.z2[0]
        edges = np.linspace(0.8, 2.4, 5)
        # Gauss-Legendre tensor rule inside each bin for the exact masses
        nodes, wts = legendre.leggauss(24)
        fails = 0
        for i in range(4):
            for j in range(4):
                sel = ((z1 >= edges[i]) & (z1 < edges[i + 1])
                       & (z2 >= edges[j]) & (z2 < edges[j + 1]))
                contrib = w * sel
                est = float(np.mean(contrib))
                err = float(np.std(contrib) / np.sqrt(n_paths))
                ha = (edges[i + 1] - edges[i]) / 2.0
                hb = (edges[j + 1] - edges[j]) / 2.0
                ga = (edges[i] + edges[i + 1]) / 2.0 + ha * nodes
                gb = (edges[j] + edges[j + 1]) / 2.0 + hb * nodes
                m1, m2 = np.meshgrid(ga, gb, indexing="ij")
                vals = dens.tilde_pZ_t(CTX6, BASIS6, self.Z0, (m1, m2), t)
                exact = float(ha * hb * wts @ vals @ wts)
                if abs(est - exact) > 3.0 * err:
                    fails += 1
        assert fails == 0
