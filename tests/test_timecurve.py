"""Tests for the common-parametrization two-angle diffusion module."""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from twocurve import _kernels, _rng
from twocurve.context import KappaContext
from twocurve.green import G_u
from twocurve.timecurve import (
    ZState,
    simulate_z_ensemble,
    time_steps,
    xy_of_z,
)

from references import importance_log_weight, normal_pair, z_drift_diffusion

CTX6 = KappaContext(6.0)
PI = math.pi


def random_states(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.05, PI - 0.05, size=(n, 2))


class TestRandomStream:
    def test_uniforms_open_interval(self):
        s = _rng.derive_stream(2024, 0)
        u = np.array([_rng.uniform(s, i) for i in range(1000)])
        assert np.all(u > 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.05

    def test_scalar_and_array_agree_bitwise(self):
        master = 987654321
        ids = np.arange(17)
        streams = _rng.derive_stream_array(master, ids)
        for j in (0, 5, 16):
            assert int(streams[j]) == _rng.derive_stream(master, int(j))
        sv = np.full(9, streams[3], dtype=np.uint64)
        ua = _rng.uniform_array(sv, np.arange(9))
        for i in range(9):
            assert ua[i] == _rng.uniform(int(streams[3]), i)

    def test_normal_pairs_consistent(self):
        s = _rng.derive_stream(7, 3)
        g0, g1 = normal_pair(s, 11)
        a0, a1 = _rng.normal_pair_array(np.array([s], dtype=np.uint64), 11)
        assert g0 == a0[0] and g1 == a1[0]

    def test_normal_pairs_are_the_libm_box_muller(self):
        # both random kernels draw sqrt(-2 log u0) (cos, sin)(2 pi u1) in
        # libm; numpy's vector log differs from math.log in the last bit
        # for about 0.3% of these 10^5 counter pairs on an AVX-512 build
        s = _rng.derive_stream(2024, 5)
        k = np.arange(10 ** 5, dtype=np.uint64)
        u0 = _rng.uniform_array(s, 2 * k).tolist()
        u1 = _rng.uniform_array(s, 2 * k + 1).tolist()
        r = [math.sqrt(-2.0 * math.log(u)) for u in u0]
        want = ([ri * math.cos(2.0 * PI * u) for ri, u in zip(r, u1)],
                [ri * math.sin(2.0 * PI * u) for ri, u in zip(r, u1)])
        g0, g1 = _rng.normal_pair_array(np.uint64(s), k)
        assert (g0.tolist(), g1.tolist()) == want
        assert list(map(normal_pair, [s] * k.size,
                        k.tolist())) == list(zip(*want))

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(master=st.integers(0, 2**64 - 1),
           ids=st.lists(st.integers(0, 2**62), min_size=1, max_size=40),
           k=st.integers(0, 2**62 - 1))
    def test_scalar_and_array_draws_bit_equal(self, master, ids, k):
        # a draw must not depend on the batch it is drawn in
        streams = _rng.derive_stream_array(master, np.array(ids, np.uint64))
        ua = _rng.uniform_array(streams, 2 * k + 1)
        g0, g1 = _rng.normal_pair_array(streams, k)
        for j, sid in enumerate(streams.tolist()):
            assert sid == _rng.derive_stream(master, ids[j])
            assert ua[j] == _rng.uniform(sid, 2 * k + 1)
            assert (g0[j], g1[j]) == normal_pair(sid, k)

    def test_distinct_streams_differ(self):
        a = _rng.derive_stream(1, 0)
        b = _rng.derive_stream(1, 1)
        c = _rng.derive_stream(2, 0)
        assert len({a, b, c}) == 3


class TestZState:
    def test_valid(self):
        z = ZState(0.3, 3.0)
        assert z.z1 == 0.3 and z.z2 == 3.0

    @pytest.mark.parametrize("z1,z2", [(0.0, 1.0), (1.0, PI), (-0.1, 1.0),
                                       (1.0, 3.5), (PI, PI)])
    def test_invalid(self, z1, z2):
        with pytest.raises(ValueError):
            ZState(z1, z2)


def speed_fractions(ctx, z):
    """Each curve's capacity-speed fraction sin z_j / (sin z1 + sin z2),
    read off the SDE: sigma_j^2 = kappa * fraction_j."""
    _, _, s1, s2 = z_drift_diffusion(ctx, z.z1, z.z2)
    return s1 * s1 / ctx.kappa, s2 * s2 / ctx.kappa


class TestSpeedFraction:
    def test_symmetric_point(self):
        f1, f2 = speed_fractions(CTX6, ZState(PI / 2, PI / 2))
        assert_allclose([f1, f2], 0.5, rtol=1e-15)

    def test_hand_value(self):
        f1, f2 = speed_fractions(CTX6, ZState(PI / 2, PI / 6))
        assert_allclose(f1, 2.0 / 3.0, rtol=1e-15)
        assert_allclose(f2, 1.0 / 3.0, rtol=1e-15)

    def test_sum_to_one(self):
        for z1, z2 in random_states(50, 11):
            f1, f2 = speed_fractions(CTX6, ZState(z1, z2))
            assert abs(f1 + f2 - 1.0) < 1e-15


def exits(a, b) -> bool:
    """The absorption rule of ``z_evolve``: the step leaves (0, pi)^2."""
    return a <= 0.0 or a >= PI or b <= 0.0 or b >= PI


class TestZStep:
    """The two-angle step ``_kernels.z_update`` on single states."""

    def test_zero_noise_at_symmetric_point(self):
        a, b = _kernels.z_update(PI / 2, PI / 2, 0.0, 0.0, 6.0, 1e-3)
        assert abs(a - PI / 2) < 1e-15
        assert abs(b - PI / 2) < 1e-15

    def test_diffusion_coefficient_at_symmetric_point(self):
        for kappa in (2.0, 4.0, 6.0):
            ctx = KappaContext(kappa)
            _, _, s1, s2 = z_drift_diffusion(ctx, PI / 2, PI / 2)
            assert_allclose([s1, s2], math.sqrt(kappa / 2.0), rtol=1e-15)

    def test_absorption_flagged_and_clamped(self):
        # The positivity-completing correction protects the boundary layer,
        # so forcing an exit takes a mid-range state (where Z - tan Z is
        # order one) and an extreme deviate near the parabola vertex
        # N* = -sigma / (2 c sqrt(dt)).
        a, b = _kernels.z_update(0.8, 0.3, -10.0, 0.0, 6.0, 1e-2)
        assert a <= 0.0 and 0.0 < b < PI
        assert exits(a, b)

    def test_boundary_layer_protected(self):
        # From a near-boundary state no noise value exits: the update
        # completes the square (sqrt(Z) + sqrt(kappa dt / S) N / 2)^2 plus
        # a positive remainder (dt/S)(4 - kappa/4) for kappa < 16.
        for g in (-10.0, -8.0, -3.0, -1.0, 0.0, 1.0, 8.0, 10.0):
            a, b = _kernels.z_update(0.05, 1.0, g, 0.0, 6.0, 1e-2)
            assert not exits(a, b)

    def test_dt_validation(self):
        with pytest.raises(ValueError):
            simulate_z_ensemble(CTX6, ZState(1.0, 1.0), 1.0, dt=0.0)

    def test_one_step_moments_match_sde_coefficients(self):
        # weak-order check: the empirical mean and variance of one
        # z_evolve step over 10^6 independent paths match drift*dt and
        # diffusion^2*dt of the SDE
        n = 10 ** 6
        dt = 1e-3
        z1, z2 = 1.0, 2.2
        a, b, alive, *_ = evolve(CTX6.kappa, (z1, z2), dt, 1, n, 555)
        assert alive.all()
        mu1, mu2, s1, s2 = z_drift_diffusion(CTX6, z1, z2)
        for d, mu, sig in ((a - z1, mu1, s1), (b - z2, mu2, s2)):
            stderr = d.std(ddof=1) / math.sqrt(n)
            assert abs(d.mean() - mu * dt) < 4.0 * stderr
            var = d.var(ddof=1)
            assert abs(var - sig * sig * dt) < 5.0 * math.sqrt(2.0 / n) * var


def evolve(kappa, z0, dt, n_steps, n_paths, seed, path_start=0,
           rec_steps=()):
    """Run ``_kernels.z_evolve`` from ``z0`` (one start, or one per path)
    and return (z1, z2, alive, absorb_step, rec_z1, rec_z2)."""
    streams = _rng.derive_stream_array(
        seed, np.arange(path_start, path_start + n_paths))
    z1 = np.array(np.broadcast_to(np.asarray(z0[0], dtype=float), n_paths))
    z2 = np.array(np.broadcast_to(np.asarray(z0[1], dtype=float), n_paths))
    alive = np.ones(n_paths, dtype=bool)
    absorb_step = np.full(n_paths, -1, dtype=np.int64)
    rec_steps = np.array(rec_steps or [n_steps], dtype=np.int64)
    rec_z1 = np.empty((rec_steps.size, n_paths))
    rec_z2 = np.empty((rec_steps.size, n_paths))
    _kernels.z_evolve(z1, z2, alive, absorb_step, streams, 0, n_steps,
                      kappa, dt, rec_steps, rec_z1, rec_z2)
    return z1, z2, alive, absorb_step, rec_z1, rec_z2


class TestZEvolvePin:
    """Byte oracle of the two-angle step: any other implementation of
    ``z_evolve`` (a compiled port) must reproduce these digests."""

    @pytest.mark.parametrize(
        "kappa,z0,dt,n_steps,n_paths,seed,start,rec,n_absorbed,digest", [
            (3.0, (1.2, 1.9), 1e-3, 300, 64, 41, 0, (100, 300), 0,
             "1c950e2e3da8e38f3343025a727f5114"
             "dd3b2f13fdb569a94ce72c9ccfa965cd"),
            (6.0, (1.2, 1.9), 1e-3, 300, 64, 41, 0, (100, 300), 0,
             "13c4e5b20ffdb50c27a1d8cb6d240bd8"
             "7269fd12950f4c9789266543b608053c"),
            (7.5, (1.2, 1.9), 1e-3, 300, 64, 41, 0, (100, 300), 0,
             "f95ad9fe120524d0c848b05001ecb8a9"
             "e7af16877f511a4225c08237dbf09430"),
            # coarse dt from a near-corner start: a quarter of paths absorb
            (6.0, (0.12, 0.12), 1e-1, 5, 300, 17, 0, (2, 5), 75,
             "915a6f6096d84423ce9d08c23842a98a"
             "a11023290f4840002486615f48b0c482"),
            # paths 25..39 of a path_start split
            (6.0, (1.2, 2.0), 1e-3, 250, 15, 9, 25, (), 0,
             "5bcc228e842c5d03e8767ac6fdce4ada"
             "927b348f00d570f2340c0f80d5ddb27e"),
        ], ids=["k3", "k6", "k7.5", "absorbing", "path_start"])
    def test_pinned_bytes(self, kappa, z0, dt, n_steps, n_paths, seed, start,
                          rec, n_absorbed, digest):
        out = evolve(kappa, z0, dt, n_steps, n_paths, seed, start, rec)
        z1, z2, alive, absorb_step, rec_z1, rec_z2 = out
        assert int((~alive).sum()) == n_absorbed
        h = hashlib.sha256()
        for arr in (z1, z2, absorb_step, rec_z1, rec_z2):
            h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("kappa", [3.0, 6.0, 7.5])
    def test_z_update_reproduces_first_step(self, kappa):
        # z_update on one state, fed the normals z_evolve draws, then
        # clamped, lands on z_evolve's bits and absorbs where it does
        n, dt = 2000, 1e-3
        states = random_states(n, 31)
        z1, z2, alive, *_ = evolve(kappa, states.T, dt, 1, n, 8)
        streams = _rng.derive_stream_array(8, np.arange(n)).tolist()
        for i in range(n):
            g1, g2 = normal_pair(streams[i], 0)
            a, b = _kernels.z_update(*states[i], g1, g2, kappa, dt)
            assert exits(a, b) == (not alive[i])
            out = (min(max(a, 0.0), PI), min(max(b, 0.0), PI))
            assert out == (z1[i], z2[i])


class TestDiscTransform:
    def test_symmetric_point_maps_to_origin(self):
        x, y = xy_of_z(ZState(PI / 2, PI / 2))
        assert abs(x) < 1e-16 and abs(y) < 1e-16

    def test_round_trip(self):
        for z1, z2 in random_states(100, 5):
            x, y = xy_of_z(ZState(z1, z2))
            half_sum, half_diff = math.acos(x), math.asin(y)
            assert abs(half_sum + half_diff - z1) < 1e-14
            assert abs(half_sum - half_diff - z2) < 1e-14

    def test_radius_identity(self):
        for z1, z2 in random_states(100, 6):
            x, y = xy_of_z(ZState(z1, z2))
            assert abs(x * x + y * y - (1.0 - math.sin(z1) * math.sin(z2))) \
                < 1e-14


class TestDiscImageGenerator:
    """The (x, y) image of the two-angle diffusion satisfies linear-drift
    SDEs with polynomial coefficients; check the implied Ito coefficients
    algebraically at random states."""

    @pytest.mark.parametrize("kappa", [3.0, 4.0, 6.0, 7.5])
    def test_implied_xy_coefficients(self, kappa):
        ctx = KappaContext(kappa)
        lam = 2.0 + kappa / 8.0
        for z1, z2 in random_states(40, 77):
            mu1, mu2, s1, s2 = z_drift_diffusion(ctx, z1, z2)
            sp, dm = 0.5 * (z1 + z2), 0.5 * (z1 - z2)
            x, y = math.cos(sp), math.sin(dm)
            # first and second partials of x and y in (z1, z2)
            x1 = x2 = -0.5 * math.sin(sp)
            x11 = x22 = -0.25 * math.cos(sp)
            y1, y2 = 0.5 * math.cos(dm), -0.5 * math.cos(dm)
            y11 = y22 = -0.25 * math.sin(dm)
            mux = x1 * mu1 + x2 * mu2 + 0.5 * (x11 * s1 ** 2 + x22 * s2 ** 2)
            muy = y1 * mu1 + y2 * mu2 + 0.5 * (y11 * s1 ** 2 + y22 * s2 ** 2)
            varx = (x1 * s1) ** 2 + (x2 * s2) ** 2
            vary = (y1 * s1) ** 2 + (y2 * s2) ** 2
            cov = x1 * y1 * s1 ** 2 + x2 * y2 * s2 ** 2
            assert abs(mux - (-lam * x)) < 1e-12
            assert abs(muy - (-lam * y)) < 1e-12
            assert abs(varx - (kappa / 4.0) * (1.0 - x * x)) < 1e-12
            assert abs(vary - (kappa / 4.0) * (1.0 - y * y)) < 1e-12
            assert abs(cov - (-(kappa / 4.0) * x * y)) < 1e-12


class TestImportanceWeight:
    def test_zero_time(self):
        z = ZState(1.0, 2.0)
        assert importance_log_weight(CTX6, 0.0, z, z) == 0.0

    def test_same_endpoint_cancellation(self):
        z = ZState(0.7, 2.4)
        for t in (0.5, 2.0):
            assert_allclose(importance_log_weight(CTX6, t, z, z),
                            -CTX6.alpha0 * t, rtol=1e-14)

    def test_matches_direct_formula(self):
        za, zb = ZState(1.0, 1.4), ZState(2.0, 0.6)
        w = importance_log_weight(CTX6, 1.5, za, zb)
        direct = (-CTX6.alpha0 * 1.5 + math.log(G_u(CTX6, za))
                  - math.log(G_u(CTX6, zb)))
        assert_allclose(w, direct, rtol=1e-15)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            importance_log_weight(CTX6, -1.0, ZState(1, 1), ZState(1, 1))


class TestEnsemble:
    def test_same_seed_bit_identical(self):
        z0 = ZState(PI / 2, PI / 2)
        a = simulate_z_ensemble(CTX6, z0, 0.3, dt=1e-3, n_paths=64,
                                master_seed=5)
        b = simulate_z_ensemble(CTX6, z0, 0.3, dt=1e-3, n_paths=64,
                                master_seed=5)
        assert np.array_equal(a.z1, b.z1) and np.array_equal(a.z2, b.z2)
        assert np.array_equal(a.log_weight, b.log_weight)

    def test_split_runs_merge_exactly(self):
        z0 = ZState(1.2, 2.0)
        full = simulate_z_ensemble(CTX6, z0, 0.25, dt=1e-3, n_paths=40,
                                   master_seed=9)
        lo = simulate_z_ensemble(CTX6, z0, 0.25, dt=1e-3, n_paths=25,
                                 master_seed=9, path_start=0)
        hi = simulate_z_ensemble(CTX6, z0, 0.25, dt=1e-3, n_paths=15,
                                 master_seed=9, path_start=25)
        assert np.array_equal(full.z1[:, :25], lo.z1)
        assert np.array_equal(full.z1[:, 25:], hi.z1)
        assert np.array_equal(full.z2[:, 25:], hi.z2)

    def test_record_times_align_with_final_state(self):
        z0 = ZState(1.2, 2.0)
        multi = simulate_z_ensemble(CTX6, z0, 0.2, dt=1e-3, n_paths=16,
                                    master_seed=3, record_times=[0.1, 0.2])
        single = simulate_z_ensemble(CTX6, z0, 0.2, dt=1e-3, n_paths=16,
                                     master_seed=3)
        assert np.array_equal(multi.z1[1], single.z1[0])
        assert np.array_equal(multi.z2[1], single.z2[0])

    def test_descending_record_times_raise(self):
        # the one caller, the z-weighted estimator, passes them sorted
        z0 = ZState(1.0, 1.0)
        with pytest.raises(ValueError, match="ascend"):
            simulate_z_ensemble(CTX6, z0, 0.2, dt=1e-2, n_paths=8,
                                master_seed=2, record_times=[0.2, 0.1])
        ens = simulate_z_ensemble(CTX6, z0, 0.2, dt=1e-2, n_paths=8,
                                  master_seed=2, record_times=[0.1, 0.2])
        assert_allclose(ens.record_times, [0.1, 0.2])

    def test_absorbed_weights_are_minus_infinity(self):
        # a very coarse dt and a near-corner start overshoot the far
        # boundary (drift * dt is order one), forcing some absorptions
        z0 = ZState(0.12, 0.12)
        ens = simulate_z_ensemble(CTX6, z0, 0.5, dt=1e-1, n_paths=300,
                                  master_seed=17)
        assert ens.absorbed.any()
        dead = ens.absorbed
        assert np.all(np.isneginf(ens.log_weight[-1, dead]))
        assert np.all(np.isfinite(ens.log_weight[-1, ~dead]))
        assert np.all(ens.absorb_time[dead] > 0)
        assert np.all(np.isnan(ens.absorb_time[~dead]))

    def test_absorption_rare_and_nonincreasing_with_dt(self):
        # Absorption is a discretization artifact: the exact process never
        # exits.  A plain Euler step of this square-root diffusion would
        # absorb ~10% of paths per unit time at dt=1e-3 (the overshoot
        # probability at the vulnerable depth is O(1); only the occupation
        # of that layer shrinks, like dt^(1/3)).  The positivity-completing
        # correction removes the effect entirely at practical step sizes:
        # the absorbed fraction is zero at the default dt and cannot grow
        # when dt is halved.
        z0 = ZState(PI / 2, PI / 2)
        coarse = simulate_z_ensemble(CTX6, z0, 2.0, dt=2e-3, n_paths=4000,
                                     master_seed=23).absorbed.mean()
        fine = simulate_z_ensemble(CTX6, z0, 2.0, dt=1e-3, n_paths=4000,
                                   master_seed=29).absorbed.mean()
        assert coarse < 1e-3
        assert fine <= coarse

    def test_validation(self):
        z0 = ZState(1.0, 1.0)
        with pytest.raises(ValueError):
            simulate_z_ensemble(CTX6, z0, 0.0, n_paths=1)
        with pytest.raises(ValueError):
            simulate_z_ensemble(CTX6, z0, 1.0, n_paths=0)
        with pytest.raises(ValueError):
            simulate_z_ensemble(CTX6, z0, 1.0, dt=1e-3, n_paths=1,
                                record_times=[2.0])
        with pytest.raises(ValueError):
            simulate_z_ensemble(CTX6, z0, 1.0, dt=1e-3, n_paths=1,
                                record_times=[0.0])

    @pytest.mark.parametrize("t_max, dt, record_times", [
        (1e300, 1e-3, None), (math.nan, 1e-3, None), (math.inf, 1e-3, None),
        (1.0, math.nan, None), (1.0, math.inf, None), (1.0, 1e-320, None),
        (1.0, 1e-3, [math.nan]), (1.0, 1e-3, [-math.inf]),
        (1.0, 1e-3, [4e-4])])
    def test_step_counts_past_the_rule_raise_value_error(self, t_max, dt,
                                                         record_times):
        # times that round to no step, to more than 2^62 steps or to no
        # number raise ValueError before any draw, as the estimator's check
        with pytest.raises(ValueError, match="half a step"):
            simulate_z_ensemble(CTX6, ZState(1.0, 1.0), t_max, dt=dt,
                                n_paths=1, record_times=record_times)

    def test_time_steps(self):
        assert time_steps(0.0, 1e-3) == 0
        assert time_steps(5.1e-4, 1e-3) == 1
        assert time_steps(1.0, 1e-3) == 1000
        for t, dt in ((5e-4, 1e-3), (2.0 ** 62, 1.0), (-1.0, 1e-3),
                      (0.0, 0.0), (0.0, math.nan)):
            with pytest.raises(ValueError):
                time_steps(t, dt)
