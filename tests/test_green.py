"""Tests for the closed-form Green's function evaluators."""
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twocurve import KappaContext
from twocurve.green import (
    BoundaryConfig, G_quad, G_u, cross_ratio_of_config,
)

from references import greens_disc

PI = np.pi

# mpmath: (1/2)^(8/kappa - 1) / F(1/2), the symmetric-configuration value
G_SYM = {4.0: 0.5, 6.0: 0.71317412781265986}


def random_config(rng):
    """Random valid boundary configuration with gaps bounded below."""
    while True:
        gaps = rng.uniform(0.15, 1.0, size=4)
        gaps *= 2.0 * PI / gaps.sum()
        w1 = rng.uniform(-PI, PI)
        v1 = w1 - gaps[0]
        w2 = v1 - gaps[1]
        v2 = w2 - gaps[2]
        if v2 > w1 - 2.0 * PI + 1e-9:
            return BoundaryConfig(w1, v1, w2, v2)


class TestExponents:
    def test_values(self):
        npt.assert_allclose(KappaContext(6.0).alpha0, 1.25, rtol=0)
        npt.assert_allclose(KappaContext(4.0).alpha0, 2.0, rtol=0)
        npt.assert_allclose(KappaContext(6.0).beta0, 11.0 / 15.0, rtol=1e-15)


class TestBoundaryConfig:
    def test_ordering_enforced(self):
        BoundaryConfig(3 * PI / 4, PI / 4, -PI / 4, -3 * PI / 4)
        with pytest.raises(ValueError):
            BoundaryConfig(PI / 4, 3 * PI / 4, -PI / 4, -3 * PI / 4)
        with pytest.raises(ValueError):
            BoundaryConfig(3 * PI / 4, PI / 4, -PI / 4, 3 * PI / 4 - 2 * PI)


class TestGQuad:
    @pytest.mark.parametrize("kappa", [4.0, 6.0])
    def test_symmetric_frozen(self, kappa):
        cfg = BoundaryConfig(3 * PI / 4, PI / 4, -PI / 4, -3 * PI / 4)
        npt.assert_allclose(cross_ratio_of_config(cfg), 0.5, rtol=1e-14)
        npt.assert_allclose(G_quad(KappaContext(kappa), cfg), G_SYM[kappa],
                            rtol=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        ctx = KappaContext(6.0)
        for _ in range(25):
            cfg = random_config(rng)
            base = G_quad(ctx, cfg)
            s = rng.uniform(-3.0, 3.0)
            shifted = BoundaryConfig(cfg.w1 + s, cfg.v1 + s,
                                     cfg.w2 + s, cfg.v2 + s)
            npt.assert_allclose(G_quad(ctx, shifted), base, rtol=1e-12)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(5)
        for kappa in (3.0, 6.0):
            ctx = KappaContext(kappa)
            for _ in range(20):
                cfg = random_config(rng)
                swapped = BoundaryConfig(cfg.w2 + 2 * PI, cfg.v2 + 2 * PI,
                                         cfg.w1, cfg.v1)
                npt.assert_allclose(G_quad(ctx, swapped), G_quad(ctx, cfg),
                                    rtol=1e-12)


class TestGU:
    def test_matches_quad_at_matched_config(self):
        # G_u(z1, z2) equals G_quad at (w1, v1, w2, v2) = (z1, 0, z2-pi, -pi)
        rng = np.random.default_rng(9)
        for kappa in (3.0, 4.0, 6.0, 7.5):
            ctx = KappaContext(kappa)
            for _ in range(20):
                z1, z2 = rng.uniform(0.1, PI - 0.1, size=2)
                cfg = BoundaryConfig(z1, 0.0, z2 - PI, -PI)
                npt.assert_allclose(G_u(ctx, (z1, z2)), G_quad(ctx, cfg),
                                    rtol=1e-12)

    def test_symmetric_frozen(self):
        npt.assert_allclose(G_u(KappaContext(6.0), (PI / 2, PI / 2)),
                            G_SYM[6.0], rtol=1e-12)

    def test_vanishes_at_edge(self):
        ctx = KappaContext(6.0)
        vals = G_u(ctx, (np.array([1e-2, 1e-4, 1e-6]),
                         np.array([1.0, 1.0, 1.0])))
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 1e-2

    def test_accepts_state_like(self):
        class S:
            z1 = 1.0
            z2 = 2.0
        ctx = KappaContext(6.0)
        npt.assert_allclose(G_u(ctx, S()), G_u(ctx, (1.0, 2.0)), rtol=0)

    def test_rejects_a_scalar_point_outside_the_square(self):
        # the formula is pi-periodic in z1 - z2 and would return 0.1013
        with pytest.raises(ValueError, match=r"\[0, pi\]"):
            G_u(KappaContext(3.0), (3.2, 1.0))

    @pytest.mark.parametrize("bad", [-0.1, np.nan])
    def test_rejects_an_array_point_outside_the_square(self, bad):
        # not nan (with a RuntimeWarning for -0.1): an error, with no
        # warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"\[0, pi\]"):
                G_u(KappaContext(6.0), (np.array([0.5, bad]),
                                        np.array([1.0, 1.0])))

    def test_accepts_the_closed_square(self):
        ctx = KappaContext(6.0)
        vals = G_u(ctx, (np.array([0.0, PI, 1.0]), np.array([1.0, 1.0, PI])))
        assert vals[0] == 0.0 and vals[1] == vals[2] > 0.0


class TestGreensDisc:
    def test_center_equals_quad(self):
        rng = np.random.default_rng(13)
        for kappa in (3.0, 4.0, 6.0, 7.5):
            ctx = KappaContext(kappa)
            for _ in range(15):
                cfg = random_config(rng)
                val = greens_disc(ctx, 0.0, cfg.w1, cfg.v1, cfg.w2, cfg.v2)
                npt.assert_allclose(val, G_quad(ctx, cfg), rtol=1e-12)

    def test_accepts_complex_boundary_points(self):
        ctx = KappaContext(6.0)
        cfg = BoundaryConfig(3 * PI / 4, PI / 4, -PI / 4, -3 * PI / 4)
        pts = [np.exp(1j * a) for a in (cfg.w1, cfg.v1, cfg.w2, cfg.v2)]
        npt.assert_allclose(greens_disc(ctx, 0.1 + 0.2j, *pts),
                            greens_disc(ctx, 0.1 + 0.2j, cfg.w1, cfg.v1,
                                        cfg.w2, cfg.v2), rtol=1e-14)

    def test_mobius_covariance(self):
        rng = np.random.default_rng(17)
        ctx = KappaContext(6.0)
        for _ in range(20):
            cfg = random_config(rng)
            z0 = rng.uniform(0.0, 0.7) * np.exp(1j * rng.uniform(0, 2 * PI))
            p = rng.uniform(0.0, 0.6) * np.exp(1j * rng.uniform(0, 2 * PI))
            phi = rng.uniform(0, 2 * PI)

            def T(z):
                return np.exp(1j * phi) * (z - p) / (1.0 - np.conj(p) * z)

            pts = [np.exp(1j * a) for a in (cfg.w1, cfg.v1, cfg.w2, cfg.v2)]
            base = greens_disc(ctx, z0, *pts)
            dT = (1.0 - abs(p) ** 2) / abs(1.0 - np.conj(p) * z0) ** 2
            moved = greens_disc(ctx, T(z0), *[T(q) for q in pts])
            npt.assert_allclose(moved * dT ** ctx.alpha0, base, rtol=1e-10)

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(kappa=st.floats(0.5, 7.9),
           gaps=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
           w1=st.floats(-PI, PI),
           moduli=st.lists(st.floats(0.0, 0.7), min_size=2, max_size=2),
           angles=st.lists(st.floats(0.0, 2 * PI), min_size=3, max_size=3))
    def test_center_value_and_covariance_property(self, kappa, gaps, w1,
                                                  moduli, angles):
        # over random valid configurations (every gap at least 2% of a
        # quarter turn): the disc evaluator at the centre is G_quad, the
        # scale of every C0 cell, and moving z0 and the marked points by a
        # disc automorphism T scales it by |T'(z0)|^(-alpha0)
        ctx = KappaContext(kappa)
        floor = 0.02 * 2.0 * PI / 4.0
        g = np.array(gaps) + 1e-3
        g = floor + (2.0 * PI - 4.0 * floor) * g / g.sum()
        angs = w1 - np.cumsum([0.0, *g[:3]])
        npt.assert_allclose(greens_disc(ctx, 0.0, *angs),
                            G_quad(ctx, BoundaryConfig(*angs)), rtol=1e-11)
        z0, p = (m * np.exp(1j * a) for m, a in zip(moduli, angles))

        def T(z):
            return np.exp(1j * angles[2]) * (z - p) / (1.0 - np.conj(p) * z)

        pts = np.exp(1j * angs)
        dT = (1.0 - abs(p) ** 2) / abs(1.0 - np.conj(p) * z0) ** 2
        npt.assert_allclose(
            greens_disc(ctx, T(z0), *T(pts)) * dT ** ctx.alpha0,
            greens_disc(ctx, z0, *pts), rtol=1e-11)

    def test_cross_ratio_pairing_ratio_constant(self):
        # Ratio of the two admissible pairings does not depend on z0.
        ctx = KappaContext(6.0)
        cfg = BoundaryConfig(2.2, 0.9, -0.4, -2.0)
        a1, b1, a2, b2 = cfg.w1, cfg.v1, cfg.w2, cfg.v2
        ratios = []
        for rad in (0.0, 0.2, 0.5, 0.8):
            for ang in np.linspace(0, 2 * PI, 7, endpoint=False):
                z0 = rad * np.exp(1j * ang)
                ratios.append(greens_disc(ctx, z0, a1, b2, a2, b1)
                              / greens_disc(ctx, z0, a1, b1, a2, b2))
        ratios = np.array(ratios)
        assert ratios.max() - ratios.min() < 1e-9 * abs(ratios.mean())

    def test_distance_bound(self):
        # greens_disc <= C * dist(z0, circle)^(-alpha0), C from a grid sweep.
        ctx = KappaContext(6.0)
        cfg = BoundaryConfig(3 * PI / 4, PI / 4, -PI / 4, -3 * PI / 4)
        pts = (cfg.w1, cfg.v1, cfg.w2, cfg.v2)

        def sweep(radii, n_ang):
            vals = []
            for rad in radii:
                for ang in np.linspace(0, 2 * PI, n_ang, endpoint=False):
                    z0 = rad * np.exp(1j * ang)
                    vals.append(greens_disc(ctx, z0, *pts)
                                * (1.0 - rad) ** ctx.alpha0)
            return np.array(vals)

        C = sweep(np.linspace(0.0, 0.95, 20), 8).max()
        dense = sweep(np.linspace(0.0, 0.97, 57), 23)
        assert np.all(dense <= 1.2 * C)

    def test_domain_errors(self):
        ctx = KappaContext(6.0)
        cfg = BoundaryConfig(3 * PI / 4, PI / 4, -PI / 4, -3 * PI / 4)
        with pytest.raises(ValueError):
            greens_disc(ctx, 1.0 + 0j, cfg.w1, cfg.v1, cfg.w2, cfg.v2)
        with pytest.raises(ValueError):
            greens_disc(ctx, 0.0, cfg.w1, cfg.w1, cfg.w2, cfg.v2)
        with pytest.raises(ValueError):
            # b1, b2 adjacent: a1, a2 do not separate them
            greens_disc(ctx, 0.0, 2.5, 1.0, 2.0, 0.5)
        with pytest.raises(ValueError, match="off the unit circle"):
            # a complex marked point inside the disc, not on its boundary
            greens_disc(ctx, 0.0, 0.5 * np.exp(1j * cfg.w1), cfg.v1, cfg.w2,
                        cfg.v2)
