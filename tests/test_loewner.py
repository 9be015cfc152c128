"""Tests for the radial Loewner flow solver.

Oracles: the closed-form constant-driver solution (radial slit with tip
law 4x/(1+x)^2 = e^{-t}), rotation equivariance, the exact semigroup
property of composed micro-step maps, and the backward flow
``_kernels.backward_flow``, which must pull forward images back to their
start points.
"""
import cmath
import math

import numpy as np
import pytest

from twocurve import _kernels

import loewner as lw

SMOOTH = lw.DrivingPath.from_function(
    lambda t: 0.4 * math.sin(2.0 * t) + 0.3 * t, 1.0, 1000)


class TestDrivingPath:
    def test_validation(self):
        with pytest.raises(ValueError, match="start at 0"):
            lw.DrivingPath([0.5, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="increasing"):
            lw.DrivingPath([0.0, 0.5, 0.5], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            lw.DrivingPath([0.0, 1.0], [0.0, math.nan])
        with pytest.raises(ValueError, match="speed"):
            lw.DrivingPath([0.0, 1.0], [0.0, 0.0], [-1.0])
        with pytest.raises(ValueError, match="per interval"):
            lw.DrivingPath([0.0, 1.0], [0.0, 0.0], [1.0, 1.0])

    def test_capacity(self):
        p = lw.DrivingPath([0.0, 1.0, 3.0], [0.0, 0.1, 0.2], [2.0, 0.5])
        assert p.total_capacity == pytest.approx(2.0 + 1.0)
        assert p.capacity_at(0.0) == 0.0
        assert p.capacity_at(1.0) == pytest.approx(2.0)
        assert p.capacity_at(2.0) == pytest.approx(2.5)
        # default speed is 1: capacity equals elapsed time
        q = lw.DrivingPath.constant(0.3, 2.0)
        assert q.capacity_at(1.7) == pytest.approx(1.7)

    def test_value_interpolation(self):
        p = lw.DrivingPath([0.0, 1.0, 2.0], [0.0, 2.0, 2.0])
        assert p.value_at(0.5) == pytest.approx(1.0)
        assert p.value_at(2.0) == pytest.approx(2.0)
        with pytest.raises(ValueError, match="outside"):
            p.value_at(2.5)

    def test_restarted(self):
        r = SMOOTH.restarted(0.5)
        assert r.times[0] == 0.0
        assert r.value_at(0.0) == pytest.approx(SMOOTH.value_at(0.5))
        assert r.total_capacity == pytest.approx(
            SMOOTH.total_capacity - SMOOTH.capacity_at(0.5))


class TestRadialFlow:
    def test_origin_fixed(self):
        res = lw.radial_flow(SMOOTH, [0.0], 0.9)
        assert res.images[0] == 0.0
        assert not res.swallowed[0]

    def test_origin_derivative_growth(self):
        # |g'(0)| = e^t in capacity parametrization; forward-difference
        # at eps = 1e-6 so the check tolerance is the FD truncation
        p = lw.DrivingPath.constant(0.0, 1.0, 10)
        eps = 1e-6
        res = lw.radial_flow(p, [eps], 0.7)
        assert abs(res.images[0]) / eps == pytest.approx(
            math.exp(0.7), rel=1e-5)

    def test_slit_tip_law(self):
        # constant driver at 0 grows the radial slit [x(t), 1] with
        # 4x/(1+x)^2 = e^{-t}
        x = lw.slit_tip_modulus(0.5)
        assert 4.0 * x / (1.0 + x) ** 2 == pytest.approx(
            math.exp(-0.5), abs=1e-15)
        assert lw.slit_tip_modulus(0.0) == 1.0

    def test_swallowing_classification(self):
        p = lw.DrivingPath.constant(0.0, 1.0, 10)
        x = lw.slit_tip_modulus(0.5)           # ~0.229
        res = lw.radial_flow(p, [x - 0.02, x + 0.02], 0.5)
        assert not res.swallowed[0]
        assert res.swallowed[1]
        # the swallowed point's exit time inverts the tip law
        x1 = x + 0.02
        t_exit = -math.log(4.0 * x1 / (1.0 + x1) ** 2)
        assert res.exit_times[1] == pytest.approx(t_exit, abs=1e-3)
        # the survivor of a real-axis start keeps a real image
        assert abs(res.images[0].imag) < 1e-12

    def test_rotation_equivariance(self):
        alpha = 0.7
        pts = np.array([0.3 + 0.2j, -0.4j, 0.5])
        shifted = lw.DrivingPath(SMOOTH.times, SMOOTH.values + alpha)
        a = lw.radial_flow(SMOOTH, pts, 0.6)
        b = lw.radial_flow(shifted, pts * cmath.exp(1j * alpha), 0.6)
        np.testing.assert_allclose(
            b.images, a.images * cmath.exp(1j * alpha), atol=1e-11)

    def test_semigroup(self):
        pts = [0.3 + 0.2j, -0.5j, 0.1, 0.2 - 0.6j]
        full = lw.radial_flow(SMOOTH, pts, 1.0)
        half = lw.radial_flow(SMOOTH, pts, 0.5)
        rest = lw.radial_flow(SMOOTH.restarted(0.5), half.images, 0.5)
        np.testing.assert_allclose(rest.images, full.images, atol=1e-8)

    def test_rejects_points_outside_disc(self):
        with pytest.raises(ValueError, match="closed disc"):
            lw.radial_flow(SMOOTH, [1.5], 0.1)

    def test_every_point_classified_once(self):
        p = lw.DrivingPath.constant(0.0, 1.0, 10)
        pts = np.linspace(0.05, 0.95, 19)
        res = lw.radial_flow(p, pts, 1.0)
        gone = res.swallowed
        assert np.all(np.isfinite(res.exit_times[gone]))
        assert np.all(np.isfinite(res.images[~gone]))
        assert res.n_swallowed == int(np.sum(pts > lw.slit_tip_modulus(1.0)))


class TestBackwardFlowOracle:
    def test_backward_flow_inverts_radial_flow(self):
        # push points forward through random-walk drivers, then pull the
        # unswallowed images back through the same micro-step drivers
        rng = np.random.default_rng(20261018)
        t, du = 0.5, 1e-3
        grid = np.linspace(0.0, t, 51)
        starts, images, rows = [], [], []
        for _ in range(20):
            steps = math.sqrt(6.0 * 0.01) * rng.standard_normal(50)
            path = lw.DrivingPath(grid, np.concatenate(([0.0],
                                                        np.cumsum(steps))))
            pts = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 30)) * np.exp(
                2j * math.pi * rng.uniform(0.0, 1.0, 30))
            res = lw.radial_flow(path, pts, t, dt_micro=du)
            keep = ~res.swallowed
            drivers = lw._micro_schedule(path, t, du)[0]
            starts.append(pts[keep])
            images.append(res.images[keep])
            rows += [drivers] * int(keep.sum())
        z0 = np.concatenate(starts)
        depth = 1.0 - np.abs(np.concatenate(images))
        y = np.concatenate(images)
        lengths = np.full(len(rows), len(rows[0]))
        _kernels.backward_flow(np.array(rows), lengths, du, y,
                               np.arange(len(rows)))
        err = np.abs(y - z0) / np.abs(z0)
        # the pullback magnifies the forward flow's rounding as an image
        # nears the circle, so 1e-10 holds at depth 1 - |g| >= 1e-4 only
        calm = depth >= 1e-4
        assert np.count_nonzero(calm) > 500
        assert np.max(err[calm]) <= 1e-10
        assert np.max(err) <= 1e-7


class TestCapacityAdditivity:
    def test_split_capacity(self):
        s = 0.5
        first = SMOOTH.capacity_at(s)
        rest = SMOOTH.restarted(s).total_capacity
        assert first + rest == pytest.approx(SMOOTH.total_capacity,
                                             abs=1e-12)
