"""Radial Loewner flow over discretized drivers.

A driving function is stored on a time grid with a per-interval speed
(capacity density).  ``radial_flow`` integrates the radial Loewner
equation dg = g (e^{iw}+g)/(e^{iw}-g) du in the unit disc by splitting
each grid interval into capacity micro-steps and applying the *exact*
single-slit map of each micro-step with the driver held at the
micro-interval midpoint.  For a constant driver the map satisfies the
invariant (1+g)^2 / g = e^{-u} (1+z)^2 / z, giving a quadratic per
micro-step.  Because micro-steps compose exactly, the semigroup property
holds to rounding error whenever the restart time lies on the grid.

A point is classified as swallowed when it comes within 10 times the
capacity micro-step of the driving singularity (matching the local
square-root size of one slit), or when its exact-step image leaves the
open disc; every input point ends up classified exactly once, and
failures near the singularity never abort a whole flow.

This forward flow is the independent oracle of the backward flow
``_kernels.backward_flow``, which the hit estimators use to probe
distances: pulling the image of a point back through the same micro-step
drivers must return the point.  No command runs it, so it lives with the
tests that use it (``test_loewner.py``, ``test_montecarlo.py``).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

#: points closer to the singularity than this multiple of the capacity
#: micro-step are classified as swallowed
SWALLOW_FACTOR = 10.0


@dataclass(frozen=True)
class DrivingPath:
    """Driving function on a strictly increasing time grid starting at 0.

    ``values[i]`` is the driver angle at ``times[i]`` (radians); between
    grid points the driver is interpolated linearly.  ``speed[i]`` is the
    constant capacity density du/dt on interval i, so the capacity of
    interval i is speed[i] * dt_i.
    """

    times: np.ndarray
    values: np.ndarray
    speed: np.ndarray = field(default=None)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        s = (np.ones(len(t) - 1) if self.speed is None
             else np.asarray(self.speed, dtype=float))
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "speed", s)
        if t.ndim != 1 or len(t) < 2:
            raise ValueError("need at least two grid times")
        if t[0] != 0.0:
            raise ValueError("time grid must start at 0")
        if not np.all(np.diff(t) > 0.0):
            raise ValueError("times must be strictly increasing")
        if v.shape != t.shape or not np.all(np.isfinite(v)):
            raise ValueError("values must be finite, one per grid time")
        if s.shape != (len(t) - 1,):
            raise ValueError("speed must have one entry per interval")
        if not np.all(s >= 0.0):
            raise ValueError("speed must be nonnegative")

    @classmethod
    def constant(cls, w: float, t_end: float, n: int = 100) -> "DrivingPath":
        grid = np.linspace(0.0, t_end, n + 1)
        return cls(grid, np.full(n + 1, float(w)))

    @classmethod
    def from_function(cls, fn, t_end: float, n: int = 1000) -> "DrivingPath":
        grid = np.linspace(0.0, t_end, n + 1)
        return cls(grid, np.array([fn(t) for t in grid], dtype=float))

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def total_capacity(self) -> float:
        return float(np.sum(self.speed * np.diff(self.times)))

    def capacity_at(self, t: float) -> float:
        """Capacity u(t) accumulated up to parameter time t."""
        self._check_time(t)
        dt = np.minimum(np.maximum(t - self.times[:-1], 0.0),
                        np.diff(self.times))
        return float(np.sum(self.speed * dt))

    def value_at(self, t: float) -> float:
        self._check_time(t)
        return float(np.interp(t, self.times, self.values))

    def restarted(self, s: float) -> "DrivingPath":
        """The driver seen from parameter time s (for semigroup checks)."""
        self._check_time(s)
        if s >= self.t_end:
            raise ValueError("restart time must be before the end")
        idx = int(np.searchsorted(self.times, s, side="right"))
        t = np.concatenate(([s], self.times[idx:])) - s
        v = np.concatenate(([self.value_at(s)], self.values[idx:]))
        sp = self.speed[idx - 1:]
        if t[1] == 0.0:
            t, v = t[1:], v[1:]
            sp = self.speed[idx:]
        return DrivingPath(t, v, sp)

    def _check_time(self, t: float) -> None:
        if not 0.0 <= t <= self.t_end + 1e-12:
            raise ValueError(f"time {t} outside the path range "
                             f"[0, {self.t_end}]")


@dataclass(frozen=True)
class FlowResult:
    """Classification of every input point after flowing to time t.

    Swallowed points carry their exit (parameter) time and a NaN image;
    survivors carry their image and a NaN exit time.
    """

    points: np.ndarray
    images: np.ndarray
    swallowed: np.ndarray
    exit_times: np.ndarray
    final_capacity: float

    def __post_init__(self):
        n = len(self.points)
        if not (len(self.images) == len(self.swallowed)
                == len(self.exit_times) == n):
            raise ValueError("inconsistent result arrays")
        # every point classified exactly once
        ok_alive = ~self.swallowed & np.isfinite(self.images)
        ok_gone = self.swallowed & np.isfinite(self.exit_times)
        if not np.all(ok_alive | ok_gone):
            raise ValueError("every point must be classified exactly once")

    @property
    def n_swallowed(self) -> int:
        return int(np.count_nonzero(self.swallowed))


def _micro_schedule(path: DrivingPath, t: float, dt_micro: float):
    """(driver, capacity, end-time) per micro-step covering [0, t]."""
    path._check_time(t)
    if dt_micro <= 0.0:
        raise ValueError("micro-step must be positive")
    w_out, du_out, te_out = [], [], []
    for i in range(len(path.speed)):
        t0, t1 = path.times[i], path.times[i + 1]
        if t0 >= t:
            break
        t1c = min(t1, t)
        cap = path.speed[i] * (t1c - t0)
        m = max(1, int(math.ceil(cap / dt_micro - 1e-12)))
        dt_loc = (t1c - t0) / m
        for k in range(m):
            mid = t0 + (k + 0.5) * dt_loc
            w_out.append(np.interp(mid, path.times, path.values))
            du_out.append(path.speed[i] * dt_loc)
            te_out.append(t0 + (k + 1) * dt_loc)
    return (np.asarray(w_out), np.asarray(du_out), np.asarray(te_out))


def _result(points, z, alive, exit_t, cap) -> FlowResult:
    images = np.where(alive, z, np.nan + 0j)
    return FlowResult(points=np.asarray(points, dtype=complex),
                      images=images, swallowed=~alive,
                      exit_times=np.where(alive, np.nan, exit_t),
                      final_capacity=float(cap))


def radial_flow(path: DrivingPath, points, t: float,
                dt_micro: float = 1e-4) -> FlowResult:
    """Flow points of the closed unit disc under the radial equation.

    The origin is a fixed point and always survives; its derivative
    growth e^{u(t)} is exact in this scheme because each micro-map has
    derivative e^{du} at 0.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    if np.any(np.abs(pts) > 1.0 + 1e-12):
        raise ValueError("radial flow points must lie in the closed disc")
    z = pts.copy()
    n = len(z)
    alive = np.ones(n, dtype=bool)
    exit_t = np.full(n, np.nan)
    at_origin = np.abs(pts) == 0.0
    band = SWALLOW_FACTOR * dt_micro
    w_arr, du_arr, te_arr = _micro_schedule(path, t, dt_micro)
    for w, du, te in zip(w_arr, du_arr, te_arr):
        act = alive & ~at_origin
        if not act.any():
            break
        e = cmath.exp(1j * w)
        za = z[act]
        hit = np.abs(za - e) < band
        if hit.any():
            idx = np.where(act)[0][hit]
            alive[idx] = False
            exit_t[idx] = te
            act = alive & ~at_origin
            za = z[act]
            if len(za) == 0:
                continue
        zeta = za * cmath.exp(-1j * w)
        c = math.exp(-du) * (1.0 + zeta) ** 2 / zeta
        bp = c - 2.0  # sum of the two roots
        disc = np.sqrt(c * (c - 4.0))
        # align the square root with bp so bp + disc never cancels; the
        # two roots multiply to 1, so the in-disc root is the exact
        # reciprocal of the stable large root
        disc = np.where((np.conj(bp) * disc).real >= 0.0, disc, -disc)
        big = 0.5 * (bp + disc)
        small = 1.0 / big
        interior = np.abs(za) < 1.0 - 1e-12
        pred = zeta + du * zeta * (1.0 + zeta) / (1.0 - zeta)
        on_circle = np.where(np.abs(big - pred) <= np.abs(small - pred),
                             big, small)
        new = np.where(interior, small, on_circle)
        # an interior point whose image reaches the unit circle was
        # captured by the exact slit of this micro-step
        bad = interior & (np.abs(new) >= 1.0 - 1e-9)
        z[act] = np.where(bad, za, new * cmath.exp(1j * w))
        if bad.any():
            idx = np.where(act)[0][bad]
            alive[idx] = False
            exit_t[idx] = te
    return _result(pts, z, alive, exit_t, path.capacity_at(t))


def slit_tip_modulus(t: float) -> float:
    """Inner endpoint x of the constant-driver radial slit at capacity t:
    the positive solution of 4x/(1+x)^2 = e^{-t}."""
    if t < 0.0:
        raise ValueError("capacity must be nonnegative")
    c = math.exp(-t)
    return (2.0 - c - 2.0 * math.sqrt(1.0 - c)) / c if t > 0.0 else 1.0
