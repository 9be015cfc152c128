"""Common-parametrization two-angle diffusion and importance weights.

When the two curves of the commuting pair are grown simultaneously under a
capacity parametrization shared between them, the pair of opening angles
``(Z_1, Z_2)`` -- the angular gaps between each curve's driving point and
its own target point -- becomes an autonomous diffusion on ``(0, pi)^2``:

    dZ_j = sqrt(kappa * sin Z_j / (sin Z_1 + sin Z_2)) dB_j
           + 4 cos Z_j / (sin Z_1 + sin Z_2) dt,

with independent Brownian motions B_1, B_2.  Each curve advances with speed
fraction ``sin Z_j / (sin Z_1 + sin Z_2)``; the fractions sum to one.

The transform x = cos((z1+z2)/2), y = sin((z1-z2)/2) maps the square into
the open unit disc (x^2 + y^2 = 1 - sin z1 sin z2 < 1) where the generator
is polynomial; the spectral machinery in :mod:`.density` lives there.

This diffusion is the dynamics under the *conditioned* two-curve measure.
Reweighting a path functional by the exponential of the importance
log-weight ``-alpha0*t + log G_u(start) - log G_u(end)`` (the
``log_weight`` of :func:`simulate_z_ensemble`) converts expectations under
it into expectations under the unconditioned two-curve law on the survival
event.

The step itself is ``_kernels.z_update``, the one implementation of the
update: :func:`simulate_z_ensemble` runs it through ``_kernels.z_evolve``
(compiled when the C library builds, with the same bits either way),
which also holds the one clamp-and-absorb rule.  The importance weights
stay in numpy: they follow ``G_u``'s array bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, _rng
from .context import KappaContext
from .green import G_u, _coord_arrays

PI = math.pi


@dataclass(frozen=True)
class ZState:
    """Pair of opening angles, each strictly inside (0, pi)."""

    z1: float
    z2: float

    def __post_init__(self) -> None:
        if not (0.0 < self.z1 < PI and 0.0 < self.z2 < PI):
            raise ValueError(
                f"ZState coordinates must lie in (0, pi); got "
                f"({self.z1}, {self.z2})")


def xy_of_z(z) -> tuple:
    """Map angles to the unit-disc chart: x=cos((z1+z2)/2), y=sin((z1-z2)/2).

    Accepts a :class:`ZState` or a pair of (broadcastable) arrays.
    """
    z1, z2 = _coord_arrays(z)
    return np.cos(0.5 * (z1 + z2)), np.sin(0.5 * (z1 - z2))


@dataclass
class ZPathEnsemble:
    """Batch of two-angle diffusion paths with snapshot states and weights.

    Attributes:
        record_times: times (multiples of dt) at which states were stored.
        z1, z2: arrays of shape (n_records, n_paths).
        log_weight: importance log-weights at each record time; ``-inf``
            for paths absorbed at or before that time (their contribution
            to any exp-weight average is zero), finite for survivors.
        absorbed: per-path flag, True if absorbed by ``t_max``.
        absorb_time: absorption time, ``nan`` for survivors.
    """

    record_times: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    log_weight: np.ndarray
    absorbed: np.ndarray
    absorb_time: np.ndarray


def time_steps(t: float, dt: float) -> int:
    """The number of steps of ``dt`` nearest to time ``t``: ValueError
    unless dt > 0 and t is 0 or more than half a step and below 2^62
    steps (NaN fails both)."""
    if not (dt > 0.0 and (t == 0.0 or 0.5 < t / dt < 2.0 ** 62)):
        raise ValueError(f"times must be 0 or more than half a step and "
                         f"fewer than 2^62 steps of dt > 0, got {t}, {dt}")
    return int(round(t / dt))


def simulate_z_ensemble(ctx: KappaContext, z0, t_max: float,
                        dt: float = 1e-3, n_paths: int = 1,
                        master_seed: int = 0, record_times=None,
                        path_start: int = 0) -> ZPathEnsemble:
    """Simulate independent two-angle diffusion paths from ``z0``.

    Path ``path_start + i`` draws from its own stream of ``master_seed``
    (the map of draws in :mod:`._rng`), so results are independent of
    batching: two invocations covering disjoint id ranges reproduce
    exactly the paths a single covering invocation would produce.

    Args:
        z0: starting state (ZState) of every path.
        t_max, record_times: the last time and the times in (0, t_max] to
            snapshot, in ascending order (default: [t_max]), each at its
            :func:`time_steps`.

    Returns:
        ZPathEnsemble with states, importance log-weights, and absorption
        data.  Absorption (exiting the open square) is a discretization
        artifact; absorbed paths are frozen at the boundary, flagged, and
        carry weight ``-inf`` from their absorption time on.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    n_steps = time_steps(t_max, dt)
    if record_times is None:
        record_times = [t_max]
    rec_steps = np.array([time_steps(t, dt) for t in record_times],
                         dtype=np.int64)
    if not (np.all(rec_steps >= 1) and np.all(rec_steps <= n_steps)
            and np.all(np.diff(rec_steps) >= 0)):
        raise ValueError("record times must ascend in (0, t_max]")

    streams = _rng.z_streams(master_seed,
                             range(path_start, path_start + n_paths))
    z1 = np.full(n_paths, z0.z1, dtype=float)
    z2 = np.full(n_paths, z0.z2, dtype=float)
    alive = np.ones(n_paths, dtype=bool)
    absorb_step = np.full(n_paths, -1, dtype=np.int64)
    m = rec_steps.shape[0]
    rec_z1 = np.empty((m, n_paths), dtype=float)
    rec_z2 = np.empty((m, n_paths), dtype=float)
    _kernels.z_evolve(z1, z2, alive, absorb_step, streams, 0, n_steps,
                      ctx.kappa, dt, rec_steps, rec_z1, rec_z2)

    times = rec_steps.astype(float) * dt
    # log G_u at the start, once per call: every path starts there.  It
    # goes in as an array, like the ends (numpy's scalar and vector powers
    # in G_u differ in the last bit), of one element, which has the bits
    # of each element of a longer one
    log_g0 = np.log(G_u(ctx, (np.array([z0.z1]), np.array([z0.z2]))))
    log_weight = np.full((m, n_paths), -np.inf)
    for ri in range(m):
        ok = (absorb_step < 0) | (absorb_step > rec_steps[ri])
        log_weight[ri, ok] = (-ctx.alpha0 * times[ri] + log_g0 - np.log(
            G_u(ctx, (rec_z1[ri, ok], rec_z2[ri, ok]))))
    absorb_time = np.where(absorb_step > 0, absorb_step * dt, np.nan)
    return ZPathEnsemble(record_times=times, z1=rec_z1, z2=rec_z2,
                         log_weight=log_weight, absorbed=~alive,
                         absorb_time=absorb_time)
