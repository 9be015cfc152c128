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
Reweighting a path functional by ``exp(importance_log_weight)`` converts
expectations under it into expectations under the unconditioned two-curve
law on the survival event, with log-weight
``-alpha0*t + log G_u(start) - log G_u(end)``.

The step itself is ``_kernels.z_update``, the one implementation of the
update: :func:`simulate_z_ensemble` runs it through ``_kernels.z_evolve``
(compiled when the C library builds, with the same bits either way) and
:func:`z_step` applies it to one state with the caller's normals.  The
importance weights stay in numpy: they follow ``G_u``'s array bits.
:func:`z_drift_diffusion` states the SDE's coefficients as a reference for
tests of the step; no simulation reads it.
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


def z_drift_diffusion(ctx: KappaContext, z1, z2):
    """Drift and diffusion coefficients of the two-angle SDE.

    Returns:
        (mu1, mu2, sigma1, sigma2): per-coordinate drift and diffusion
        evaluated at (z1, z2); vectorized over array inputs.
    """
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    S = np.sin(z1) + np.sin(z2)
    mu1 = 4.0 * np.cos(z1) / S
    mu2 = 4.0 * np.cos(z2) / S
    sig1 = np.sqrt(ctx.kappa * np.sin(z1) / S)
    sig2 = np.sqrt(ctx.kappa * np.sin(z2) / S)
    return mu1, mu2, sig1, sig2


def z_step(ctx: KappaContext, z: ZState, dt: float, noise) -> tuple:
    """One time step of the two-angle diffusion: ``_kernels.z_update`` (the
    update ``z_evolve`` takes) applied to one state.

    Args:
        noise: pair of standard normals (dB_j = sqrt(dt) * noise_j).

    Returns:
        (state, absorbed): the new state and a flag; if the update exits
        [0, pi] in either coordinate -- a numerical overshoot of a boundary
        the continuous process almost surely never reaches -- the exiting
        coordinates are clamped to the boundary and ``absorbed`` is True
        (the clamped coordinate is then reported at the boundary value, so
        the returned object is a plain tuple rather than a ZState).
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    a, b = _kernels.z_update(z.z1, z.z2, noise[0], noise[1], ctx.kappa, dt)
    a, b = float(a), float(b)
    if a <= 0.0 or a >= PI or b <= 0.0 or b >= PI:
        return (min(max(a, 0.0), PI), min(max(b, 0.0), PI)), True
    return ZState(a, b), False


def importance_log_weight(ctx: KappaContext, t: float, z_start, z_end):
    """Log of the two-curve/conditioned-measure density ratio at time t.

    Returns -alpha0*t + log G_u(z_start) - log G_u(z_end).  The exponential
    of this quantity, averaged over paths of the conditioned diffusion,
    estimates the survival probability of the unconditioned pair beyond
    common time ``t``; per-path it is the density ratio on the survival
    event.  Vectorized over ``z_start`` and ``z_end`` given as coordinate
    arrays.
    """
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return (-ctx.alpha0 * t + np.log(G_u(ctx, z_start))
            - np.log(G_u(ctx, z_end)))


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


def simulate_z_ensemble(ctx: KappaContext, z0, t_max: float,
                        dt: float = 1e-3, n_paths: int = 1,
                        master_seed: int = 0, record_times=None,
                        path_start: int = 0) -> ZPathEnsemble:
    """Simulate independent two-angle diffusion paths from ``z0``.

    Path ``path_start + i`` draws from the stream derived from
    (master_seed, path id), so results are independent of batching: two
    invocations covering disjoint id ranges reproduce exactly the paths a
    single covering invocation would produce.

    Args:
        z0: starting state (ZState) of every path.
        record_times: times in (0, t_max] to snapshot (default: [t_max]);
            each is rounded to the nearest step.

    Returns:
        ZPathEnsemble with states, importance log-weights, and absorption
        data.  Absorption (exiting the open square) is a discretization
        artifact; absorbed paths are frozen at the boundary, flagged, and
        carry weight ``-inf`` from their absorption time on.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if t_max <= 0.0 or dt <= 0.0:
        raise ValueError(f"t_max and dt must be positive, got {t_max}, {dt}")
    if record_times is None:
        record_times = [t_max]
    rec_steps = np.array([int(round(t / dt)) for t in record_times],
                         dtype=np.int64)
    if np.any(rec_steps < 1):
        raise ValueError("record times must be at least one step")
    order = np.argsort(rec_steps, kind="stable")
    rec_steps = rec_steps[order]
    n_steps = int(round(t_max / dt))
    if rec_steps[-1] > n_steps:
        raise ValueError("record times must not exceed t_max")

    ids = np.arange(path_start, path_start + n_paths, dtype=np.int64)
    streams = _rng.derive_stream_array(master_seed, ids)
    z1 = np.full(n_paths, z0.z1, dtype=float)
    z2 = np.full(n_paths, z0.z2, dtype=float)
    start1, start2 = z1.copy(), z2.copy()
    alive = np.ones(n_paths, dtype=bool)
    absorb_step = np.full(n_paths, -1, dtype=np.int64)
    m = rec_steps.shape[0]
    rec_z1 = np.empty((m, n_paths), dtype=float)
    rec_z2 = np.empty((m, n_paths), dtype=float)
    _kernels.z_evolve(z1, z2, alive, absorb_step, streams, 0, n_steps,
                      ctx.kappa, dt, rec_steps, rec_z1, rec_z2)

    times = rec_steps.astype(float) * dt
    log_weight = np.full((m, n_paths), -np.inf)
    for ri in range(m):
        ok = (absorb_step < 0) | (absorb_step > rec_steps[ri])
        # the start goes in as arrays, like the ends: numpy's scalar and
        # vector powers in G_u differ in the last bit
        log_weight[ri, ok] = importance_log_weight(
            ctx, times[ri], (start1[ok], start2[ok]),
            (rec_z1[ri, ok], rec_z2[ri, ok]))
    # undo the record-time sort so outputs align with the caller's order
    inverse = np.argsort(order, kind="stable")
    absorb_time = np.where(absorb_step > 0, absorb_step * dt, np.nan)
    return ZPathEnsemble(
        record_times=times[inverse],
        z1=rec_z1[inverse], z2=rec_z2[inverse],
        log_weight=log_weight[inverse],
        absorbed=~alive, absorb_time=absorb_time)
