"""Quadrature rules used by the spectral-density layer.

Two rules are provided:

* a tensor rule on the unit disc against the invariant weight
  ``(1 - x^2 - y^2)^{8/kappa - 1}``: Gauss-Jacobi in the radial variable
  ``t = 2 r^2 - 1`` (exact for the polynomial-times-weight integrands the
  basis produces) times a periodic trapezoid rule in the angle;
* a tanh-sinh (double-exponential) tensor rule on ``(0, pi)^2`` with level
  doubling up to level 6, for integrands with fractional endpoint behavior.
"""
from __future__ import annotations

import numpy as np
from scipy.special import roots_jacobi

from .context import KappaContext

__all__ = [
    "disc_rule",
    "tanh_sinh_rule", "square_integrate",
]


def disc_rule(ctx: KappaContext, n_r: int, n_theta: int):
    """Nodes and weights for integrals of f(x, y) (1 - x^2 - y^2)^{8/k-1} dA.

    Returns:
        (x, y, w): flat arrays; sum(w * f(x, y)) approximates the integral,
        exactly when f is a polynomial produced by the eigenbasis with
        radial degree < 2 n_r and angular harmonics below n_theta / 2.
    """
    e = ctx.weight_exponent
    t, wt = roots_jacobi(n_r, e, 0.0)
    r = np.sqrt((1.0 + t) / 2.0)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    wr = wt * 0.25 * 0.5 ** e * (2.0 * np.pi / n_theta)
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    ww = np.repeat(wr, n_theta)
    return (rr.ravel() * np.cos(tt.ravel()),
            rr.ravel() * np.sin(tt.ravel()),
            ww)


def tanh_sinh_rule(level: int):
    """Double-exponential nodes/weights for integrals over (0, 1).

    Level l uses step h = 2^-(l+2); nodes cluster doubly-exponentially at
    both endpoints, so integrable endpoint singularities converge fast.
    """
    h = 0.5 ** (level + 2)
    # |tanh(pi/2 sinh(kh))| saturates at double precision near pi/2*sinh ~ 19
    k_max = int(np.ceil(np.arcsinh(2.0 * 19.0 / np.pi) / h))
    k = np.arange(-k_max, k_max + 1)
    u = np.pi / 2.0 * np.sinh(k * h)
    x = np.tanh(u)
    w = h * (np.pi / 2.0) * np.cosh(k * h) / np.cosh(u) ** 2
    keep = w > 1e-320
    # map from (-1, 1) to (0, 1)
    return (x[keep] + 1.0) / 2.0, w[keep] / 2.0


def square_integrate(func, rtol: float = 1e-10):
    """Tanh-sinh tensor integration of func over (0, pi)^2.

    func must accept meshgrid arrays (z1, z2) = meshgrid(z, z,
    indexing="ij") and is called once per level, from level 0 on.  Levels
    double until two successive results agree to rtol, or to level 6.

    Returns:
        (value, est_error): the last level and the last inter-level change.
    """
    prev = None
    err = np.inf
    for level in range(7):
        x, w = tanh_sinh_rule(level)
        z = x * np.pi
        wz = w * np.pi
        z1, z2 = np.meshgrid(z, z, indexing="ij")
        vals = func(z1, z2)
        val = float(wz @ vals @ wz)
        if prev is not None:
            err = abs(val - prev)
            if err <= rtol * max(abs(val), 1e-300):
                return val, err
        prev = val
    return prev, err
