"""Quadrature rules used by the spectral-density layer.

Two rules are provided:

* a tensor rule on the unit disc against the invariant weight
  ``(1 - x^2 - y^2)^{8/kappa - 1}``: Gauss-Jacobi in the radial variable
  ``t = 2 r^2 - 1`` (exact for the polynomial-times-weight integrands the
  basis produces) times a periodic trapezoid rule in the angle.  The
  Gauss-Jacobi nodes are the eigenvalues of the Jacobi matrix (Golub &
  Welsch, "Calculation of Gauss quadrature rules", Math. Comp. 23, 1969),
  polished by Newton's method on ``special.jacobi_seq``, with weights from
  the derivative formula; each rule is built once per kappa;
* a tanh-sinh (double-exponential) tensor rule on ``(0, pi)^2`` with level
  doubling up to level 6, for integrands with fractional endpoint behavior.
  ``square_integrate`` is the one loop over its levels: ``Z_constant``,
  the survival mode integrals and the quasi-invariance check all run
  through it, and stop on its one rule.
"""
from __future__ import annotations

import functools

import numpy as np

from .context import KappaContext
from .special import jacobi_seq

__all__ = [
    "disc_rule",
    "tanh_sinh_rule", "square_integrate",
]


def _gauss_jacobi(n: int, alpha: float):
    """n-point Gauss rule for integrals of f(t) (1 - t)^alpha over (-1, 1).

    Nodes: eigenvalues of the symmetric tridiagonal Jacobi matrix of the
    weight, then two Newton steps on P_n^(alpha, 0), whose derivative is
    (n + alpha + 1)/2 P_{n-1}^(alpha+1, 1).  Weights: the derivative
    formula 2^(alpha+1) / ((1 - t^2) P_n'(t)^2), whose Gamma-function
    factor is 1 when beta = 0.  Nodes ascend.
    """
    k = np.arange(1.0, n)
    diag = np.empty(n)
    diag[0] = -alpha / (alpha + 2.0)
    diag[1:] = -alpha * alpha / ((2.0 * k + alpha) * (2.0 * k + alpha + 2.0))
    off = 2.0 * k * (k + alpha) / ((2.0 * k + alpha)
                                   * np.sqrt((2.0 * k + alpha) ** 2 - 1.0))
    t = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))

    def derivative(t):
        *_, q = jacobi_seq(n - 1, alpha + 1.0, 1.0, t)
        return (n + alpha + 1.0) / 2.0 * q

    for _ in range(2):
        *_, p = jacobi_seq(n, alpha, 0.0, t)
        t = t - p / derivative(t)
    return t, 2.0 ** (alpha + 1.0) / ((1.0 - t * t) * derivative(t) ** 2)


@functools.cache
def disc_rule(ctx: KappaContext, n_r: int, n_theta: int):
    """Nodes and weights for integrals of f(x, y) (1 - x^2 - y^2)^{8/k-1} dA.

    The radial Gauss-Jacobi rule comes from Golub-Welsch nodes with a
    Newton polish (``_gauss_jacobi``).  Each (n_r, n_theta) rule is built
    once per kappa; the cached arrays are read-only.

    Returns:
        (x, y, w): flat arrays; sum(w * f(x, y)) approximates the integral,
        exactly when f is a polynomial produced by the eigenbasis with
        radial degree < 2 n_r and angular harmonics below n_theta / 2.
    """
    e = ctx.weight_exponent
    t, wt = _gauss_jacobi(n_r, e)
    r = np.sqrt((1.0 + t) / 2.0)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    wr = wt * 0.25 * 0.5 ** e * (2.0 * np.pi / n_theta)
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    ww = np.repeat(wr, n_theta)
    rule = (rr.ravel() * np.cos(tt.ravel()),
            rr.ravel() * np.sin(tt.ravel()),
            ww)
    for arr in rule:
        arr.flags.writeable = False
    return rule


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


def square_integrate(level_sum, rtol: float = 1e-10):
    """Tanh-sinh tensor integration over (0, pi)^2: the package's one
    level loop.

    level_sum(z, w) gets one level's nodes z and weights w on (0, pi),
    from level 0 on, and returns that level's tensor sum (a float, or an
    array of integrals that escalate together).  Halving the step keeps
    every node of the coarser level (Takahasi & Mori 1974), so a caller
    may keep what it evaluated there.  The loop stops once the largest
    change from the level before is at most rtol times the largest
    magnitude (floored at 1e-300), or after level 6.

    Returns:
        (value, report): the last level's sum, and {"level", "change",
        "converged"} with the last inter-level change.
    """
    prev = None
    for level in range(7):
        x, w = tanh_sinh_rule(level)
        val = level_sum(np.pi * x, np.pi * w)
        if prev is not None:
            change = float(np.max(np.abs(val - prev)))
            converged = change <= rtol * max(float(np.max(np.abs(val))),
                                             1e-300)
            if converged:
                break
        prev = val
    return val, {"level": level, "change": change, "converged": converged}
