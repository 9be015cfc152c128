"""Closed-form two-curve Green's function evaluators.

Provides the four-marked-point boundary form G_quad and its cross-ratio,
the diagonal specialization G_u on the gap variables, and the general
unit-disc evaluator greens_disc obtained by Mobius-normalizing the
observation point to the origin.  The decay exponents alpha0/beta0 are
``KappaContext`` properties.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .context import KappaContext
from .special import hyp_F
from .trig import cos2, sin2

__all__ = [
    "BoundaryConfig", "cross_ratio_of_config", "G_quad", "G_u", "greens_disc",
]


@dataclass(frozen=True)
class BoundaryConfig:
    """Four marked boundary angles with the alternating link ordering.

    Invariant: w1 > v1 > w2 > v2 > w1 - 2*pi (strict).
    """

    w1: float
    v1: float
    w2: float
    v2: float

    def __post_init__(self):
        w1, v1, w2, v2 = (float(self.w1), float(self.v1),
                          float(self.w2), float(self.v2))
        if not (w1 > v1 > w2 > v2 > w1 - 2.0 * np.pi):
            raise ValueError(
                "BoundaryConfig requires w1 > v1 > w2 > v2 > w1 - 2*pi, got "
                f"({w1}, {v1}, {w2}, {v2})")
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "v2", v2)


def cross_ratio_of_config(cfg: BoundaryConfig) -> float:
    """R = sin2(w1-v2) sin2(v1-w2) / (sin2(w1-w2) sin2(v1-v2)), in (0, 1)."""
    return float(_cross_ratio(cfg.w1, cfg.v1, cfg.w2, cfg.v2))


def _cross_ratio(w1, v1, w2, v2):
    """The cross-ratio of ``cross_ratio_of_config``, elementwise on floats
    or same-shape arrays of angles."""
    num = sin2(w1 - v2) * sin2(v1 - w2)
    den = sin2(w1 - w2) * sin2(v1 - v2)
    return num / den


def G_quad(ctx: KappaContext, cfg: BoundaryConfig) -> float:
    """Boundary Green's function of the four marked angles.

    G = [sin2(w1-v1) sin2(w2-v2)]^{8/k-1} [sin2(w1-w2) sin2(v1-v2)]^{4/k}
        / F(R).
    """
    e = ctx.weight_exponent
    k = ctx.kappa
    own = sin2(cfg.w1 - cfg.v1) * sin2(cfg.w2 - cfg.v2)
    cross = sin2(cfg.w1 - cfg.w2) * sin2(cfg.v1 - cfg.v2)
    R = cross_ratio_of_config(cfg)
    return float(own ** e * cross ** (4.0 / k) / hyp_F(ctx, R))


def _coord_arrays(z):
    """A ZState-like object (z1, z2 attributes) or a pair as float arrays."""
    z1 = getattr(z, "z1", None)
    if z1 is not None:
        return np.asarray(z.z1, dtype=float), np.asarray(z.z2, dtype=float)
    z1, z2 = z
    return np.asarray(z1, dtype=float), np.asarray(z2, dtype=float)


def G_u(ctx: KappaContext, z):
    """Diagonal Green's function on gap variables (z1, z2) in (0, pi)^2.

    G^u = [sin2(z1) sin2(z2)]^{8/k-1} cos2(z1-z2)^{4/k}
          / F(cos2(z1) cos2(z2) / cos2(z1-z2)).

    Accepts a ZState-like object with z1/z2 attributes or a (z1, z2) pair
    of scalars or same-shape arrays.
    """
    z1, z2 = _coord_arrays(z)
    e = ctx.weight_exponent
    k = ctx.kappa
    # R lies in (0, 1] analytically; clip roundoff overshoot at the corners
    R = np.minimum(cos2(z1) * cos2(z2) / cos2(z1 - z2), 1.0)
    val = ((sin2(z1) * sin2(z2)) ** e * cos2(z1 - z2) ** (4.0 / k)
           / hyp_F(ctx, R))
    return float(val) if np.ndim(val) == 0 else val


def _as_angle(p) -> float:
    """Boundary point to angle: complex points on the circle are converted."""
    if np.iscomplexobj(p):
        return float(np.angle(p))
    return float(p)


def _separated(a1: float, b1: float, a2: float, b2: float) -> bool:
    """True when {a1, a2} separates {b1, b2} on the circle."""
    two_pi = 2.0 * np.pi
    cut1 = (b1 - a1) % two_pi
    cut2 = (b2 - a1) % two_pi
    mid = (a2 - a1) % two_pi
    if 0.0 in (cut1, cut2, mid):
        return False
    return (cut1 < mid) != (cut2 < mid)


def greens_disc(ctx: KappaContext, z0: complex, a1, b1, a2, b2) -> float:
    """General unit-disc Green's function at interior point z0.

    The disc automorphism f(z) = (z - z0)/(1 - conj(z0) z) has
    f'(z0) = (1 - |z0|^2)^{-1} > 0 (only moduli enter, so no extra phase is
    needed).  The value is

        4^{1 - 12/k} |f'(z0)|^{alpha0} |f(a1)-f(b1)|^{8/k-1}
        |f(a2)-f(b2)|^{8/k-1} |f(a1)-f(a2)|^{4/k} |f(b1)-f(b2)|^{4/k}
        / F(R),   R = |f(a1)-f(b2)| |f(b1)-f(a2)| /
                      (|f(a1)-f(a2)| |f(b1)-f(b2)|).

    Boundary points may be given as angles or as complex points on the
    circle.

    Raises:
        ValueError: z0 outside the open disc, coincident marked points, or
            {a1, a2} failing to separate {b1, b2}.
    """
    z0 = complex(z0)
    if abs(z0) >= 1.0:
        raise ValueError("z0 must lie in the open unit disc")
    ang = [_as_angle(p) for p in (a1, b1, a2, b2)]
    pts = np.exp(1j * np.array(ang))
    for i in range(4):
        for j in range(i + 1, 4):
            if abs(pts[i] - pts[j]) < 1e-14:
                raise ValueError("degenerate marked points")
    if not _separated(*ang):
        raise ValueError("a1, a2 must separate b1 from b2 on the circle")

    f = (pts - z0) / (1.0 - np.conj(z0) * pts)
    fa1, fb1, fa2, fb2 = f
    dfz0 = 1.0 / (1.0 - abs(z0) ** 2)
    k = ctx.kappa
    e = ctx.weight_exponent
    d_own1 = abs(fa1 - fb1)
    d_own2 = abs(fa2 - fb2)
    d_aa = abs(fa1 - fa2)
    d_bb = abs(fb1 - fb2)
    # Ptolemy guarantees R < 1 for separated concyclic points; clip roundoff
    R = min(abs(fa1 - fb2) * abs(fb1 - fa2) / (d_aa * d_bb), 1.0)
    return float(4.0 ** (1.0 - 12.0 / k) * dfz0 ** ctx.alpha0
                 * d_own1 ** e * d_own2 ** e * d_aa ** (4.0 / k)
                 * d_bb ** (4.0 / k) / hyp_F(ctx, R))
