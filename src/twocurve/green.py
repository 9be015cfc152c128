"""Closed-form two-curve Green's function evaluators.

One private expression evaluates the closed form
[sin2(w1-v1) sin2(w2-v2)]^{8/k-1} [sin2(w1-w2) sin2(v1-v2)]^{4/k} / F(R):
``G_quad`` on four marked boundary angles, ``G_u`` on the gap variables
of its diagonal specialization.  It is conformally covariant with
exponent alpha0, so the unit-disc evaluator is greens_disc =
|f'(z0)|^{alpha0} G_quad o f, f the disc automorphism taking the
observation point z0 to 0.  alpha0/beta0 are ``KappaContext`` properties.
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


def _closed_form(ctx: KappaContext, own, cross, R):
    """own^{8/k-1} cross^{4/k} / F(R) on the operands as given, so each
    caller keeps its own operand types and bits."""
    return (own ** ctx.weight_exponent * cross ** (4.0 / ctx.kappa)
            / hyp_F(ctx, R))


def G_quad(ctx: KappaContext, cfg: BoundaryConfig) -> float:
    """Boundary Green's function of the four marked angles.

    G = [sin2(w1-v1) sin2(w2-v2)]^{8/k-1} [sin2(w1-w2) sin2(v1-v2)]^{4/k}
        / F(R).
    """
    own = sin2(cfg.w1 - cfg.v1) * sin2(cfg.w2 - cfg.v2)
    cross = sin2(cfg.w1 - cfg.w2) * sin2(cfg.v1 - cfg.v2)
    return float(_closed_form(ctx, own, cross, cross_ratio_of_config(cfg)))


def _coord_arrays(z):
    """A ZState-like object (z1, z2 attributes) or a pair as float arrays."""
    z1 = getattr(z, "z1", None)
    if z1 is not None:
        return np.asarray(z.z1, dtype=float), np.asarray(z.z2, dtype=float)
    z1, z2 = z
    return np.asarray(z1, dtype=float), np.asarray(z2, dtype=float)


def _z_arrays(z):
    """A gap point (ZState-like or (z1, z2) pair) as float arrays, in the
    closed square [0, pi]^2: the domain rule of every gap-variable
    function (``G_u`` and the gap densities of :mod:`twocurve.density`).

    Raises:
        ValueError: if a coordinate lies outside [0, pi] or is nan.
    """
    z1, z2 = _coord_arrays(z)
    if not (np.all((z1 >= 0.0) & (z1 <= np.pi))
            and np.all((z2 >= 0.0) & (z2 <= np.pi))):  # nan fails too
        raise ValueError("gap coordinates must lie in [0, pi]")
    return z1, z2


def G_u(ctx: KappaContext, z):
    """Diagonal Green's function on gap variables (z1, z2) in (0, pi)^2.

    G^u = [sin2(z1) sin2(z2)]^{8/k-1} cos2(z1-z2)^{4/k}
          / F(cos2(z1) cos2(z2) / cos2(z1-z2)).

    Accepts a ZState-like object with z1/z2 attributes or a (z1, z2) pair
    of scalars or same-shape arrays.

    Raises:
        ValueError: if a coordinate lies outside the closed square
            [0, pi]^2, where the formula would be a periodic extension.
    """
    z1, z2 = _z_arrays(z)
    # R lies in (0, 1] analytically; clip roundoff overshoot at the corners
    R = np.minimum(cos2(z1) * cos2(z2) / cos2(z1 - z2), 1.0)
    val = _closed_form(ctx, sin2(z1) * sin2(z2), cos2(z1 - z2), R)
    return float(val) if np.ndim(val) == 0 else val


def _on_circle(p) -> complex:
    """Boundary point as a complex point: an angle, or a complex point
    within 1e-12 of the unit circle."""
    if np.iscomplexobj(p):
        if abs(abs(p) - 1.0) > 1e-12:
            raise ValueError(f"boundary point {p} is off the unit circle")
        return complex(p)
    return complex(np.exp(1j * float(p)))


def greens_disc(ctx: KappaContext, z0: complex, a1, b1, a2, b2) -> float:
    """General unit-disc Green's function at interior point z0.

    The disc automorphism f(z) = (z - z0)/(1 - conj(z0) z) takes z0 to 0
    with |f'(z0)| = (1 - |z0|^2)^{-1}, and the value is |f'(z0)|^{alpha0}
    times G_quad at the angles of f(a1), f(b1), f(a2), f(b2) as w1, v1, w2,
    v2, each set at w1 minus its clockwise arc from f(a1), or all negated
    (a reflection, under which G_quad is invariant) when the points run
    counterclockwise.  Boundary points may be angles or complex points on
    the circle.

    Raises:
        ValueError: z0 outside the open disc, a complex boundary point off
            the circle, coincident marked points, or {a1, a2} failing to
            separate {b1, b2}.
    """
    z0 = complex(z0)
    if abs(z0) >= 1.0:
        raise ValueError("z0 must lie in the open unit disc")
    pts = np.array([_on_circle(p) for p in (a1, b1, a2, b2)])
    th = np.angle((pts - z0) / (1.0 - np.conj(z0) * pts))
    for sign in (1.0, -1.0):
        arcs = (sign * (th[0] - th)) % (2.0 * np.pi)
        if 0.0 < arcs[1] < arcs[2] < arcs[3]:
            cfg = BoundaryConfig(*(sign * th[0] - arcs))
            return float((1.0 - abs(z0) ** 2) ** -ctx.alpha0
                         * G_quad(ctx, cfg))
    raise ValueError("a1, a2 must separate b1 from b2 on the circle (all "
                     "four distinct)")
