"""Half-angle trigonometric helpers.

Throughout the package, ``sin2(u)`` etc. denote the half-angle functions
``sin(u/2)``, ``cos(u/2)``, ``cot(u/2)``.  Primes denote derivatives with
respect to the full argument ``u``, so e.g. ``d/du sin2(u) = cos2(u)/2``.
"""
from __future__ import annotations

import numpy as np

__all__ = ["sin2", "cos2", "cot2", "csc2", "cot2p", "cot2ppp"]


def sin2(u):
    """sin(u/2)."""
    return np.sin(np.asarray(u, dtype=float) / 2.0)


def cos2(u):
    """cos(u/2)."""
    return np.cos(np.asarray(u, dtype=float) / 2.0)


def cot2(u):
    """cot(u/2)."""
    return 1.0 / np.tan(np.asarray(u, dtype=float) / 2.0)


def csc2(u):
    """1/sin(u/2)."""
    return 1.0 / np.sin(np.asarray(u, dtype=float) / 2.0)


def cot2p(u):
    """First derivative of cot2: d/du cot(u/2) = -csc(u/2)^2 / 2."""
    s = csc2(u)
    return -0.5 * (s * s)


def cot2ppp(u):
    """Third derivative of cot2: -csc(u/2)^2 (1 + 3 cot(u/2)^2) / 4."""
    c = cot2(u)
    s = csc2(u)
    return -0.25 * s * s * (1.0 + 3.0 * c * c)
