"""Test-only references for the ensemble algebra and the two-angle SDE.

No command runs these, so they live with the tests that use them
(``test_ensemble.py``, ``test_montecarlo.py``, ``test_timecurve.py``):

* ``fresh_state`` -- the ensemble state at t1 = t2 = 0;
* ``cross_ratio_sde``, ``hyp_factor_sde`` and ``log_M_sde`` -- per-state
  entry points to the Ito pairs that :mod:`twocurve.ensemble` assembles
  privately for ``drift_residual``;
* ``z_drift_diffusion`` -- the coefficients of the SDE that
  ``_kernels.z_update`` steps (the :mod:`twocurve.timecurve` docstring).
"""
from __future__ import annotations

import numpy as np

from twocurve import ensemble as ens
from twocurve.context import KappaContext
from twocurve.ensemble import EnsembleState


def fresh_state(w1: float, v1: float, w2: float, v2: float) -> EnsembleState:
    """State at t1 = t2 = 0: identity maps (first derivatives 1, higher 0)."""
    return EnsembleState(W1=w1, V1=v1, W2=w2, V2=v2,
                         W11=1.0, W21=1.0, W12=0.0, W22=0.0,
                         W13=0.0, W23=0.0, V11=1.0, V21=1.0)


def cross_ratio_sde(ctx: KappaContext, state: EnsembleState,
                    j: int) -> tuple[float, float]:
    """(sigma, mu) of dR/R for growth in t_j, from the sine factor SDEs."""
    return ens._to_ratio(ctx, *ens._log_cross_ratio_sde(
        ens._log_sine_sdes(ctx, state, j)))


def hyp_factor_sde(ctx: KappaContext, state: EnsembleState,
                   j: int) -> tuple[float, float]:
    """(sigma, mu) of d Ftilde(R) / Ftilde(R) for growth in t_j.

    Chain rule through u = log R: d log Ftilde = H du + (1/2) R H' d<u>.
    """
    return ens._hyp_factor_sde(ctx, ens._hyp_point(ctx, state, "ch"),
                               ens._log_sine_sdes(ctx, state, j))


def log_M_sde(ctx: KappaContext, state: EnsembleState, j: int,
              mode: str) -> tuple[float, float]:
    """First-principles Ito pair (sigma, mu) of d log M for growth in t_j.

    Every term is assembled from the component SDE rows (``ode_rhs`` flow
    parts plus the tip noise and Ito corrections); nothing is taken from
    the displayed martingale coefficient, so comparing against
    ``martingale_coefficient`` and testing
    mu + (kappa/2) sigma^2 = 0 are both meaningful checks.
    """
    ens._check_j(j)
    ens._check_mode(mode)
    sigma, mu = ens._log_M_sde(ctx, state, j, mode,
                               ens._hyp_point(ctx, state, mode),
                               ens.ode_rhs(state, j),
                               ens._log_sine_sdes(ctx, state, j))
    return float(sigma), float(mu)


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
