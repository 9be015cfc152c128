"""Test-only references for the ensemble algebra, the two-angle SDE and
the spectral basis.

No command runs these, so they live with the tests that use them
(``test_checks.py``, ``test_density.py``, ``test_ensemble.py``,
``test_montecarlo.py``, ``test_special.py``, ``test_timecurve.py``):

* ``fresh_state`` -- the ensemble state at t1 = t2 = 0, and
  ``state_config`` -- a state's four angles as a ``BoundaryConfig``;
* ``phi``, ``log_M_iB_c4``, ``log_M_iB_ch`` and
  ``martingale_coefficient`` -- the companion factor Phi_j, the two
  log-densities and the displayed noise coefficient of the
  :mod:`twocurve.ensemble` algebra, per state;
* ``cross_ratio_sde``, ``hyp_factor_sde`` and ``log_M_sde`` -- per-state
  entry points to the Ito pairs that :mod:`twocurve.ensemble` assembles
  privately for ``drift_residual``;
* ``z_drift_diffusion`` -- the coefficients of the SDE that
  ``_kernels.z_update`` steps (the :mod:`twocurve.timecurve` docstring);
* ``rows`` and ``stack`` -- the list of single states of a batch
  ``EnsembleState``, and the batch of a list of states;
* ``sample_states_loop`` -- the states of ``ensemble.sample_states`` from
  a rejection loop of one ``rng.uniform`` call per value, the oracle of
  the array sampler;
* ``jacobi`` and ``jacobi_sup_norm`` -- one Jacobi polynomial, the last
  value of ``special.jacobi_seq``, and its sup norm on [-1, 1];
* ``basis_eval`` and ``sup_norm`` -- one mode of a ``SpectralBasis`` by
  its per-mode formula h P_j(2 r^2 - 1) r^m cos/sin(m theta), and the
  endpoint bound of its sup over the disc: the independent oracles of
  ``density.mode_blocks``, ``density.mode_values`` and the tail bound of
  ``density._tail_logs``.
"""
from __future__ import annotations

import math

import numpy as np

from twocurve import ensemble as ens
from twocurve.context import KappaContext
from twocurve.ensemble import (
    _C4_PAIRS, EnsembleState, _check_j, _check_mode, _hyp_point,
    _martingale_coefficient, _phi,
)
from twocurve.green import BoundaryConfig, cross_ratio_of_config
from twocurve.density import SpectralBasis
from twocurve.special import hyp_F, jacobi_seq, log_gamma
from twocurve.trig import sin2


def fresh_state(w1: float, v1: float, w2: float, v2: float) -> EnsembleState:
    """State at t1 = t2 = 0: identity maps (first derivatives 1, higher 0)."""
    return EnsembleState(W1=w1, V1=v1, W2=w2, V2=v2,
                         W11=1.0, W21=1.0, W12=0.0, W22=0.0,
                         W13=0.0, W23=0.0, V11=1.0, V21=1.0)


def rows(batch: EnsembleState) -> list:
    """One ``EnsembleState`` per state of a one-dimensional batch, in
    order."""
    fields = (getattr(batch, name).tolist()
              for name in EnsembleState.__dataclass_fields__)
    return [EnsembleState(*row) for row in zip(*fields)]


def stack(states) -> EnsembleState:
    """The batch of a list of single states."""
    return EnsembleState(**{
        name: np.array([getattr(st, name) for st in states])
        for name in EnsembleState.__dataclass_fields__})


def state_config(state: EnsembleState) -> BoundaryConfig:
    """The four angles W1, V1, W2, V2 as a ``BoundaryConfig``."""
    return BoundaryConfig(state.W1, state.V1, state.W2, state.V2)


def phi(state: EnsembleState, j: int) -> float:
    """Phi_j = cot2(W_j - V_k) - cot2(W_j - W_k), k the other index."""
    _check_j(j)
    return float(_phi(state, j))


def _log_sines(state: EnsembleState, pairs) -> float:
    total = 0.0
    for p, q in pairs:
        total += math.log(abs(sin2(state.angle(p) - state.angle(q))))
    return total


def _log_first_derivs(state: EnsembleState) -> float:
    return (math.log(state.W11) + math.log(state.W21)
            + math.log(state.V11) + math.log(state.V21))


def log_M_iB_c4(ctx: KappaContext, state: EnsembleState) -> float:
    """Log-density of the independent-Brownian-to-c4 change of measure.

    exp of: (60/(8k)) mA + (b/6)(mA - t1 - t2) + b log(W11 W21 V11 V21)
    + (2/k) log of the six-sine product - (c/6) Icc.
    """
    k = ctx.kappa
    b = ctx.sle_b
    return (60.0 / (8.0 * k) * state.mA
            + b / 6.0 * (state.mA - state.t1 - state.t2)
            + b * _log_first_derivs(state)
            + 2.0 / k * _log_sines(state, _C4_PAIRS)
            - ctx.sle_c / 6.0 * state.Icc)


def log_M_iB_ch(ctx: KappaContext, state: EnsembleState) -> float:
    """Log-density of the independent-Brownian-to-ch change of measure.

    exp of: ((k-6)(k-2)/(8k)) mA + (b/6)(mA - t1 - t2) + log Ftilde(R)
    + b log(W11 W21 V11 V21) - 2b log(sin2(W1-V1) sin2(W2-V2)) - (c/6) Icc,
    with Ftilde(R) = R^{2/k} F(R).
    """
    k = ctx.kappa
    b = ctx.sle_b
    R = cross_ratio_of_config(state_config(state))
    log_ftilde = 2.0 / k * math.log(R) + math.log(hyp_F(ctx, R))
    return ((k - 6.0) * (k - 2.0) / (8.0 * k) * state.mA
            + b / 6.0 * (state.mA - state.t1 - state.t2)
            + log_ftilde
            + b * _log_first_derivs(state)
            - 2.0 * b * _log_sines(state, (("W1", "V1"), ("W2", "V2")))
            - ctx.sle_c / 6.0 * state.Icc)


def martingale_coefficient(ctx: KappaContext, state: EnsembleState,
                           j: int, mode: str) -> float:
    """Displayed noise coefficient of d log M against dw_j.

    mode "c4": b W_{j,2}/W_{j,1}
               + (1/k) W_{j,1} sum of cot2(W_j - X), X in {W_k, V_1, V_2};
    mode "ch": b W_{j,2}/W_{j,1} + (1/(2k)) Gtilde(R) W_{j,1} Phi_j
               - b cot2(W_j - V_j) W_{j,1}.
    """
    _check_j(j)
    _check_mode(mode)
    return float(_martingale_coefficient(ctx, state, j, mode,
                                         _hyp_point(ctx, state, mode)))


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


def sample_states_loop(n: int, seed: int):
    """(states, rejections): ``ensemble.sample_states(n, seed)`` built one
    state at a time, each value one ``Generator.uniform`` call on the next
    double of ``rng.random`` blocks of 17 n, with the number of rejected
    attempts."""
    rng = np.random.default_rng(seed)

    def blocks():
        while True:
            yield from rng.random(17 * n).tolist()

    draws = blocks()

    def uniform(lo, hi):
        return lo + (hi - lo) * next(draws)

    two_pi = 2.0 * math.pi
    out, rejections = [], 0
    while len(out) < n:
        cuts = sorted((uniform(0.0, two_pi) for _ in range(3)), reverse=True)
        w1 = uniform(0.0, two_pi)
        v1, w2, v2 = (w1 - (two_pi - c) for c in cuts)
        gaps = (w1 - v1, v1 - w2, w2 - v2, v2 - (w1 - two_pi))
        if min(gaps) < 0.1:
            rejections += 1
            continue
        t1, t2 = uniform(0.5, 2.0), uniform(0.5, 2.0)
        lo, hi = max(t1, t2), t1 + t2
        mA = lo + (hi - lo) * uniform(0.1, 0.9)
        out.append(EnsembleState(
            W1=w1, V1=v1, W2=w2, V2=v2,
            W11=uniform(0.2, 0.95), W21=uniform(0.2, 0.95),
            W12=uniform(-2.0, 2.0), W22=uniform(-2.0, 2.0),
            W13=uniform(-2.0, 2.0), W23=uniform(-2.0, 2.0),
            V11=uniform(0.2, 0.95), V21=uniform(0.2, 0.95),
            mA=mA, Icc=uniform(-1.0, 1.0), t1=t1, t2=t2))
    return out, rejections


def jacobi(n: int, alpha: float, beta: float, x):
    """Jacobi polynomial P_n^{(alpha, beta)}(x), last of ``jacobi_seq``."""
    if n < 0:
        raise ValueError("jacobi requires n >= 0")
    *_, p = jacobi_seq(n, alpha, beta, np.asarray(x, dtype=float))
    return p if np.ndim(p) else float(p)


def jacobi_sup_norm(n: int, alpha: float, beta: float) -> float:
    """Sup of |P_n^{(alpha,beta)}| on [-1,1] when max(alpha,beta) >= -1/2.

    Equals Gamma(q + n + 1) / (n! Gamma(q + 1)) with q = max(alpha, beta).

    Raises:
        ValueError: if max(alpha, beta) < -1/2 or min(alpha, beta) <= -1,
            where the endpoint formula is not valid.
    """
    q = max(alpha, beta)
    if q < -0.5 or min(alpha, beta) <= -1.0:
        raise ValueError("jacobi_sup_norm requires max(alpha,beta) >= -1/2 "
                         "and min(alpha,beta) > -1")
    return float(np.exp(log_gamma(q + n + 1.0) - log_gamma(n + 1.0)
                        - log_gamma(q + 1.0)))


def sup_norm(basis: SpectralBasis, n: int, j: int) -> float:
    """Endpoint-formula bound for sup |v_{n,j,i}| over the closed disc.

    Equals h_{n,j} max(binom-type Gamma ratios) coming from the Jacobi
    endpoint super norm.  It is always an upper bound; it is attained
    (and the sup equals it) when the dominant endpoint is r = 1, i.e.
    when 8/k - 1 >= n - 2j, and for pure radial modes n = 2j.

    Raises:
        ValueError: unless 0 <= 2j <= n <= basis.n_max.
    """
    e = basis.weight_exponent
    m = n - 2 * j
    if j < 0 or m < 0:
        raise ValueError("sup_norm requires 0 <= 2j <= n")
    return float(basis.mode_h[basis.mode_index(n, j, 1)]
                 * jacobi_sup_norm(j, e, float(m)))


def basis_eval(basis: SpectralBasis, n: int, j: int, i: int, x, y):
    """Evaluate mode (n, j, i) at points of the closed unit disc.

    Raises:
        ValueError: if the mode indices are out of range or a point lies
            outside the closed disc.
    """
    h = basis.mode_h[basis.mode_index(n, j, i)]  # validates indices
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r2 = x * x + y * y
    if np.any(r2 > 1.0 + 1e-12):
        raise ValueError("basis_eval requires points in the closed unit disc")
    e = basis.weight_exponent
    m = n - 2 * j
    u = np.minimum(2.0 * r2 - 1.0, 1.0)
    rad = jacobi(j, e, float(m), u)
    theta = np.arctan2(y, x)
    ang = np.cos(m * theta) if i == 1 else np.sin(m * theta)
    val = h * rad * np.sqrt(r2) ** m * ang
    return float(val) if np.ndim(val) == 0 else val
