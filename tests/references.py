"""Test-only references for the ensemble algebra, the two-angle SDE, the
spectral basis, and the closed forms, weights and draws that no command
reads.

No command runs these, so they live with the tests that use them
(``test_checks.py``, ``test_density.py``, ``test_ensemble.py``,
``test_green.py``, ``test_montecarlo.py``, ``test_special.py``,
``test_timecurve.py``):

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
* ``series_F_and_dF`` -- the power series of (F, F') with its stop test
  at every step, the oracle of ``special._series_F_and_dF``, which asks
  it at every eighth;
* ``mode_index`` -- the flat index of mode (n, j, i) in a
  ``SpectralBasis``, the inverse of its ``mode_n``, ``mode_j`` and
  ``mode_i`` rows;
* ``basis_eval`` and ``sup_norm`` -- one mode of a ``SpectralBasis`` by
  its per-mode formula h P_j(2 r^2 - 1) r^m cos/sin(m theta), and the
  endpoint bound of its sup over the disc: the independent oracles of
  ``density.mode_blocks``, ``density.mode_values`` and the tail bound of
  ``density._tail_logs``;
* ``greens_disc`` -- the Green's function at an interior point z0 of the
  unit disc, |f'(z0)|^{alpha0} G_quad o f with f the disc automorphism
  taking z0 to 0: the oracle of ``green.G_quad``'s conformal covariance,
  symmetries and boundary rate (``test_green.py``);
* ``importance_log_weight`` -- -alpha0 t + log G_u(start) - log G_u(end),
  the weight that ``timecurve.simulate_z_ensemble`` records, for checks
  of its sign, its time decay and its vectorization;
* ``normal_pair`` -- one Box-Muller pair of a stream in scalar libm
  arithmetic, the oracle of ``_rng.normal_pair_array`` and of the first
  step of ``z_evolve``;
* ``pZ_infty`` and ``pZ_t`` -- the stationary and the transition density
  of the gap pair (z1, z2), the untilted forms of
  ``density.tilde_pZ_infty`` and ``density.tilde_pZ_t``: their mass,
  symmetry, Chapman-Kolmogorov and truncation checks.
"""
from __future__ import annotations

import math

import numpy as np

from twocurve import _rng, ensemble as ens
from twocurve.context import KappaContext
from twocurve.ensemble import (
    _C4_PAIRS, EnsembleState, _check_j, _check_mode, _hyp_point,
    _martingale_coefficient, _phi,
)
from twocurve.green import (
    BoundaryConfig, G_quad, G_u, _z_arrays, cross_ratio_of_config,
)
from twocurve.density import SpectralBasis, _series, truncation
from twocurve.special import (
    _SERIES_MAX_TERMS, hyp_F, jacobi_seq, log_gamma,
)
from twocurve.timecurve import xy_of_z
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


def series_F_and_dF(ctx: KappaContext, x):
    """(F, F') by the power series of ``special._series_F_and_dF``, with
    the stop test asked after every step: the loop ends at the first step
    whose terms, added or subtracted, leave every sum unchanged and past
    which the coefficient-ratio bound holds, and returns the sums without
    that step's terms."""
    a, b, c = ctx.hyp_a, ctx.hyp_b, ctx.hyp_c
    x = np.asarray(x, dtype=float)
    xmax = float(np.max(np.abs(x))) if x.size else 0.0
    f = np.ones_like(x)
    df = np.zeros_like(x)
    coef = 1.0
    xpow = np.ones_like(x)
    for n in range(_SERIES_MAX_TERMS):
        coef = coef * (a + n) * (b + n) / ((c + n) * (n + 1.0))
        if coef == 0.0:
            break
        dterm = coef * (n + 1.0) * xpow
        df_next = df + dterm
        xpow = xpow * x
        term = coef * xpow
        f_next = f + term
        rho = (a + n + 1.0) * (b + n + 1.0) / ((c + n + 1.0) * (n + 2.0))
        tail_bounded = (xmax <= 0.5 and rho >= -1.0
                        and abs(rho) * xmax * (n + 2.0) / (n + 1.0) <= 0.75)
        if (tail_bounded and (df_next == df).all() and (f_next == f).all()
                and (df - dterm == df).all() and (f - term == f).all()):
            break
        f, df = f_next, df_next
    return f, df


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


def mode_index(basis: SpectralBasis, n: int, j: int, i: int) -> int:
    """Flat index of mode (n, j, i) of ``basis``: level n starts at
    n(n+1)/2 with its n//2 + 1 cos modes, then its sin modes.

    Raises:
        ValueError: if the basis has no such mode.
    """
    n, j, i = int(n), int(j), int(i)
    if not (0 <= n <= basis.n_max and i in (1, 2) and 0 <= j
            and 2 * j <= n - (i - 1)):
        raise ValueError(
            f"no basis mode with n={n}, j={j}, i={i} "
            f"(need 0 <= 2j <= n for i=1, 2j <= n-1 for i=2, "
            f"n <= {basis.n_max})")
    return n * (n + 1) // 2 + j + (i - 1) * (n // 2 + 1)


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
    return float(basis.mode_h[mode_index(basis, n, j, 1)]
                 * jacobi_sup_norm(j, e, float(m)))


def basis_eval(basis: SpectralBasis, n: int, j: int, i: int, x, y):
    """Evaluate mode (n, j, i) at points of the closed unit disc.

    Raises:
        ValueError: if the mode indices are out of range or a point lies
            outside the closed disc.
    """
    h = basis.mode_h[mode_index(basis, n, j, i)]  # validates indices
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
    return -ctx.alpha0 * t + np.log(G_u(ctx, z_start)) - np.log(
        G_u(ctx, z_end))


def normal_pair(stream: int, k: int) -> tuple[float, float]:
    """The ``k``-th pair of independent standard normals of ``stream``:
    the Box-Muller pair of counters (2k, 2k+1), in libm."""
    r = math.sqrt(-2.0 * math.log(_rng.uniform(stream, 2 * k)))
    a = _rng.TWO_PI * _rng.uniform(stream, 2 * k + 1)
    return r * math.cos(a), r * math.sin(a)


def pZ_infty(ctx: KappaContext, z):
    """Stationary density of the gap pair on (0, pi)^2."""
    z1, z2 = _z_arrays(z)
    e = ctx.weight_exponent
    s1, s2 = np.sin(z1), np.sin(z2)
    val = (8.0 / (np.pi * ctx.kappa)
           * np.clip(s1 * s2, 0.0, None) ** e * (s1 + s2) / 4.0)
    return float(val) if np.ndim(val) == 0 else val


def pZ_t(basis: SpectralBasis, frm, to, t):
    """Transition density of the gap pair: p_t at the (x, y) images times
    the Jacobian factor (sin z1* + sin z2*)/4."""
    if not t > 0.0:
        raise ValueError("pZ_t requires t > 0")
    t = float(t)
    fz1, fz2 = _z_arrays(frm)
    tz1, tz2 = _z_arrays(to)
    s1, s2 = np.sin(tz1), np.sin(tz2)
    psi = np.clip(s1 * s2, 0.0, None) ** basis.weight_exponent
    jac = (s1 + s2) / 4.0
    n_used = truncation(basis, t)[0]
    kern = _series(basis, n_used, t, *xy_of_z((fz1, fz2)),
                   *xy_of_z((tz1, tz2)))
    value = psi * kern * jac
    return float(value) if np.ndim(value) == 0 else value
