"""Runtime self-verification: analytic identities rechecked on demand.

Every computation in this package rests on a small set of exact
identities -- the special-function ODE, orthonormality and the
eigenfunction property of the spectral basis, the semigroup laws of the
transition density, the vanishing drift of the martingale-normalized
observables, and the quasi-invariance of the tilted stationary law.
This module re-evaluates each of them numerically and reports the
measured residual against its pinned tolerance, so an installation (or a
code change) can be validated end to end with one call.

Each check returns a :class:`CheckResult` judged against its entry in
``TOLERANCES``, the one table of pinned tolerances, keyed by check name
(no run overrides them).  :func:`run_all_checks` collects the full
battery, its semigroup checks at ``SPECTRAL_KAPPA``, and records each
check's wall seconds on its result.  The
martingale and eigenfunction checks run as array passes: the drift
residuals of the sampled batch of states in one pass per curve and mode
(``ensemble.drift_residuals``), and the generator stencil of every mode
in one call (``density.generator_apply`` of ``density.mode_values``, the
evaluator the densities run); both give the bytes of the per-state and
per-point evaluations.
``inject_alpha0_error`` deliberately perturbs the decay exponent used by
the quasi-invariance check -- a fault-injection knob proving the suite
actually detects a wrong exponent (it must make that check fail).

A battery evaluates each quantity that cannot change within it once.
The per-kappa caches (the Taylor table of F, the disc rules, Z, the node
grids of ``density._node_grid``) serve it and every later call; the
semigroup checks share the truncations and point modes of the one basis
``run_all_checks`` builds; the drift states are one batch
``EnsembleState``.  The quasi-invariance check reads the tilted law and
G_u from the node grids: each node pair's G_u is evaluated once over both
(point, time) pairs and all their levels, and the end point's extension
once per point (``density._last_points``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import density as dens
from . import ensemble
from .context import KappaContext
from .quadrature import disc_rule, square_integrate
from .special import hyp_F, hyp_F_at_1

__all__ = ["CheckResult", "run_all_checks", "DEFAULT_KAPPAS", "TOLERANCES",
           "SPECTRAL_KAPPA", "N_DRIFT_STATES"]

DEFAULT_KAPPAS = (2.0, 3.0, 4.0, 6.0, 7.5)

# the random states of the drift-residual check
N_DRIFT_STATES = 200

# the kappa of the quadrature-heavy semigroup checks
SPECTRAL_KAPPA = 6.0

# pinned tolerance of each check, by the name on its result
TOLERANCES = {
    "hyp_ode_residual": 1e-7,
    "hyp_value_at_one": 1e-10,
    "basis_orthonormality": 1e-8,
    "drift_residual": 1e-9,
    "eigenfunction_residual": 1e-6,
    "chapman_kolmogorov": 1e-6,
    "stationarity": 1e-8,
    "quasi_invariance": 1e-6,
}


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification: measured residual vs tolerance.

    ``seconds`` is the check's wall time when ``run_all_checks`` ran it
    (None otherwise); it is not part of the outcome, so it takes no part
    in equality and ``to_dict`` leaves it out.
    """

    name: str
    kappa: float
    tolerance: float
    residual: float
    passed: bool
    seconds: float | None = field(default=None, compare=False)

    @staticmethod
    def from_residual(name: str, kappa: float,
                      residual: float) -> "CheckResult":
        """Pass when the residual is finite and below ``TOLERANCES[name]``."""
        tolerance = TOLERANCES[name]
        residual = float(residual)
        ok = bool(np.isfinite(residual) and residual < tolerance)
        return CheckResult(name, float(kappa), float(tolerance),
                           residual, ok)

    def to_dict(self) -> dict:
        return {"name": self.name, "kappa": self.kappa,
                "tolerance": self.tolerance, "residual": self.residual,
                "passed": self.passed}


def _worst(residuals) -> float:
    """Largest of nonnegative residuals (0.0 if there are none); a NaN
    anywhere makes it NaN, which fails the check, where Python's ``max``
    would drop it."""
    return float(np.max(np.asarray(residuals, dtype=float), initial=0.0))


# ---------------------------------------------------------------------------
# special-function checks
# ---------------------------------------------------------------------------

def check_hyp_ode(ctx: KappaContext) -> CheckResult:
    """Max residual of x(1-x)F'' + (c-2x)F' - abF = 0 on a grid.

    Derivatives by 4th-order central differences with a step shrinking
    toward x = 1 where higher derivatives grow.
    """
    a, b, c = ctx.hyp_a, ctx.hyp_b, ctx.hyp_c
    x = np.linspace(0.0, 0.99, 200)
    h = np.clip(0.0067 * (1.0 - x), 4e-5, 1.5e-3)
    pts = x[:, None] + h[:, None] * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    # hyp_F values do not depend on the batch: one call on all stencils
    f = hyp_F(ctx, pts.ravel()).reshape(pts.shape).T
    d1 = (-f[4] + 8.0 * f[3] - 8.0 * f[1] + f[0]) / (12.0 * h)
    d2 = (-f[4] + 16.0 * f[3] - 30.0 * f[2] + 16.0 * f[1] - f[0]) \
        / (12.0 * h * h)
    res = x * (1.0 - x) * d2 + (c - 2.0 * x) * d1 - a * b * f[2]
    return CheckResult.from_residual("hyp_ode_residual", ctx.kappa,
                                     np.max(np.abs(res)))


def _connection_B(ctx: KappaContext):
    """(B, s): F(1 - y) = F(1) + B y^s + O(y) for s = c - a - b in (0, 1)
    (Abramowitz & Stegun 15.3.6); B has poles at integer s."""
    a, b, c = ctx.hyp_a, ctx.hyp_b, ctx.hyp_c
    s = c - a - b
    return math.gamma(c) * math.gamma(-s) / (math.gamma(a) * math.gamma(b)), s


def check_hyp_value_at_one(ctx: KappaContext) -> CheckResult:
    """F at 1 - y, y = 2^-53 (the last double below 1), against F(1) =
    ``hyp_F_at_1`` plus, for kappa > 4, B y^s; for kappa <= 4 (s >= 1)
    that term is O(y), below about 1e-16, and is left out."""
    y, exact = 2.0 ** -53, hyp_F_at_1(ctx)
    B, s = _connection_B(ctx) if ctx.kappa > 4.0 else (0.0, 1.0)
    rel = abs(hyp_F(ctx, 1.0 - y) - exact - B * y ** s) / exact
    return CheckResult.from_residual("hyp_value_at_one", ctx.kappa, rel)


# ---------------------------------------------------------------------------
# spectral-basis checks
# ---------------------------------------------------------------------------

def check_orthonormality(ctx: KappaContext) -> CheckResult:
    """Gram matrix of the modes up to level 12 under the weighted disc rule,
    from ``density.mode_values``, the evaluator the densities run."""
    basis = dens.SpectralBasis(ctx, 12)
    x, y, w = disc_rule(ctx, 26, 52)
    vals = dens.mode_values(basis, basis.n_max, x, y)
    gram = (vals * w) @ vals.T
    err = np.max(np.abs(gram - np.eye(basis.n_modes)))
    return CheckResult.from_residual("basis_orthonormality", ctx.kappa, err)


def check_eigenfunctions(ctx: KappaContext) -> CheckResult:
    """|L v - lambda v| at interior points for every mode up to level 10,
    in one ``generator_apply`` call: points on the leading axes, modes on
    the last."""
    basis = dens.SpectralBasis(ctx, 10)
    px, py = np.random.default_rng(11).uniform(-0.62, 0.62, (2, 10, 1))

    def f(a, b):
        return dens.mode_values(basis, 10, a, b).T.reshape(*a.shape[:-1], -1)

    res = (dens.generator_apply(ctx, f, px, py)
           - dens.eigenvalue(ctx, basis.mode_n) * f(px, py))
    return CheckResult.from_residual("eigenfunction_residual", ctx.kappa,
                                     _worst(np.abs(res)))


def check_chapman_kolmogorov(basis: dens.SpectralBasis) -> CheckResult:
    """p_{s+t} equals the composition of p_s and p_t at s = t = 0.5."""
    ctx = basis.ctx
    a_pt, b_pt = (0.25, -0.15), (-0.3, 0.2)
    x, y, w = disc_rule(ctx, 30, 64)
    psi = np.clip(1.0 - x * x - y * y, 0.0, None) ** ctx.weight_exponent
    lhs = float(np.sum(w * (dens.p_t(basis, a_pt, (x, y), 0.5) / psi)
                       * dens.p_t(basis, (x, y), b_pt, 0.5)))
    rhs = dens.p_t(basis, a_pt, b_pt, 1.0)
    return CheckResult.from_residual("chapman_kolmogorov", ctx.kappa,
                                     abs(lhs - rhs))


def check_stationarity(basis: dens.SpectralBasis) -> CheckResult:
    """Integrating the stationary density against the kernel is a fixed
    point."""
    ctx = basis.ctx
    b_pt = (-0.3, 0.2)
    x, y, w = disc_rule(ctx, 30, 64)
    lhs = float(np.sum(w * dens.p_infty(ctx, 0.0, 0.0)
                       * dens.p_t(basis, (x, y), b_pt, 0.7)))
    # p_infty is constant in the weighted geometry; evaluate once
    return CheckResult.from_residual(
        "stationarity", ctx.kappa, abs(lhs - dens.p_infty(ctx, *b_pt)))


def check_quasi_invariance(basis: dens.SpectralBasis,
                           alpha0_error: float = 0.0) -> CheckResult:
    """The tilted stationary law decays at exactly rate alpha0 under the
    tilted kernel.

    ``alpha0_error`` perturbs the exponent used for the expected decay:
    with a nonzero value the check must fail (sensitivity probe).
    """
    ctx = basis.ctx
    alpha = ctx.alpha0 + alpha0_error
    res = []
    for bz, t in [((1.4, 1.9), 0.7), ((0.9, 1.2), 1.3)]:
        def level_sum(z, w):
            # tilde_pZ_infty, read from the node grid Z_constant filled,
            # against the kernel, whose G_u comes from its own node grid
            law = dens.pz_over_gu_grid(ctx, z) / dens.Z_constant(ctx)
            kern = dens._tilde_pZ_t_grid(ctx, basis, z, bz, t)
            return float(w @ (law * kern) @ w)
        val, _ = square_integrate(level_sum, rtol=1e-9)
        target = np.exp(-alpha * t) * dens.tilde_pZ_infty(ctx, bz)
        res.append(abs(float(val) - float(target)))
    return CheckResult.from_residual("quasi_invariance", ctx.kappa,
                                     _worst(res))


# ---------------------------------------------------------------------------
# martingale-algebra check
# ---------------------------------------------------------------------------

def check_drift_residual(ctx: KappaContext,
                         n_states: int = N_DRIFT_STATES) -> CheckResult:
    """The analytic drift of each normalized observable vanishes at
    random states, for both curves and both normalization modes."""
    states = ensemble.sample_states(n_states, seed=20240 + int(10 * ctx.kappa))
    res = np.abs(ensemble.drift_residuals(ctx, states))
    return CheckResult.from_residual("drift_residual", ctx.kappa,
                                     _worst(res))


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------

def run_all_checks(kappas=DEFAULT_KAPPAS,
                   n_drift_states: int = N_DRIFT_STATES,
                   inject_alpha0_error: float = 0.0) -> list:
    """Run the full verification battery.

    Per-kappa checks (ODE residual, boundary value, orthonormality,
    drift residual) run for every kappa in ``kappas``; the
    quadrature-heavy semigroup checks run once at ``SPECTRAL_KAPPA`` and
    share one ``n_max = 60`` spectral basis.  Every result is judged
    against its pinned tolerance in ``TOLERANCES`` and carries the wall
    seconds of its check in ``seconds``.
    """
    results = []

    def run(check, *args, **kwargs):
        t0 = time.perf_counter()
        r = check(*args, **kwargs)
        results.append(replace(r, seconds=time.perf_counter() - t0))

    for kappa in kappas:
        ctx = KappaContext(float(kappa))
        run(check_hyp_ode, ctx)
        run(check_hyp_value_at_one, ctx)
        run(check_orthonormality, ctx)
        run(check_drift_residual, ctx, n_states=n_drift_states)
    ctx_s = KappaContext(SPECTRAL_KAPPA)
    run(check_eigenfunctions, ctx_s)
    basis = dens.SpectralBasis(ctx_s, 60)
    run(check_chapman_kolmogorov, basis)
    run(check_stationarity, basis)
    run(check_quasi_invariance, basis, alpha0_error=inject_alpha0_error)
    return results
