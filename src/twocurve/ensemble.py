"""Two-curve commuting-ensemble state and its local-martingale algebra.

Two radial Loewner curves grow in independent capacity times (t1, t2).
Viewing curve j through the conformal flow of curve k yields, for each
time pair, the state tracked here:

* ``W1, V1, W2, V2`` -- image angles of the two tips and the two passive
  marked boundary points (radians, ordered W1 > V1 > W2 > V2 > W1 - 2*pi);
* ``Wj1, Wj2, Wj3`` -- first three derivatives of the other curve's flow
  map at tip j, with ``Wj1`` in (0, 1];
* ``V11, V21`` -- first derivatives at the passive points;
* ``mA`` -- capacity of the joint hull;
* ``Icc`` -- accumulated interaction integral (the double time integral
  of W11^2 W21^2 cot2'''(W1 - W2));
* ``t1, t2`` -- the two capacity times.

On this state the module computes the deterministic flow derivative of
every field for growth in either time (``ode_rhs``) and checks the two
changes of measure M from the product of independent Brownian driving
laws -- mode "c4" targets the system where each curve is a radial SLE
with three symmetric force points, mode "ch" the coupled pair whose
marginals are hypergeometric SLE.  Both must be local martingales when
grown in one time with the other frozen; ``drift_residual`` verifies this
by assembling the Ito drift of log M from the component SDEs and adding
(kappa/2) times the squared displayed martingale coefficient, which
vanishes identically in exact arithmetic.  An ``EnsembleState`` holds
one state (float fields) or a batch (one float array per field, as
``sample_states`` draws it); the algebra acts elementwise on either, and
``drift_residuals`` evaluates a batch in one array pass per curve and
mode with one vector call of F.  No command evaluates log M, Phi_j or
the coefficient alone, so ``log_M_iB_c4``, ``log_M_iB_ch``, ``phi`` and
``martingale_coefficient`` (with ``_log_sines`` and
``_log_first_derivs``) are test references.

SDE convention: growth in t_j with t_k frozen; the driving increment
``d w_j`` has quadratic variation kappa * dt, so a log-quantity with
differential sigma * dw + mu * dt exponentiates to a local martingale
exactly when mu + (kappa/2) sigma^2 = 0.  Ratio-form pairs (dX/X) and
log-form pairs (d log X) differ by the Ito term (kappa/2) sigma^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .context import KappaContext
from .green import _cross_ratio
from .special import hyp_F_and_dF
from .trig import cot2, cot2p, cot2ppp

TWO_PI = 2.0 * math.pi

_ANGLE_LABELS = ("W1", "V1", "W2", "V2")

# factor pairs of the six-sine product in the c4 density
_C4_PAIRS = (("W1", "V1"), ("W2", "V2"), ("W1", "W2"),
             ("W1", "V2"), ("V1", "W2"), ("V1", "V2"))

# signed factor pairs of the cross-ratio R = num/den
_R_PAIRS = ((("W1", "V2"), 1.0), (("V1", "W2"), 1.0),
            (("W1", "W2"), -1.0), (("V1", "V2"), -1.0))


@dataclass(frozen=True)
class EnsembleState:
    """Snapshot of the commuting two-curve system at one time pair (float
    fields), or a batch of them (float arrays of one shape).

    ``Wj2, Wj3`` may take arbitrary real values (they are read off a
    conformal map in the exact dynamics but enter the martingale algebra
    as free inputs); all other fields satisfy the domain invariants
    checked at construction, at every state of a batch.  The algebra
    acts elementwise and squares by multiplication, never ``** 2``:
    libm's ``pow(x, 2.0)``, which floats and numpy scalars call, can
    round apart from ``x * x``, which arrays compute.
    """

    W1: float
    V1: float
    W2: float
    V2: float
    W11: float
    W21: float
    W12: float
    W22: float
    W13: float
    W23: float
    V11: float
    V21: float
    mA: float = 0.0
    Icc: float = 0.0
    t1: float = 0.0
    t2: float = 0.0

    def __post_init__(self):
        shapes = set()
        for name in self.__dataclass_fields__:
            v = np.asarray(getattr(self, name), dtype=float)
            shapes.add(v.shape)
            object.__setattr__(self, name, float(v) if v.ndim == 0 else v)
        if len(shapes) > 1:
            raise ValueError(f"fields of more than one shape: {shapes}")
        W1, V1, W2, V2 = (getattr(self, a) for a in _ANGLE_LABELS)
        t_lo, t_hi = np.maximum(self.t1, self.t2), self.t1 + self.t2
        for ok, rule in (
                ((W1 > V1) & (V1 > W2) & (W2 > V2) & (V2 > W1 - TWO_PI),
                 "angle ordering W1 > V1 > W2 > V2 > W1 - 2*pi"),
                ((0.0 < self.W11) & (self.W11 <= 1.0), "W11 in (0, 1]"),
                ((0.0 < self.W21) & (self.W21 <= 1.0), "W21 in (0, 1]"),
                (self.V11 > 0.0, "V11 > 0"), (self.V21 > 0.0, "V21 > 0"),
                ((self.t1 >= 0.0) & (self.t2 >= 0.0),
                 "capacity times t1, t2 nonnegative"),
                ((t_lo - 1e-9 <= self.mA) & (self.mA <= t_hi + 1e-9),
                 "joint capacity mA in [max(t1, t2), t1 + t2]")):
            ok = np.asarray(ok)
            if not ok.all():
                at = f" at state {np.argmin(ok)}" if ok.ndim else ""
                raise ValueError(f"{rule} violated{at}")

    def angle(self, label: str):
        if label not in _ANGLE_LABELS:
            raise ValueError(f"unknown angle label {label!r}")
        return getattr(self, label)

    def tip_deriv(self, j: int, order: int):
        """W_{j,order} for order in 1..3."""
        _check_j(j)
        if order not in (1, 2, 3):
            raise ValueError(f"derivative order must be 1..3, got {order}")
        return getattr(self, f"W{j}{order}")

    def w_S(self, j: int):
        """Schwarzian combination W_{j,3}/W_{j,1} - (3/2)(W_{j,2}/W_{j,1})^2."""
        w1 = self.tip_deriv(j, 1)
        r = self.tip_deriv(j, 2) / w1
        return self.tip_deriv(j, 3) / w1 - 1.5 * (r * r)


def _check_j(j: int) -> None:
    if j not in (1, 2):
        raise ValueError(f"curve index must be 1 or 2, got {j}")


def _check_mode(mode: str) -> None:
    if mode not in ("c4", "ch"):
        raise ValueError(f"mode must be 'c4' or 'ch', got {mode!r}")


def ode_rhs(state: EnsembleState, j: int) -> dict:
    """Deterministic flow derivatives of every field for growth in t_j.

    Returns a dict of per-unit-t_j derivatives:

    * ``"mA"``: W_{j,1}^2;
    * ``"t"``: 1.0 (t_j itself);
    * ``"W_passive"``: dW_k = W_{j,1}^2 cot2(W_k - W_j);
    * ``"V1"``, ``"V2"``: dV_s = W_{j,1}^2 cot2(V_s - W_j);
    * ``"ln_W1_passive"``: d ln W_{k,1} = W_{j,1}^2 cot2'(W_k - W_j);
    * ``"ln_V11"``, ``"ln_V21"``: d ln V_{s,1} = W_{j,1}^2 cot2'(V_s - W_j);
    * ``"WS_passive"``: dW_{k,S} = W_{j,1}^2 W_{k,1}^2 cot2'''(W_k - W_j);
    * ``"Icc"``: W_{j,S} (the interaction integral's t_j-derivative
      telescopes to the current Schwarzian combination, which vanishes at
      t_k = 0);
    * ``"W_tip_flow"``: -3 W_{j,2}, the tip drift contributed by the
      other curve's flow (the full tip SDE adds W_{j,1} dw_j and the Ito
      term (kappa/2) W_{j,2} dt);
    * ``"ln_W11_tip_flow"``: (1/2)(W_{j,2}/W_{j,1})^2
      - (4/3) W_{j,3}/W_{j,1} - (1/6)(W_{j,1}^2 - 1), the flow part of
      d W_{j,1}/W_{j,1} (the full SDE adds (W_{j,2}/W_{j,1}) dw_j and
      (kappa/2) W_{j,3}/W_{j,1} dt).
    """
    _check_j(j)
    k = 3 - j
    wj = state.angle(f"W{j}")
    wj1 = state.tip_deriv(j, 1)
    wj2 = state.tip_deriv(j, 2)
    wj3 = state.tip_deriv(j, 3)
    wk = state.angle(f"W{k}")
    wk1 = state.tip_deriv(k, 1)
    sq = wj1 * wj1
    r = wj2 / wj1
    return {
        "mA": sq,
        "t": 1.0,
        "W_passive": sq * cot2(wk - wj),
        "V1": sq * cot2(state.V1 - wj),
        "V2": sq * cot2(state.V2 - wj),
        "ln_W1_passive": sq * cot2p(wk - wj),
        "ln_V11": sq * cot2p(state.V1 - wj),
        "ln_V21": sq * cot2p(state.V2 - wj),
        "WS_passive": sq * (wk1 * wk1) * cot2ppp(wk - wj),
        "Icc": state.w_S(j),
        "W_tip_flow": -3.0 * wj2,
        "ln_W11_tip_flow": (0.5 * r * r - (4.0 / 3.0) * (wj3 / wj1)
                            - (sq - 1.0) / 6.0),
    }


def _hyp_point(ctx: KappaContext, state: EnsembleState, mode: str):
    """(R, F(R), F'(R)) for mode "ch", which reads F; None for "c4"."""
    if mode != "ch":
        return None
    R = _cross_ratio(state.W1, state.V1, state.W2, state.V2)
    return (R, *hyp_F_and_dF(ctx, R))


def _phi(state: EnsembleState, j: int):
    """Phi_j = cot2(W_j - V_k) - cot2(W_j - W_k), k the other index."""
    k = 3 - j
    wj = state.angle(f"W{j}")
    return cot2(wj - state.angle(f"V{k}")) - cot2(wj - state.angle(f"W{k}"))


def _martingale_coefficient(ctx: KappaContext, state: EnsembleState, j: int,
                            mode: str, hyp):
    """Displayed noise coefficient of d log M against dw_j: b W_{j,2}/W_{j,1}
    plus, in mode "c4", (1/k) W_{j,1} sum of cot2(W_j - X) over X in
    {W_k, V_1, V_2}; in mode "ch", (1/(2k)) Gtilde(R) W_{j,1} Phi_j
    - b cot2(W_j - V_j) W_{j,1}, with (R, F, F') read from ``hyp`` and
    Gtilde(R) = kappa R F'/F + 2 as in ``special.hyp_tilde_G``."""
    k = 3 - j
    kap = ctx.kappa
    b = ctx.sle_b
    wj = state.angle(f"W{j}")
    wj1 = state.tip_deriv(j, 1)
    lead = b * state.tip_deriv(j, 2) / wj1
    if mode == "c4":
        s = (cot2(wj - state.angle(f"W{k}"))
             + cot2(wj - state.V1) + cot2(wj - state.V2))
        return lead + wj1 * s / kap
    R, F, Fp = hyp
    g_tilde = kap * R * Fp / F + 2.0
    return (lead
            + g_tilde * wj1 * _phi(state, j) / (2.0 * kap)
            - b * cot2(wj - state.angle(f"V{j}")) * wj1)


# ---------------------------------------------------------------------------
# Ito assembly from the component SDE rows
# ---------------------------------------------------------------------------

def _angle_sde(ctx: KappaContext, state: EnsembleState, j: int,
               label: str) -> tuple[float, float]:
    """(sigma, mu) of the angle at ``label`` for growth in t_j."""
    wj = state.angle(f"W{j}")
    wj1 = state.tip_deriv(j, 1)
    if label == f"W{j}":
        return wj1, (0.5 * ctx.kappa - 3.0) * state.tip_deriv(j, 2)
    return 0.0, wj1 * wj1 * cot2(state.angle(label) - wj)


def sin_ratio_sde(ctx: KappaContext, state: EnsembleState, j: int,
                  pair: tuple[str, str]) -> tuple[float, float]:
    """(sigma, mu) of d sin2(P - Q) / sin2(P - Q) for growth in t_j.

    Assembled from the component angle SDEs: with u = P - Q,
    dX/X = (1/2) cot2(u) du - (1/8) d<u>.
    """
    _check_j(j)
    p, q = pair
    su_p, mu_p = _angle_sde(ctx, state, j, p)
    su_q, mu_q = _angle_sde(ctx, state, j, q)
    su = su_p - su_q
    mu = mu_p - mu_q
    u = state.angle(p) - state.angle(q)
    half_cot = 0.5 * cot2(u)
    return half_cot * su, half_cot * mu - ctx.kappa / 8.0 * su * su


def _to_log(ctx: KappaContext, sigma: float, mu: float) -> tuple[float, float]:
    """Convert a ratio-form pair (dX/X) to the log-form pair (d log X)."""
    return sigma, mu - 0.5 * ctx.kappa * sigma * sigma


def _to_ratio(ctx: KappaContext, sigma: float, mu: float
              ) -> tuple[float, float]:
    return sigma, mu + 0.5 * ctx.kappa * sigma * sigma


def _log_sine_sdes(ctx: KappaContext, state: EnsembleState, j: int) -> dict:
    """Log-form pairs (sigma, mu) of d log sin2(P - Q) for growth in t_j,
    keyed by the six (P, Q) of ``_C4_PAIRS``; ``_R_PAIRS`` is a subset."""
    return {pair: _to_log(ctx, *sin_ratio_sde(ctx, state, j, pair))
            for pair in _C4_PAIRS}


def _log_cross_ratio_sde(log_sines: dict) -> tuple[float, float]:
    sigma = 0.0
    mu = 0.0
    for pair, sign in _R_PAIRS:
        s, m = log_sines[pair]
        sigma += sign * s
        mu += sign * m
    return sigma, mu


def _hyp_factor_sde(ctx: KappaContext, hyp,
                    log_sines: dict) -> tuple[float, float]:
    """Ratio-form pair of Ftilde(R) = R^{2/k} F(R) from the log-form pair
    of R, with H = d log Ftilde / d log R = 2/k + R F'/F and its
    R-derivative H' = F'/F + R F''/F - R (F'/F)^2, F'' from the
    hypergeometric ODE x(1-x) F'' + [c - (a+b+1)x] F' - ab F = 0."""
    R, F, Fp = hyp
    a, b, c = ctx.hyp_a, ctx.hyp_b, ctx.hyp_c
    Fpp = (a * b * F - (c - (a + b + 1.0) * R) * Fp) / (R * (1.0 - R))
    lp = Fp / F
    H = 2.0 / ctx.kappa + R * lp
    Hp = lp + R * Fpp / F - R * lp * lp
    s_lr, m_lr = _log_cross_ratio_sde(log_sines)
    sigma = H * s_lr
    mu = H * m_lr + 0.5 * ctx.kappa * s_lr * s_lr * R * Hp
    return _to_ratio(ctx, sigma, mu)


def _log_M_sde(ctx: KappaContext, state: EnsembleState, j: int, mode: str,
               hyp, rhs: dict, log_sines: dict):
    kap = ctx.kappa
    b = ctx.sle_b
    wj1 = state.tip_deriv(j, 1)
    wj2 = state.tip_deriv(j, 2)
    wj3 = state.tip_deriv(j, 3)

    # own first derivative: ratio-form pair of d W_{j,1} / W_{j,1}
    s_own = wj2 / wj1
    m_own = (rhs["ln_W11_tip_flow"] + 0.5 * kap * wj3 / wj1)
    s_ln_own, m_ln_own = _to_log(ctx, s_own, m_own)

    sigma = b * s_ln_own
    mu = b * m_ln_own
    # passive first derivatives evolve deterministically; their logs too
    mu += b * (rhs["ln_W1_passive"] + rhs["ln_V11"] + rhs["ln_V21"])
    # interaction integral and explicit time factor
    mu -= ctx.sle_c / 6.0 * rhs["Icc"]
    mu -= b / 6.0

    if mode == "c4":
        mu += (60.0 / (8.0 * kap) + b / 6.0) * rhs["mA"]
        for pair in _C4_PAIRS:
            s, m = log_sines[pair]
            sigma += 2.0 / kap * s
            mu += 2.0 / kap * m
    else:
        mu += ((kap - 6.0) * (kap - 2.0) / (8.0 * kap) + b / 6.0) * rhs["mA"]
        for pair in (("W1", "V1"), ("W2", "V2")):
            s, m = log_sines[pair]
            sigma -= 2.0 * b * s
            mu -= 2.0 * b * m
        s, m = _to_log(ctx, *_hyp_factor_sde(ctx, hyp, log_sines))
        sigma += s
        mu += m
    return sigma, mu


def drift_residual(ctx: KappaContext, state: EnsembleState, j: int,
                   mode: str):
    """Ito drift of log M plus (kappa/2) times the squared displayed
    martingale coefficient; identically zero iff M is a local martingale.
    A float for one state, an array of the batch's shape for a batch.

    In mode "ch" both terms read F and F' at the cross-ratio R; they are
    evaluated once per call and shared.
    """
    _check_j(j)
    _check_mode(mode)
    res = _drift_residual(ctx, state, j, mode, _hyp_point(ctx, state, mode),
                          ode_rhs(state, j), _log_sine_sdes(ctx, state, j))
    return float(res) if np.ndim(res) == 0 else res


def _drift_residual(ctx: KappaContext, state: EnsembleState, j: int,
                    mode: str, hyp, rhs: dict, log_sines: dict):
    _, mu = _log_M_sde(ctx, state, j, mode, hyp, rhs, log_sines)
    s_disp = _martingale_coefficient(ctx, state, j, mode, hyp)
    return mu + 0.5 * ctx.kappa * s_disp * s_disp


def drift_residuals(ctx: KappaContext, states: EnsembleState) -> np.ndarray:
    """``drift_residual`` at every state of a batch, curve j and mode, as
    an array of shape batch + (2, 2) indexed [..., j - 1, mode] with modes
    ordered ("c4", "ch"); each entry is the per-state value bit for bit.
    F and F' are evaluated in one vector call over all states, and
    ``ode_rhs`` and the sine-factor rows once per j for both modes."""
    hyp = _hyp_point(ctx, states, "ch")
    out = np.empty(np.shape(states.W1) + (2, 2))
    for j in (1, 2):
        rows = (ode_rhs(states, j), _log_sine_sdes(ctx, states, j))
        for m, mode in enumerate(("c4", "ch")):
            out[..., j - 1, m] = _drift_residual(ctx, states, j, mode, hyp,
                                                 *rows)
    return out


# ---------------------------------------------------------------------------
# random states for verification sweeps
# ---------------------------------------------------------------------------

# A sampling attempt reads 4 uniforms (three cuts, then W1) and is
# rejected when a cyclic gap falls below 0.1; an accepted one reads 12
# more, in the order of the fields below.
_ATTEMPT_DRAWS = 4
_STATE_DRAWS = 16
_TAIL_FIELDS = (("t1", 0.5, 2.0), ("t2", 0.5, 2.0), ("mA", 0.1, 0.9),
                ("W11", 0.2, 0.95), ("W21", 0.2, 0.95),
                ("W12", -2.0, 2.0), ("W22", -2.0, 2.0),
                ("W13", -2.0, 2.0), ("W23", -2.0, 2.0),
                ("V11", 0.2, 0.95), ("V21", 0.2, 0.95),
                ("Icc", -1.0, 1.0))


def _uniform(lo: float, hi: float, u):
    """What ``Generator.uniform(lo, hi)`` computes from the doubles u."""
    return lo + (hi - lo) * u


def _attempt_angles(u, at):
    """(W1, V1, W2, V2, accepted) of the attempts starting at the draws
    ``at`` of u: the three cuts sorted descending set V1, W2, V2 behind
    W1, and an attempt is accepted when every cyclic gap is at least
    0.1."""
    cuts = np.sort(_uniform(0.0, TWO_PI, u[at[:, None] + np.arange(3)]))
    w1 = _uniform(0.0, TWO_PI, u[at + 3])
    v1, w2, v2 = (w1 - (TWO_PI - cuts[:, i]) for i in (2, 1, 0))
    gaps = (w1 - v1, v1 - w2, w2 - v2, v2 - (w1 - TWO_PI))
    return w1, v1, w2, v2, np.minimum.reduce(gaps) >= 0.1


def sample_states(n: int, seed: int) -> EnsembleState:
    """A batch of n well-separated random valid states for drift-
    cancellation sweeps, from the doubles of
    ``np.random.default_rng(seed).random`` in blocks of 17 n.

    Angles keep a minimum cyclic gap of 0.1 (clear of the cot2 poles),
    first derivatives lie in [0.2, 0.95], second/third tip derivatives in
    [-2, 2], times in [0.5, 2] with mA in the interior 10-90% of its
    admissible interval; that interior margin keeps small finite-
    difference evolutions of the state valid.

    The accept flag of an attempt starting at every draw is one array
    pass; an index walk over the flags then finds the accepted attempts
    (a rejection moves on 4 draws, an acceptance 16), and each field is
    one gather and one array expression on their draws.  A draw is read
    as a loop of one ``rng.uniform`` call per value would read it, with
    the same operations, so the bits are that loop's.
    """
    rng = np.random.default_rng(seed)
    u = np.empty(0)
    starts = []
    pos = 0
    while len(starts) < n:
        if pos + _STATE_DRAWS > u.size:
            # 16 draws per state and about one more per state for the
            # rejections; consecutive blocks continue one stream
            u = np.concatenate((u, rng.random(17 * n)))
            flags = _attempt_angles(
                u, np.arange(u.size - _ATTEMPT_DRAWS + 1))[-1].tolist()
        if flags[pos]:
            starts.append(pos)
            pos += _STATE_DRAWS
        else:
            pos += _ATTEMPT_DRAWS
    at = np.array(starts, dtype=np.intp)
    w1, v1, w2, v2, _ = _attempt_angles(u, at)
    fields = {"W1": w1, "V1": v1, "W2": w2, "V2": v2}
    for k, (name, lo, hi) in enumerate(_TAIL_FIELDS):
        fields[name] = _uniform(lo, hi, u[at + _ATTEMPT_DRAWS + k])
    t_lo = np.maximum(fields["t1"], fields["t2"])
    fields["mA"] = _uniform(t_lo, fields["t1"] + fields["t2"], fields["mA"])
    return EnsembleState(**fields)
