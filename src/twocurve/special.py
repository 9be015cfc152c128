"""Hypergeometric interaction function and Jacobi-polynomial utilities.

The interaction function is ``F(x) = 2F1(4/kappa, 1 - 4/kappa; 8/kappa; x)``
on [-1/2, 1].  It is computed from scratch: a power series on [-1/2, 1/2],
Taylor re-expansion of ``x(1-x)F'' + (8/kappa - 2x)F' - (4/kappa)(1 -
4/kappa)F = 0`` on (1/2, 1), and the Gauss formula at x = 1, where the
endpoint behavior is non-analytic.  The logarithmic-derivative
combinations G and G-tilde and the Jacobi-polynomial helpers used by the
spectral basis live here too.

The power series stops once a step leaves every sum unchanged (adding or
subtracting its terms) and a coefficient-ratio bound shows that no later
term is larger; the dropped terms would all have been no-op additions, so
the result is the full 400-term sum bit for bit (see ``_series_F_and_dF``).

Taylor re-expansion (the Taylor-series method of Pearson, Olver & Porter,
"Numerical methods for the computation of the confluent and Gauss
hypergeometric functions", Numer. Algorithms 74, 2017) carries F from 1/2
toward 1 on centres x_0 = 1/2, x_{k+1} = x_k + (1 - x_k)/2, that is
x_k = 1 - 2^-(k+1): 53 centres, the last of them the last double below 1.
Each centre holds the series of F in the scaled variable t = (x - x_k)/h_k,
h_k = (1 - x_k)/2, whose coefficients follow from the ODE's three-term
recurrence; the nearest singularity (x = 1) lies at t = 2, so the terms
fall like 2^-n on the step 0 <= t <= 1, once n is past 4/kappa: the
degree is max(60, ceil(30/kappa)) (``_taylor_degree``).  F and F' at the
step's end seed the next centre (see ``_taylor_table``).

F and F' at a point do not depend on the other points of the batch: a
vector call returns the same bits as scalar calls at each of its points.
Gamma functions come from Python's ``math.gamma`` and ``math.lgamma``
(CPython's own Lanczos approximation, not the C library's).
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .context import KappaContext

__all__ = [
    "log_gamma",
    "hyp_F", "hyp_dF", "hyp_F_and_dF", "hyp_F_at_1", "hyp_G", "hyp_tilde_G",
    "jacobi", "jacobi_seq", "jacobi_l2_norm_sq", "jacobi_sup_norm",
    "h_const",
    "gtilde_table",
]

_SERIES_MAX_TERMS = 400


def log_gamma(x):
    """Natural log of the Gamma function for x > 0 (elementwise), from
    ``math.lgamma`` (CPython's Lanczos approximation, not the C library's
    ``lgamma``).

    Arguments repeat (a basis forms j + 1, n - j + 8/kappa, ...), so
    ``math.lgamma`` runs once per entry of a table that the values are
    gathered from: the grid lo, lo + 1, ... when every entry is the double
    lo + k for an integer k below the array's size (found without
    sorting), else the distinct entries.

    Raises:
        ValueError: if any entry is <= 0.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("log_gamma requires x > 0")
    if x.ndim == 0:
        return math.lgamma(float(x))
    flat = x.ravel()
    lo = float(flat.min()) if flat.size else 0.0
    steps = np.rint(flat - lo)
    if flat.size and steps.max() < flat.size \
            and np.array_equal(lo + steps, flat):
        vals = lo + np.arange(steps.max() + 1.0)
        inverse = steps.astype(np.intp)
    else:
        vals, inverse = np.unique(flat, return_inverse=True)
    lg = np.array([math.lgamma(v) for v in vals.tolist()], dtype=float)
    return lg[inverse].reshape(x.shape)


# ---------------------------------------------------------------------------
# interaction function F
# ---------------------------------------------------------------------------

def _series_F_and_dF(ctx: KappaContext, x):
    """Power series for (F, F') at |x| <= 1/2 (or everywhere if terminating).

    Step n adds t_n = c_{n+1} x^{n+1} to F and d_n = (n+1) c_{n+1} x^n to
    F', with c_{n+1} = c_n rho_n and rho_n = (a+n)(b+n) / ((c+n)(n+1)).
    The loop ends at the first zero coefficient (kappa = 2, 4), after
    ``_SERIES_MAX_TERMS`` steps, or as soon as both of these hold:

    * step n left every element of F and F' unchanged, and subtracting its
      terms instead of adding them would have left them unchanged too;
    * no later term of F or F' is larger in magnitude than step n's.

    Rounding to nearest is monotone, so a term no larger than one whose
    addition and subtraction both leave a sum unchanged leaves it
    unchanged as well: every dropped term would have been a no-op, and the
    result is bit for bit the full sum.

    The bound behind the second condition: with X = max|x|, both
    |t_{m+1} / t_m| and |d_{m+1} / d_m| are at most
    r_m = |rho_{m+1}| X (m+2)/(m+1).  For this F, b = 1 - a and c = 2a
    with a = 4/kappa > 0, so

        1 - rho_j = a (2j + 1 + a) / ((j + 2a)(j + 1)) > 0,
        1 + rho_j = (2 (j+1)(j+a) + a (1-a)) / ((j + 2a)(j + 1)),

    and the numerator of 1 + rho_j grows with j.  Hence rho_j < 1 always,
    and once rho_{n+1} >= -1 it stays so: if also X <= 1/2, then
    r_m <= (m+2) / (2(m+1)) <= 3/4 for every m > n.  The loop asks
    r_n <= 3/4 as well.  The margin below 1 covers the rounding of the
    computed terms (relative error under 1e-12 over 400 steps, away from
    underflow).
    """
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


def _is_terminating(ctx: KappaContext) -> bool:
    b = ctx.hyp_b
    return b <= 1e-12 and abs(b - round(b)) < 1e-9


def _taylor_degree(kappa: float) -> int:
    """Degree of every centre's series: max(60, ceil(30/kappa)).

    The terms fall like 2^-n on 0 <= t <= 1 only once n is past a = 4/kappa;
    before that they grow with the Pochhammer factor (a)_n.  At kappa 0.3
    a cut at degree 60 drops a last coefficient of -3e-9 (the first is
    4e-2) and F near 1 is off by 6e-7, so the degree grows like 1/kappa
    below kappa 1/2; from there up it is 60 and every table keeps its
    coefficients.  Below kappa 0.3 the power-series seed at x = 1/2, not
    the degree, limits the accuracy.
    """
    return max(60, math.ceil(30.0 / kappa))


def _taylor_table(ctx: KappaContext):
    """Taylor re-expansion of F on [1/2, 1), cached per context.

    Centre k sits at x_k = 1 - 2^-(k+1) and serves [x_k, x_{k+1}) with
    t = (x - x_k)/h_k in [0, 1), h_k = (1 - x_k)/2.  The centres run while
    x_k < 1: 53 of them, the last at the last double below 1, 1 - 2^-53,
    which it serves alone (t = 0).  With F(x_k + h t) = sum_n u_n t^n,
    the ODE x(1-x)F'' + (c - (a+b+1)x)F' - abF = 0 gives

        x_k(1-x_k)(n+2)(n+1) u_{n+2}
            = h^2 (n+a)(n+b) u_n
              - (n+1) h ((1 - 2x_k) n + c - (a+b+1) x_k) u_{n+1},

    from u_0 = F(x_k) and u_1 = h F'(x_k).  The correctly rounded sums of
    the series of F and of F' at t = 1 (``math.fsum``) seed the next
    centre; the first is seeded by the power series at 1/2.

    Returns:
        (centres, steps, series): the series of F and F' of centre k in
        t = (x - centres[k]) / steps[k] is series[:, :, k], of shape
        (degree + 1, 2): the coefficient pairs (of F, of F') from the top
        degree down to 0, as ``_horner`` reads them.
    """
    table = ctx._cache.get("hyp_taylor")
    if table is not None:
        return table
    a, b, c = ctx.hyp_a, ctx.hyp_b, ctx.hyp_c
    degree = _taylor_degree(ctx.kappa)
    f0, df0 = _series_F_and_dF(ctx, 0.5)
    f, df = float(f0), float(df0)
    centres, steps, series = [], [], []
    x0 = 0.5
    while x0 < 1.0:
        h = (1.0 - x0) / 2.0
        p0 = x0 * (1.0 - x0)
        q0 = c - (a + b + 1.0) * x0
        u = [f, h * df]
        for n in range(degree - 1):
            u.append((h * h * (n + a) * (n + b) * u[n]
                      - (n + 1.0) * h * ((1.0 - 2.0 * x0) * n + q0) * u[n + 1])
                     / (p0 * (n + 2.0) * (n + 1.0)))
        du = [(n + 1.0) * u[n + 1] / h for n in range(degree)] + [0.0]
        centres.append(x0)
        steps.append(h)
        series.append([u[::-1], du[::-1]])
        f, df = math.fsum(u), math.fsum(du)
        x0 += h
    series = np.ascontiguousarray(np.array(series).transpose(2, 1, 0))
    table = (np.array(centres), np.array(steps), series)
    ctx._cache["hyp_taylor"] = table
    return table


def _horner(series, k, t):
    """(F, F') rows at the points t of the centres k: Horner's rule at
    the full degree, each point on its own centre's coefficients."""
    acc = np.zeros((2, t.size))
    for column in series:
        acc *= t
        acc += np.take(column, k, axis=1)
    return acc


def _taylor_F_and_dF(ctx: KappaContext, x):
    """(F, F') on (1/2, 1) from the Taylor table: the value at a point is
    the same in any batch."""
    centres, steps, series = _taylor_table(ctx)
    k = np.searchsorted(centres, x, side="right") - 1
    return _horner(series, k, (x - centres[k]) / steps[k])


def hyp_F_at_1(ctx: KappaContext) -> float:
    """F(1) = Gamma(8/k) Gamma(8/k - 1) / (Gamma(4/k) Gamma(12/k - 1))."""
    k = ctx.kappa
    return float(np.exp(log_gamma(8.0 / k) + log_gamma(8.0 / k - 1.0)
                        - log_gamma(4.0 / k) - log_gamma(12.0 / k - 1.0)))


def _eval_F_dF(ctx: KappaContext, x):
    """Vectorized (F, F') on [-1/2, 1]: the power series on [-1/2, 1/2],
    the Taylor table on (1/2, 1) and the Gauss value at 1, where F'(1) may
    be +inf (kappa > 4)."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= -0.5) & (x <= 1.0)):
        raise ValueError("hyp_F requires x in [-1/2, 1]")
    if _is_terminating(ctx):
        return _series_F_and_dF(ctx, x)
    F = np.empty_like(x)
    dF = np.empty_like(x)
    lo = x <= 0.5
    if np.any(lo):
        F[lo], dF[lo] = _series_F_and_dF(ctx, x[lo])
    mid = (x > 0.5) & (x < 1.0)
    if np.any(mid):
        F[mid], dF[mid] = _taylor_F_and_dF(ctx, x[mid])
    at1 = x == 1.0
    if np.any(at1):
        F[at1] = hyp_F_at_1(ctx)
        k = ctx.kappa
        if k < 4.0:
            a, b, c = ctx.hyp_a, ctx.hyp_b, ctx.hyp_c
            gamma = math.gamma
            dF[at1] = (a * b / c) * (gamma(c + 1.0) * gamma(c - a - b - 1.0)
                                     / (gamma(c - a) * gamma(c - b)))
        elif k == 4.0:
            dF[at1] = 0.0
        else:
            dF[at1] = np.inf
    return F, dF


def hyp_F_and_dF(ctx: KappaContext, x):
    """(F(x), F'(x)) on [-1/2, 1] from one evaluation; floats for scalar x."""
    scalar = np.isscalar(x) or np.ndim(x) == 0
    F, dF = _eval_F_dF(ctx, np.atleast_1d(x))
    return (float(F[0]), float(dF[0])) if scalar else (F, dF)


def hyp_F(ctx: KappaContext, x):
    """Interaction function F(x) = 2F1(4/k, 1-4/k; 8/k; x) on [-1/2, 1]."""
    return hyp_F_and_dF(ctx, x)[0]


def hyp_dF(ctx: KappaContext, x):
    """Derivative F'(x) on [-1/2, 1] (+inf at x = 1 when kappa > 4)."""
    return hyp_F_and_dF(ctx, x)[1]


def hyp_G(ctx: KappaContext, x):
    """G(x) = kappa x F'(x) / F(x) on (0, 1]; G(0+) = 0 exposed at x = 0.

    Raises:
        ValueError: for x < 0 or x > 1.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((xa >= 0.0) & (xa <= 1.0)):
        raise ValueError("hyp_G requires x in [0, 1]")
    F, dF = _eval_F_dF(ctx, xa)
    with np.errstate(invalid="ignore"):
        out = ctx.kappa * xa * dF / F
    out[xa == 0.0] = 0.0
    if ctx.kappa > 4.0:
        out[xa == 1.0] = np.inf
    return float(out[0]) if scalar else out


def hyp_tilde_G(ctx: KappaContext, x):
    """G-tilde(x) = G(x) + 2 on (0, 1]; the limit value 2 at 0+ is exposed."""
    g = hyp_G(ctx, x)
    return g + 2.0


# ---------------------------------------------------------------------------
# Jacobi polynomials
# ---------------------------------------------------------------------------

def jacobi_seq(n_max: int, alpha: float, beta: float, x):
    """Yield P_0, ..., P_{n_max} of P^{(alpha, beta)} at the float array x.

    The one three-term recurrence of the package: ``jacobi`` reads its
    last value, the spectral-basis evaluator in ``density`` reads every
    degree.  Each yielded value is a new array.
    """
    p_prev = np.ones_like(x)
    yield p_prev
    if n_max < 1:
        return
    s = alpha + beta
    p_cur = ((s + 2.0) * x + (alpha - beta)) / 2.0
    yield p_cur
    for n in range(2, n_max + 1):
        c1 = 2.0 * n * (n + s) * (2.0 * n + s - 2.0)
        c2 = (2.0 * n + s - 1.0) / c1
        a = c2 * (2.0 * n + s) * (2.0 * n + s - 2.0)
        b = c2 * (alpha * alpha - beta * beta)
        c = 2.0 * (n + alpha - 1.0) * (n + beta - 1.0) * (2.0 * n + s) / c1
        p_prev, p_cur = p_cur, (a * x + b) * p_cur - c * p_prev
        yield p_cur


def jacobi(n: int, alpha: float, beta: float, x):
    """Jacobi polynomial P_n^{(alpha, beta)}(x), last of ``jacobi_seq``."""
    if n < 0:
        raise ValueError("jacobi requires n >= 0")
    *_, p = jacobi_seq(n, alpha, beta, np.asarray(x, dtype=float))
    return p if np.ndim(p) else float(p)


def jacobi_l2_norm_sq(n: int, alpha: float, beta: float) -> float:
    """Squared L2 norm of P_n^{(alpha,beta)} w.r.t. (1-x)^alpha (1+x)^beta."""
    if n < 0 or alpha <= -1.0 or beta <= -1.0:
        raise ValueError("jacobi_l2_norm_sq requires n >= 0, alpha, beta > -1")
    lg = ((alpha + beta + 1.0) * np.log(2.0)
          + log_gamma(n + alpha + 1.0) + log_gamma(n + beta + 1.0)
          - log_gamma(n + 1.0) - log_gamma(n + alpha + beta + 1.0))
    return float(np.exp(lg) / (2.0 * n + alpha + beta + 1.0))


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


def h_const(ctx: KappaContext, n, j):
    """Normalization h_{n,j} of the disc eigenbasis.

    h^2 = (1 + ind(n != 2j))/pi * j! (n + 8/k) Gamma(n - j + 8/k)
          / (Gamma(j + 8/k) Gamma(n - j + 1)).

    n and j may be integer arrays of one shape (elementwise, as for every
    mode of a basis at once); scalars give a float.  Each element is the
    same sequence of operations as the scalar call, so both agree bit for
    bit.

    Raises:
        ValueError: if 2j > n or j < 0 anywhere (no such basis element).
    """
    n = np.asarray(n)
    j = np.asarray(j)
    if np.any(j < 0) or np.any(2 * j > n):
        raise ValueError("h_const requires 0 <= 2j <= n")
    ek = ctx.hyp_c  # 8/kappa
    pref = np.where(n == 2 * j, 1.0, 2.0)
    lg = (log_gamma(j + 1.0) + np.log(n + ek) + log_gamma(n - j + ek)
          - log_gamma(j + ek) - log_gamma(n - j + 1.0))
    out = np.sqrt(pref / np.pi * np.exp(lg))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# lookup table for kernels
# ---------------------------------------------------------------------------

_GT_TABLE_N = 20001
_GT_TABLE_XMAX = 1.0 - 1e-8


@functools.cache
def gtilde_table(kappa: float):
    """Uniform table of G-tilde in u = -log(1-x), for interpolation in kernels,
    built once per kappa (the cache holds no context).

    Returns:
        (u_max, values, du): values[i] = G-tilde(1 - exp(-u_i)) on the
        uniform grid u_i = i * du, du = u_max / (_GT_TABLE_N - 1), up to
        x = _GT_TABLE_XMAX.
    """
    u_max = float(-np.log1p(-_GT_TABLE_XMAX))
    u = np.linspace(0.0, u_max, _GT_TABLE_N)
    x = -np.expm1(-u)
    vals = np.asarray(hyp_tilde_G(KappaContext(kappa), x), dtype=float)
    vals.flags.writeable = False
    return u_max, vals, u_max / (vals.size - 1)
