"""Spectral heat kernel for the two-radius diffusion on the unit disc.

The generator

    L f = (k/8)(1-x^2) f_xx + (k/8)(1-y^2) f_yy - (k/4) x y f_xy
          - (2 + k/8) (x f_x + y f_y)

is symmetric with respect to the weight Psi(x, y) = (1 - x^2 - y^2)^{8/k-1}
on the unit disc, and its eigenfunctions are Jacobi-type polynomials with
eigenvalues lambda_n = -(k/8) n (n + 16/k) depending only on the total
degree n.  This module provides:

  * the orthonormal eigenbasis (``SpectralBasis``, ``eigenvalue``);
  * the series truncation ``truncation(basis, t)``: the one place that
    decides, from (basis, t) and the tolerance ``SERIES_RTOL``, the level
    of every heat-kernel sum, survival included;
  * the transition density ``p_t`` and its stationary limit ``p_infty``;
  * the tilted sub-Markov density ``tilde_pZ_t`` of the same kernel in gap
    coordinates (z1, z2) in (0, pi)^2, where x = cos((z1+z2)/2),
    y = sin((z1-z2)/2), obtained by weighting with the diagonal Green's
    function and the decay rate alpha0;
  * the normalizing constant ``Z_constant`` and the tilted stationary law
    ``tilde_pZ_infty``;
  * quadrature-based survival probabilities ``survival_P2``;
  * a finite-difference application of the generator (``generator_apply``)
    for residual checks, with one call of the applied function on the
    stacked stencil.

What depends on kappa alone is a ``functools.cache`` function of the
context, built once per kappa and read by every later call: the tail
table per top level, Z with its quadrature report, and per function
(pZ_infty / G_u, and G_u) a grid on the tanh-sinh nodes asked so far and
its value at the last points asked (``_values_of``).  What a call
evaluates at its own times and points stays on its basis: truncations,
the modes and G_u at the last start point, and the survival mode
integrals, whose bits depend on the first level asked.  Every cached
value has the bits of a direct evaluation, whatever ran before.  Z and
the survival mode integrals run on ``quadrature.square_integrate``;
``quadrature_report`` gives its report of each.

Every series runs on one evaluator, ``mode_blocks``: per angular order m
and block of points, the matrix V[k, p] = v_k(x_p, y_p) from the Jacobi
recurrence ``special.jacobi_seq`` and the powers (x + i y)^m.  Series
sums, survival mode integrals, the modes at one point and the pointwise
kernel are contractions of V; ``p_t`` and ``tilde_pZ_t`` take their
kernel from one truncated sum, ``_series``.  No V holds more than
``_CHUNK`` entries, which bounds the memory of every sum; the checks
read the dense matrix ``mode_values``.  The tests keep the per-mode
formula h P_j(2 r^2 - 1) r^m cos/sin(m theta) as the independent oracle
of the evaluator.
"""

from __future__ import annotations

import functools

import numpy as np

from .context import KappaContext
from .green import G_u, _coord_arrays, _z_arrays
from .quadrature import square_integrate, tanh_sinh_rule
from .special import h_const, hyp_F, jacobi_seq, log_gamma
from .timecurve import xy_of_z

__all__ = [
    "SpectralBasis",
    "SERIES_RTOL",
    "eigenvalue",
    "mode_blocks",
    "mode_values",
    "truncation",
    "generator_apply",
    "p_t",
    "p_infty",
    "tilde_pZ_t",
    "pz_over_gu_grid",
    "Z_constant",
    "tilde_pZ_infty",
    "survival_P2",
    "quadrature_report",
]

# Tolerance of the series truncation: the discarded tail, relative to the
# stationary density, uniformly over the disc.
SERIES_RTOL = 1e-9

# Hard cap on the series truncation degree; beyond this the sup-norm tail
# bound is dominated by binomial growth and adds nothing at the times of
# interest, so requests that cannot converge are reported, not refined.
N_CAP = 60

# First and last top level of the tail-bound scan.  The summand
# exp(lambda_n t) * T_n peaks near n ~ 8/(k t), then falls to 0.0.  Where
# it is still nonzero at _N_SCAN (8e-55 at kappa 2, t 0.002; inf at
# kappa 0.5, t 0.004) the tail misses the levels past it, but such a time
# never converges below the level cap: it is reported unconverged.
_SCAN_START = 128
_N_SCAN = 2048

# Most entries of one mode-value block V of ``mode_blocks``, and most
# quadrature points per block of the survival mode integrals.
_CHUNK = 200_000


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------


class SpectralBasis:
    """Orthonormal polynomial eigenbasis of L on the unit disc.

    A mode is labelled (n, j, i): total degree n, radial index j, and
    angular type i (1 for cos, 2 for sin).  In polar coordinates,

        v_{n,j,1} = h_{n,j} P_j^{(8/k-1, m)}(2 r^2 - 1) r^m cos(m theta),
        v_{n,j,2} = h_{n,j} P_j^{(8/k-1, m)}(2 r^2 - 1) r^m sin(m theta),

    with m = n - 2j; the sin mode exists only for m >= 1.  Level n carries
    n + 1 modes, all with eigenvalue lambda_n.  Instances are immutable
    after construction; evaluation helpers are read-only.
    """

    def __init__(self, ctx: KappaContext, n_max: int = N_CAP):
        if isinstance(n_max, bool) \
                or not isinstance(n_max, (int, np.integer)) or n_max < 0:
            raise ValueError("n_max must be a nonnegative integer")
        self.ctx = ctx
        self.n_max = int(n_max)
        self.weight_exponent = ctx.weight_exponent

        # level n holds its n//2 + 1 cos modes (j = 0, 1, ...), then its
        # (n+1)//2 sin modes, from flat index n(n+1)/2 on
        ns, js, iis = [], [], []
        for n in range(self.n_max + 1):
            for i, count in ((1, n // 2 + 1), (2, (n + 1) // 2)):
                ns += [n] * count
                js += range(count)
                iis += [i] * count
        self.mode_n = np.asarray(ns, dtype=np.int64)
        self.mode_j = np.asarray(js, dtype=np.int64)
        self.mode_i = np.asarray(iis, dtype=np.int64)
        levels = np.arange(self.n_max + 2, dtype=np.int64)
        self._level_start = levels * (levels + 1) // 2
        self.mode_h = h_const(ctx, self.mode_n, self.mode_j)
        # caches filled lazily: the survival mode integrals, the result of
        # ``truncation`` per time, and the last point of ``_modes_at`` and
        # of G_u (``_last_points``)
        self._survival_cache = None
        self._truncations = {}
        self._point_modes = None
        self._start_gu = {}

    @property
    def n_modes(self) -> int:
        return int(self.mode_n.size)

    def modes_up_to(self, n_limit: int) -> int:
        """Number of modes with level <= n_limit."""
        n_limit = min(int(n_limit), self.n_max)
        return int(self._level_start[n_limit + 1])


def eigenvalue(ctx: KappaContext, n):
    """Eigenvalue lambda_n = -(k/8) n (n + 16/k) of the disc generator, at
    an integer n >= 0, or elementwise (same bits) at an integer array."""
    n = np.asarray(n)
    if n.dtype.kind not in "iu" or np.any(n < 0):  # booleans included
        raise ValueError("eigenvalue requires integers n >= 0")
    val = -(ctx.kappa / 8.0) * n * (n + 16.0 / ctx.kappa)
    return float(val) if np.ndim(val) == 0 else val


# ---------------------------------------------------------------------------
# the mode evaluator
# ---------------------------------------------------------------------------


def mode_blocks(basis: SpectralBasis, n_limit: int, x, y):
    """Yield (rows, sl, V), V[k, p] = v_{rows[k]}(x[sl][p], y[sl][p]).

    One step per block of points (x, y read flat) and angular order m of
    the modes of level <= n_limit: rows lists the order's cos modes, then
    its sin modes.  V has at most _CHUNK entries; the next step reuses it.
    """
    e = basis.weight_exponent
    x = np.ravel(x)
    y = np.ravel(y)
    starts = basis._level_start
    orders = []
    for m in range(n_limit + 1):
        js = np.arange((n_limit - m) // 2 + 1)
        cos_rows = starts[m + 2 * js] + js
        sin_rows = cos_rows + (m + 2 * js) // 2 + 1 if m > 0 else js[:0]
        orders.append((cos_rows, np.concatenate((cos_rows, sin_rows))))
    width = max(rows.size for _, rows in orders)
    step = max(1, _CHUNK // width)
    for lo in range(0, x.size, step):
        sl = slice(lo, lo + step)
        xb, yb = x[sl], y[sl]
        u = np.minimum(2.0 * (xb * xb + yb * yb) - 1.0, 1.0)
        z = xb + 1j * yb
        zm = np.ones_like(z)  # r^m e^{i m theta}
        buf = np.empty((width, xb.size))
        for m, (cos_rows, rows) in enumerate(orders):
            nj = cos_rows.size
            V = buf[:rows.size]
            h = basis.mode_h[cos_rows]
            for j, p in enumerate(jacobi_seq(nj - 1, e, float(m), u)):
                np.multiply(p, h[j], out=V[j])
            if m > 0:
                zm *= z
                np.multiply(V[:nj], zm.imag, out=V[nj:])
            V[:nj] *= zm.real
            yield rows, sl, V


def mode_values(basis: SpectralBasis, n_limit: int, x, y):
    """V[s, p] = v_s(x[p], y[p]) for the modes of level <= n_limit at the
    points read flat, scattered from ``mode_blocks``; ValueError for a
    point outside the closed unit disc."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    _check_disc(x, y, "mode_values points")
    out = np.empty((basis.modes_up_to(n_limit), x.size))
    for rows, sl, V in mode_blocks(basis, n_limit, x, y):
        out[rows, sl] = V
    return out


def _modes_at(basis: SpectralBasis, n_limit: int, x, y):
    """Vector of v_s(x, y) at one point for the modes of level <= n_limit.

    The basis keeps the vector of the last point asked, at the highest
    level asked there, and answers a lower level with its head.  The head
    is the lower level's vector bit for bit: an entry depends on its own
    mode only, and the recurrence and the powers of x + i y take the same
    steps whatever the top level.  The vector is read-only.
    """
    key = (np.asarray(x).tobytes(), np.asarray(y).tobytes())
    memo = basis._point_modes
    if memo is None or memo[0] != key or memo[1] < n_limit:
        memo = basis._point_modes = (
            key, n_limit, mode_values(basis, n_limit, x, y)[:, 0])
    return memo[2][:basis.modes_up_to(n_limit)]


# ---------------------------------------------------------------------------
# truncation control
# ---------------------------------------------------------------------------


@functools.cache
def _tail_logs(ctx: KappaContext, n_top: int = _N_SCAN):
    """log of the level tail weights T_n = (n+1) max_j sup(v_{n,j})^2.

    Levels 0 to n_top, built once per kappa and top level, read-only; a
    shorter table is the head of a longer one bit for bit (each entry
    depends on its own level only).  Used to pick the series truncation
    so the discarded tail, measured relative to the n = 0 coefficient
    8/(pi k), is below the requested tolerance uniformly over the disc.

    The scan covers about n_top^2 / 4 (n, j) pairs, but every Gamma and
    log argument is an integer k in [0, n_top] (j, n - j, m = n - 2j or n)
    plus a constant.  So log_gamma and np.log run once per k on a table
    whose entries are formed as the per-pair expression would form them
    (``e + k + 1.0``, ``k + 8/kappa``, ...), and the pairs gather from the
    tables.  The gathered values are the very numbers the per-pair calls
    would return; the flat sums and the per-level max then run in the
    same order on the same operands, so the result is bit for bit the
    per-pair evaluation.
    """
    e = ctx.weight_exponent
    ek = e + 1.0  # 8/kappa
    counts = np.arange(n_top + 1) // 2 + 1
    starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    n_flat = np.repeat(np.arange(n_top + 1), counts)
    j_flat = np.arange(n_flat.size) - np.repeat(starts, counts)
    nj_flat = n_flat - j_flat
    m_flat = nj_flat - j_flat
    ints = np.arange(n_top + 1, dtype=float)
    lg_int1 = log_gamma(ints + 1.0)
    lg_int_ek = log_gamma(ints + ek)
    lg_e_int1 = log_gamma(e + ints + 1.0)
    log_pref = np.log(np.array([2.0, 1.0]) / np.pi)
    lg_j1 = lg_int1[j_flat]
    lg_nj1 = lg_int1[nj_flat]
    log_h2 = (log_pref[(n_flat == 2 * j_flat).astype(np.intp)]
              + lg_j1 + np.log(ints + ek)[n_flat]
              + lg_int_ek[nj_flat]
              - lg_int_ek[j_flat] - lg_nj1)
    log_sup_a = lg_e_int1[j_flat] - lg_j1 - log_gamma(e + 1.0)
    log_sup_b = lg_nj1 - lg_j1 - lg_int1[m_flat]
    log_sup2 = log_h2 + 2.0 * np.maximum(log_sup_a, log_sup_b)
    per_level = np.maximum.reduceat(log_sup2, starts)
    out = per_level + np.log(np.arange(n_top + 1) + 1.0)
    out.flags.writeable = False
    return out


def truncation(basis: SpectralBasis, t: float):
    """Truncation of the heat-kernel series at time t.

    Returns (n_used, tail_bound, converged): the smallest level whose
    sup-norm tail bound, relative to the n = 0 coefficient (so the
    pointwise truncation error is below tail_bound * p_infty), is at most
    SERIES_RTOL, capped at min(N_CAP, n_max); converged is False, with the
    tail bound at the cap, when the cap is hit.  t = 0 takes no series:
    level 0, converged.  The basis keeps the result of every time asked,
    so the series and survival of a time share its one scan.

    The tail table doubles its top level from _SCAN_START until the top
    summand is 0.0 at t (or to _N_SCAN).  The summands past it are 0.0
    too, and the reversed cumsum adds zeros exactly: the tails are those
    of the full _N_SCAN table.

    Raises:
        ValueError: if t < 0 or t is NaN.
    """
    if not t >= 0.0:
        raise ValueError(f"truncation requires t >= 0, got {t}")
    cached = basis._truncations.get(t)
    if cached is None:
        cached = basis._truncations[t] = _scan_truncation(basis, t)
    return cached


def _scan_truncation(basis: SpectralBasis, t: float):
    """``truncation`` of a time t >= 0 from the tail table."""
    if t == 0.0:
        return 0, 0.0, True
    ctx = basis.ctx
    n_top = _SCAN_START
    while True:
        logs = _tail_logs(ctx, n_top)
        lam = eigenvalue(ctx, np.arange(logs.size))
        # at small t summands and sums overflow: an unconverged inf bound
        with np.errstate(over="ignore"):
            terms = np.exp(lam * t + logs) * (np.pi * ctx.kappa / 8.0)
            tails = np.zeros(logs.size)
            tails[:-1] = np.cumsum(terms[::-1])[::-1][1:]
        if terms[-1] == 0.0 or logs.size > _N_SCAN:
            break
        n_top *= 2
    cap = min(N_CAP, basis.n_max)
    if tails[cap] <= SERIES_RTOL:
        n_used = int(np.argmax(tails <= SERIES_RTOL))
        return n_used, float(tails[n_used]), True
    return cap, float(tails[cap]), False


# ---------------------------------------------------------------------------
# heat kernel and stationary density
# ---------------------------------------------------------------------------


def _check_disc(x, y, label: str):
    if np.any(x * x + y * y > 1.0 + 1e-12):
        raise ValueError(f"{label} must lie in the closed unit disc")


def _lam_modes(basis: SpectralBasis, n_limit: int, t: float):
    """exp(lambda_n t) for every mode of level n <= n_limit."""
    lam_w = np.exp(eigenvalue(basis.ctx, np.arange(n_limit + 1)) * t)
    return lam_w[basis.mode_n[:basis.modes_up_to(n_limit)]]


def _series(basis, n_limit, t, fx, fy, tx, ty):
    """K = sum_s exp(lambda_n t) v_s(from) v_s(to) over the modes of level
    <= n_limit; at level 0 the constant 8/(pi k) on the broadcast shape
    of the points.

    One of the points is a scalar (K is symmetric, so it becomes a series
    in the other point), or both are arrays of one shape (pointwise).
    """
    if n_limit == 0:
        return np.full(np.broadcast_shapes(fx.shape, tx.shape),
                       8.0 / (np.pi * basis.ctx.kappa))
    lam_modes = _lam_modes(basis, n_limit, t)
    if fx.ndim == 0 or tx.ndim == 0:
        if fx.ndim != 0:
            fx, fy, tx, ty = tx, ty, fx, fy
        coef = lam_modes * _modes_at(basis, n_limit, fx, fy)
        out = np.zeros(tx.size)
        for rows, sl, V in mode_blocks(basis, n_limit, tx, ty):
            out[sl] += coef[rows] @ V
        return out.reshape(tx.shape)
    if fx.shape != tx.shape:
        raise ValueError("from/to point arrays must be scalar or same shape")
    out = np.zeros(fx.size)
    for (rows, sl, Va), (_, _, Vb) in zip(
            mode_blocks(basis, n_limit, fx, fy),
            mode_blocks(basis, n_limit, tx, ty)):
        out[sl] += lam_modes[rows] @ (Va * Vb)
    return out.reshape(fx.shape)


def p_infty(ctx: KappaContext, x, y):
    """Stationary density (8/(pi k)) (1 - x^2 - y^2)^{8/k - 1} on the disc."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_disc(x, y, "p_infty points")
    psi = np.clip(1.0 - x * x - y * y, 0.0, None) ** ctx.weight_exponent
    val = 8.0 / (np.pi * ctx.kappa) * psi
    return float(val) if np.ndim(val) == 0 else val


def p_t(basis: SpectralBasis, frm, to, t):
    """Transition density of the disc diffusion after time t.

    frm and to are (x, y) pairs; one of them may hold arrays.  The series
    is truncated at ``truncation(basis, t)``.

    Raises:
        ValueError: if t <= 0 or a point leaves the closed disc.
    """
    if not t > 0.0:
        raise ValueError("p_t requires t > 0")
    fx, fy = _coord_arrays(frm)
    tx, ty = _coord_arrays(to)
    _check_disc(fx, fy, "p_t from")
    _check_disc(tx, ty, "p_t to")
    t = float(t)
    psi = np.clip(1.0 - tx * tx - ty * ty, 0.0, None) ** basis.weight_exponent
    value = psi * _series(basis, truncation(basis, t)[0], t, fx, fy, tx, ty)
    return float(value) if np.ndim(value) == 0 else value


def generator_apply(ctx: KappaContext, f, x, y):
    """Apply the generator L to a callable f at interior points.

    f must accept numpy arrays (x, y) of any shape and act elementwise:
    its value at a point may not depend on the other points of the call.
    Values of shape (P, M) at points of shape (P, 1) are M functions.
    f is called once, on the 26 stencil point sets (5 along x, 5 along y,
    16 mixed) stacked along a new first axis, and each derivative is
    summed from the rows of that one result.  Derivatives use 4th-order
    central differences with step 1e-3; points must be at least 2e-3 away
    from the boundary so the stencil stays inside the closed disc.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x * x + y * y >= 1.0):
        raise ValueError("generator_apply requires interior points")
    h = 1e-3
    c1 = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
    o1 = np.array([-2.0, -1.0, 1.0, 2.0])
    c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    o2 = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    on1 = (0, 1, 3, 4)  # the rows of o2 at the offsets o1
    pts = ([(x + o * h, y) for o in o2] + [(x, y + o * h) for o in o2]
           + [(x + oi * h, y + oj * h) for oi in o1 for oj in o1])
    vals = f(np.stack([p for p, _ in pts]), np.stack([q for _, q in pts]))
    along_x, along_y, mixed = vals[:5], vals[5:10], vals[10:]
    f_x = sum(c * along_x[r] for c, r in zip(c1, on1))
    f_y = sum(c * along_y[r] for c, r in zip(c1, on1))
    f_xx = sum(c * v for c, v in zip(c2, along_x))
    f_yy = sum(c * v for c, v in zip(c2, along_y))
    f_xy = sum(ci * cj * mixed[4 * a + b]
               for a, ci in enumerate(c1) for b, cj in enumerate(c1))
    k = ctx.kappa
    val = (k / 8.0 * (1.0 - x * x) * f_xx
           + k / 8.0 * (1.0 - y * y) * f_yy
           - k / 4.0 * x * y * f_xy
           - ctx.lambda_gap * (x * f_x + y * f_y))
    return float(val) if np.ndim(val) == 0 else val


# ---------------------------------------------------------------------------
# gap-coordinate densities
# ---------------------------------------------------------------------------


def _pz_over_gu(ctx: KappaContext, z1, z2):
    """Continuous extension of pZ_infty / G_u to the closed square.

    Evaluated in log space; zero exactly on the z = pi edges and at the
    origin corner, where the extension vanishes.
    """
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    k = ctx.kappa
    e = ctx.weight_exponent
    c1 = np.cos(z1 / 2.0)
    c2 = np.cos(z2 / 2.0)
    sp = np.sin((z1 + z2) / 2.0)
    cm = np.cos((z1 - z2) / 2.0)
    dead = ((z1 >= np.pi) | (z2 >= np.pi) | (c1 <= 0.0) | (c2 <= 0.0)
            | (sp <= 0.0) | (cm <= 0.0))
    c1s = np.where(dead, 1.0, c1)
    c2s = np.where(dead, 1.0, c2)
    sps = np.where(dead, 1.0, sp)
    cms = np.where(dead, 1.0, cm)
    ratio = np.clip(c1s * c2s / cms, 0.0, 1.0)
    log_c = np.log(4.0 / (np.pi * k)) + e * np.log(4.0)
    logv = (log_c + e * (np.log(c1s) + np.log(c2s)) + np.log(sps)
            + (1.0 - 4.0 / k) * np.log(cms)
            + np.log(hyp_F(ctx, ratio)))
    out = np.where(dead, 0.0, np.exp(logv))
    return float(out) if np.ndim(out) == 0 else out


def _gu(ctx: KappaContext, z1, z2):
    """G_u at the points (z1, z2), in the argument form of _pz_over_gu."""
    return G_u(ctx, (z1, z2))


def _check_basis(ctx: KappaContext, basis: SpectralBasis):
    if basis.ctx != ctx:
        raise ValueError(f"basis of kappa {basis.ctx.kappa}, not {ctx.kappa}")


@functools.cache
def _values_of(ctx: KappaContext, f) -> dict:
    """The values of f(ctx, z1, z2), f in (_gu, _pz_over_gu), kept once
    per kappa: its grid on the nodes asked so far (``_node_grid``) and its
    value at the last points asked (``_last_points``)."""
    return {"z": np.empty(0), "values": np.empty((0, 0))}


def _last_points(ctx: KappaContext, f, z1, z2, memo=None):
    """f(ctx, z1, z2) for f in (_gu, _pz_over_gu), from the memo (f's
    per-kappa one by default) of its value at the last points asked, keyed
    by their shapes and bytes.  A command asks again and again at the same
    points: G_u at the start point of every ``tilde_pZ_t`` and
    ``survival_P2`` time (memo on the basis), the extension at the output
    grid of every ``tilde_pZ_t`` time and of ``tilde_pZ_infty`` (no basis)
    and at the end point of every level of the quasi-invariance check."""
    memo = _values_of(ctx, f) if memo is None else memo
    key = (z1.shape, z2.shape, z1.tobytes(), z2.tobytes())
    if memo.get("at") != key:
        memo.update(at=key, last=f(ctx, z1, z2))
    return memo["last"]


def tilde_pZ_t(ctx: KappaContext, basis: SpectralBasis, frm, to, t):
    """Tilted sub-Markov transition density of the conditioned gap pair.

    Equal to exp(-alpha0 t) pZ_t(frm, to) G_u(frm) / G_u(to); evaluated
    in a division-free form that stays finite up to the boundary of the
    square.  The series is truncated at ``truncation(basis, t)``.  G_u at
    ``frm`` and the extension pZ_infty / G_u at ``to`` come from
    ``_last_points``, the modes at a single ``frm`` from ``_modes_at``:
    the times of one start point and one output grid evaluate each once.
    ValueError if t <= 0 or the basis is of another kappa.
    """
    _check_basis(ctx, basis)
    if not t > 0.0:
        raise ValueError("tilde_pZ_t requires t > 0")
    fz1, fz2 = _z_arrays(frm)
    return _tilde(ctx, basis, float(t), (fz1, fz2), to,
                  _last_points(ctx, _gu, fz1, fz2, basis._start_gu))


def _tilde_pZ_t_grid(ctx: KappaContext, basis: SpectralBasis, z, to, t):
    """``tilde_pZ_t`` from every point of meshgrid(z, z, indexing="ij") to
    the point ``to``, with G_u read from its node grid (``_node_grid``):
    over the nested levels of a quadrature, and over every end point and
    time, each node pair's G_u is evaluated once per kappa."""
    return _tilde(ctx, basis, float(t), np.meshgrid(z, z, indexing="ij"),
                  to, _node_grid(ctx, _gu, z))


def _tilde(ctx: KappaContext, basis: SpectralBasis, t: float, frm, to,
           gu_f):
    """The tilted kernel at time t > 0 from the gap points ``frm`` (a pair
    of float arrays) to ``to``, given G_u at ``frm``."""
    fz1, fz2 = frm
    tz1, tz2 = _z_arrays(to)
    kern = _series(basis, truncation(basis, t)[0], t, *xy_of_z((fz1, fz2)),
                   *xy_of_z((tz1, tz2)))
    ratio_t = _last_points(ctx, _pz_over_gu, tz1, tz2)
    val = (np.exp(-ctx.alpha0 * t) * gu_f
           * kern * ratio_t * (np.pi * ctx.kappa / 8.0))
    return float(val) if np.ndim(val) == 0 else val


def _node_grid(ctx: KappaContext, f, z):
    """f(ctx, z1, z2) on meshgrid(z, z, indexing="ij"), for f in (_gu,
    _pz_over_gu), from the per-kappa grid of f over every distinct node
    asked for so far (``_values_of``).

    A call evaluates only the pairs with a new node: none for a tanh-sinh
    level after a finer one, since halving the step keeps every node
    (Takahasi & Mori 1974).  Both functions are symmetric in (z1, z2) bit
    for bit (products commute and cos is even), so each new pair is
    evaluated once and mirrored.  They act elementwise and hyp_F does not
    depend on its batch, so every entry has a direct evaluation's bits.
    """
    grid = _values_of(ctx, f)
    nodes = np.union1d(grid["z"], z)
    if nodes.size > grid["z"].size:
        old = np.isin(nodes, grid["z"], assume_unique=True)
        kept = np.flatnonzero(old)
        values = np.empty((nodes.size, nodes.size))
        values[np.ix_(kept, kept)] = grid["values"]
        # a new node against every kept one, and new pairs with a <= b
        a, b = np.meshgrid(np.flatnonzero(~old), np.arange(nodes.size),
                           indexing="ij")
        one_side = old[b] | (b >= a)
        a, b = a[one_side], b[one_side]
        for lo in range(0, a.size, _CHUNK):
            ab, bb = a[lo:lo + _CHUNK], b[lo:lo + _CHUNK]
            values[ab, bb] = values[bb, ab] = f(ctx, nodes[ab], nodes[bb])
        grid.update(z=nodes, values=values)
    at = np.searchsorted(grid["z"], z)
    return grid["values"][np.ix_(at, at)]


def pz_over_gu_grid(ctx: KappaContext, z):
    """_pz_over_gu on meshgrid(z, z, indexing="ij"), from its per-kappa
    node grid (``_node_grid``), which every quadrature of Z_constant, the
    survival mode integrals and the quasi-invariance law reads."""
    return _node_grid(ctx, _pz_over_gu, z)


@functools.cache
def _z_quadrature(ctx: KappaContext):
    """(Z, report) of ``Z_constant``'s quadrature, run once per kappa."""
    return square_integrate(
        lambda z, w: float(w @ pz_over_gu_grid(ctx, z) @ w))


def Z_constant(ctx: KappaContext) -> float:
    """Normalizing constant of the tilted stationary law.

    The integral over (0, pi)^2 of pZ_infty / G_u: ``square_integrate``
    of the continuous extension on ``pz_over_gu_grid``, at its default
    relative tolerance 1e-10, once per kappa (``_z_quadrature``).
    """
    return _z_quadrature(ctx)[0]


def tilde_pZ_infty(ctx: KappaContext, z):
    """Stationary density of the conditioned gap pair on (0, pi)^2; the
    extension at z comes from ``_last_points``, which the ``tilde_pZ_t``
    times at the same points filled."""
    z1, z2 = _z_arrays(z)
    val = _last_points(ctx, _pz_over_gu, z1, z2) / Z_constant(ctx)
    return float(val) if np.ndim(val) == 0 else val


# ---------------------------------------------------------------------------
# survival probabilities
# ---------------------------------------------------------------------------


def _survival_integrals(ctx: KappaContext, basis: SpectralBasis,
                        n_limit: int):
    """Mode integrals I_s = (pi k / 8) int v_s(x(z), y(z)) ratio(z) dz.

    ratio is the continuous extension of pZ_infty / G_u, read from
    ``pz_over_gu_grid``.  With these, survival_P2 becomes
    exp(-alpha0 t) G_u(z0) sum_s exp(lambda_n t) v_s(z0) I_s; the n = 0
    term reproduces the Z_constant asymptote exactly.  The vector of the
    modes of level <= n_limit escalates through ``square_integrate`` from
    level 0, until its largest change is at most 1e-10 of its largest
    entry.  Cached on the basis at the largest level requested so far,
    with the quadrature's report (its bits depend on the first level
    asked); a new computation replaces the cache object.
    """
    cache = basis._survival_cache
    if cache is not None and cache["n_limit"] >= n_limit:
        return cache["integrals"]

    def level_sum(z, wz):
        ratio = pz_over_gu_grid(ctx, z)
        out = np.zeros(basis.modes_up_to(n_limit))
        rows_per = max(1, _CHUNK // z.size)
        for lo in range(0, z.size, rows_per):
            hi = min(lo + rows_per, z.size)
            z1b, z2b = np.meshgrid(z[lo:hi], z, indexing="ij")
            wb = np.outer(wz[lo:hi], wz).ravel() * ratio[lo:hi].ravel()
            xb, yb = xy_of_z((z1b.ravel(), z2b.ravel()))
            for rows, sl, V in mode_blocks(basis, n_limit, xb, yb):
                out[rows] += V @ wb[sl]
        return out * (np.pi * ctx.kappa / 8.0)

    out, report = square_integrate(level_sum)
    basis._survival_cache = {"n_limit": n_limit, "integrals": out,
                             "quadrature": report}
    return out


def survival_P2(ctx: KappaContext, basis: SpectralBasis, z0, t):
    """Survival probability of the conditioned gap pair started at z0.

    Computes the quadrature of tilde_pZ_t(z0, .) over (0, pi)^2 through
    cached spectral mode integrals, with the series truncated at
    ``truncation(basis, t)``.  Returns a value clamped to [0, 1]; 1 at
    t = 0.

    Nothing but the time weights exp(lambda_n t) is evaluated again for
    another time at the same z0: the truncation is the basis's, the mode
    integrals are the basis's at the highest level asked, the modes at z0
    are ``_modes_at``'s at the highest level asked, and G_u(z0) is
    ``_last_points``'s, each cut to the time's level where it has one.
    A curve asked from its smallest time up computes each once.

    Raises:
        ValueError: if t < 0 or t is NaN, or the basis is of another kappa.
    """
    _check_basis(ctx, basis)
    t = float(t)
    n_used = truncation(basis, t)[0]
    if t == 0.0:
        return 1.0
    z1, z2 = _z_arrays(z0)
    if z1.ndim != 0:
        raise ValueError("survival_P2 takes a single starting point")
    ints = _survival_integrals(ctx, basis, n_used)
    v0 = _modes_at(basis, n_used, *xy_of_z((z1, z2)))
    lam_modes = _lam_modes(basis, n_used, t)
    total = float(np.dot(lam_modes * v0, ints[:v0.size]))
    gu = _last_points(ctx, _gu, z1, z2, basis._start_gu)
    val = np.exp(-ctx.alpha0 * t) * gu * total
    return float(min(max(val, 0.0), 1.0))


def quadrature_report(ctx: KappaContext, basis: SpectralBasis) -> dict:
    """The ``square_integrate`` reports (level reached, last inter-level
    change, tolerance met) of the Z_constant quadrature and of the
    survival quadrature run on the basis (None if not run), and the node
    pairs of ``pz_over_gu_grid`` they read: D (D + 1) / 2 for the D
    distinct nodes of the higher level.  ValueError if the basis is of
    another kappa."""
    _check_basis(ctx, basis)
    z_report = _z_quadrature(ctx)[1]
    survival = basis._survival_cache
    s_report = None if survival is None else survival["quadrature"]
    level = max(r["level"] for r in (z_report, s_report) if r is not None)
    distinct = np.unique(np.pi * tanh_sinh_rule(level)[0]).size
    return {"Z_constant": dict(z_report), "survival": s_report,
            "pz_points": distinct * (distinct + 1) // 2}
