"""Simulation kernels: compiled (numba) backend with a numpy fallback.

Backend selection
-----------------
The environment variable ``TWOCURVE_BACKEND`` picks the implementation:

* ``"numba"`` -- always use the compiled kernels (error if numba is absent);
* ``"numpy"``  -- always use the vectorized numpy fallback;
* ``"auto"`` (default, or unset) -- numba when importable, else numpy.

Every dispatcher also accepts an explicit ``backend=`` override.  The
benchmark (``benchmarks/run.py``) does not use it: it times whichever
backend resolves by default and records that name in its provenance.

Both backends consume the same counter-based random streams (:mod:`._rng`):
path ``p`` at step ``s`` reads the normal pair with counter ``s`` of its
stream, so skipped draws (dead paths) cost nothing and runs can be resumed
at any step boundary.  Uniform deviates are bit-identical across backends;
trajectories agree to transcendental-function rounding (libm versus numpy
vector routines) and are statistically equivalent.

Kernels
-------
``z_evolve``
    Evolution of the autonomous two-angle diffusion
    dZ_j = sqrt(kappa sin Z_j / (sin Z_1 + sin Z_2)) dB_j
           + 4 cos Z_j / (sin Z_1 + sin Z_2) dt
    on (0, pi)^2 by explicit Euler drift plus a diagonal Milstein
    correction computed in the shared time-change clock ds = dt / S with
    S = sin Z_1 + sin Z_2 frozen over the step: in that clock the two
    coordinates decouple into square-root diffusions
    dZ_j = sqrt(kappa sin Z_j) dB_s + 4 cos Z_j ds, whose exact Milstein
    term is (kappa cos Z_j / (4 S)) (N_j^2 - 1) dt.  The correction is
    essential near the boundary: without it the square-root diffusion
    coefficient makes naive Euler overshoot with probability O(dt^(1/3))
    per unit time, while the corrected update completes the square,
    Z' ~ (sqrt(Z) + (1/2) sqrt(kappa dt / S) N)^2 + (dt/S)(4 - kappa/4),
    positive for kappa < 16 (the usual drift >= sigma^2/4 condition for
    square-root processes).  Freezing S keeps that completion exact even
    in the corners where both angles are small; differentiating S as well
    would shrink the N^2 coefficient by sin Z_k / S there and reopen an
    escape channel.  The term has zero mean (weak order is unchanged),
    reuses the step's normals, and vanishes at the symmetric point.
    Paths that still exit (|N| of order 10 at mid-range angles) are
    absorbed and flagged, never reflected.  States are snapshotted at
    requested step indices.

``hsle_evolve``
    Euler-Maruyama evolution of the radial hypergeometric-SLE driving
    angle together with its three passive boundary points, with capacity
    thresholds, collision detection, and a lookup table for the
    hypergeometric drift factor.

``hsle_evolve_adaptive``
    The same flow with per-path adaptive substepping and scale-free
    stopping rules.  The fixed-step kernel is only resolved while the
    angular gaps between the driving point and its neighbours stay large
    compared with the Brownian step sqrt(kappa dt): once the four points
    bunch (the curve diving toward the origin squeezes every gap like
    exp(-capacity)), a fixed step throws the driver across a gap in one
    update, the passive cotangent pushes explode, and the state goes NaN.
    The adaptive kernel divides each base step of size dt into up to
    ``bmax`` equal units and advances by the largest unit count keeping
    sqrt(kappa dt_sub) below (driver gap)/kres, so the walk remains
    resolved at every depth down to the floor gap
    ~ kres sqrt(kappa dt / bmax).  Stopping is relative, not absolute:
    a driver-adjacent gap collapsing below ``eps_kill`` times the
    smallest other gap triggers the exact boundary rule of the limiting
    Bessel process (absorb or reinject; see the dispatcher docstring),
    which keeps the stopping statistics invariant under the exponential
    shrinking of the whole configuration.

``backward_flow``
    Batched pullback of points through a piecewise-constant radial
    Loewner chain: applying the inverse single-slit map for each stored
    driver value in reverse order maps a point in the disc at flow time
    t to its physical preimage in the initial disc.  Used to probe the
    Euclidean distance from the origin to a simulated curve: the tip of
    the curve at time s is the backward image of the driving point, so
    pulling back exp(i w(s)) (nudged slightly inside the circle for
    numerical safety; exact boundary points can fall into the hull's
    preimage and come back as spurious deep points) traces the curve.
"""
from __future__ import annotations

import math
import os

import numpy as np

from . import _rng

try:  # pragma: no cover - exercised implicitly by backend selection
    import numba
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover
    HAS_NUMBA = False

TWO_PI = 2.0 * math.pi
PI = math.pi

# uint64 constants frozen into the compiled kernels
_N1 = np.uint64(1)
_N11 = np.uint64(11)
_N27 = np.uint64(27)
_N30 = np.uint64(30)
_N31 = np.uint64(31)
_NGAMMA = np.uint64(_rng.GAMMA)
_NM1 = np.uint64(0xBF58476D1CE4E5B9)
_NM2 = np.uint64(0x94D049BB133111EB)
_INV53 = 2.0 ** -53


def active_backend(backend: str | None = None) -> str:
    """Resolve the backend name: explicit argument, else environment."""
    name = backend if backend is not None else os.environ.get(
        "TWOCURVE_BACKEND", "auto")
    name = name.strip().lower()
    if name == "numpy":
        return "numpy"
    if name == "numba":
        if not HAS_NUMBA:
            raise RuntimeError(
                "TWOCURVE_BACKEND=numba requested but numba is not importable")
        return "numba"
    if name in ("auto", ""):
        return "numba" if HAS_NUMBA else "numpy"
    raise ValueError(f"unknown backend {name!r}; use 'numba', 'numpy' or 'auto'")


# ---------------------------------------------------------------------------
# numpy fallback implementations
# ---------------------------------------------------------------------------

def _z_evolve_np(z1, z2, alive, absorb_step, streams, start_step, n_steps,
                 kappa, dt, rec_steps, rec_z1, rec_z2) -> None:
    m = rec_steps.shape[0]
    ri = 0
    for s in range(start_step, start_step + n_steps):
        if alive.any():
            idx = np.nonzero(alive)[0]
            g1, g2 = _rng.normal_pair_array(streams[idx], s)
            a = z1[idx]
            b = z2[idx]
            sa = np.sin(a)
            sb = np.sin(b)
            ca = np.cos(a)
            cb = np.cos(b)
            S = sa + sb
            mil = 0.25 * kappa / S * dt
            an = (a + 4.0 * ca / S * dt + np.sqrt(kappa * sa / S * dt) * g1
                  + mil * ca * (g1 * g1 - 1.0))
            bn = (b + 4.0 * cb / S * dt + np.sqrt(kappa * sb / S * dt) * g2
                  + mil * cb * (g2 * g2 - 1.0))
            out = (an <= 0.0) | (an >= PI) | (bn <= 0.0) | (bn >= PI)
            z1[idx] = np.clip(an, 0.0, PI)
            z2[idx] = np.clip(bn, 0.0, PI)
            if out.any():
                dead = idx[out]
                alive[dead] = False
                absorb_step[dead] = s + 1
        while ri < m and rec_steps[ri] == s + 1:
            rec_z1[ri, :] = z1
            rec_z2[ri, :] = z2
            ri += 1


def _hsle_evolve_np(state, streams, start_step, max_steps, kappa, dt,
                    thr_steps, tol, gt_vals, gt_du, gt_umax,
                    snap, reached, status, death_step) -> None:
    n = state.shape[0]
    k = thr_steps.shape[0]
    sqkdt = math.sqrt(kappa * dt)
    alive = np.ones(n, dtype=bool)
    nt = gt_vals.shape[0]
    for s in range(start_step, start_step + max_steps):
        steps_done = s - start_step + 1
        idx = np.nonzero(alive)[0]
        if idx.size == 0:
            break
        w0 = state[idx, 0]
        v1 = state[idx, 1]
        v2 = state[idx, 2]
        wi = state[idx, 3]
        u0 = _rng.uniform_array(streams[idx], 2 * s)
        u1 = _rng.uniform_array(streams[idx], 2 * s + 1)
        g = np.sqrt(-2.0 * np.log(u0)) * np.cos(TWO_PI * u1)
        ga = v1 - w0
        gb = v2 - w0
        gc = wi - w0
        # u = -log(1-R) computed from the complementary cross-ratio, which
        # stays accurate when R is close to 1 (no cancellation).
        u = (np.log(np.sin(0.5 * gb)) + np.log(np.sin(0.5 * (wi - v1)))
             - np.log(np.sin(0.5 * gc)) - np.log(np.sin(0.5 * (v2 - v1))))
        u = np.clip(u, 0.0, gt_umax)
        x = u / gt_du
        i0 = np.minimum(x.astype(np.int64), nt - 2)
        frac = x - i0
        G = gt_vals[i0] * (1.0 - frac) + gt_vals[i0 + 1] * frac
        cot_inf = -np.cos(0.5 * gc) / np.sin(0.5 * gc)
        cot_a = -np.cos(0.5 * ga) / np.sin(0.5 * ga)
        cot_b = -np.cos(0.5 * gb) / np.sin(0.5 * gb)
        drift = 0.5 * (kappa - 6.0) * cot_inf + 0.5 * (cot_a - cot_b) * G
        v1n = v1 + (np.cos(0.5 * ga) / np.sin(0.5 * ga)) * dt
        v2n = v2 + (np.cos(0.5 * gb) / np.sin(0.5 * gb)) * dt
        win = wi + (np.cos(0.5 * gc) / np.sin(0.5 * gc)) * dt
        w0n = w0 + drift * dt + sqkdt * g
        state[idx, 0] = w0n
        state[idx, 1] = v1n
        state[idx, 2] = v2n
        state[idx, 3] = win
        gap_lo = w0n - (win - TWO_PI)
        gap_hi = v1n - w0n
        done = gap_lo < tol
        hitv = (~done) & (gap_hi < tol)
        dead = done | hitv
        if dead.any():
            dd = idx[dead]
            status[idx[done]] = 1
            status[idx[hitv]] = 2
            death_step[dd] = steps_done
            alive[dd] = False
        ti = np.searchsorted(thr_steps, steps_done, side="left")
        while ti < k and thr_steps[ti] == steps_done:
            still = np.nonzero(alive)[0]
            snap[still, ti, :] = state[still, :]
            reached[still, ti] = 1
            ti += 1


# The adaptive kernel below is the hot path of every two-curve estimate,
# and its outputs are frozen: a path's result must not depend on the batch
# it runs in, and a seed must keep reproducing the estimates it gave
# before.  Two rules keep it fast without moving a bit:
#
# * The per-path loop runs on Python floats and ints only.  Arrays are
#   read once with ``tolist()`` (numpy scalars would make every add,
#   multiply and compare about three times slower) and written once per
#   path.  Transcendentals are ``math.*`` (libm), never numpy's vector
#   routines, which round differently in the last bit.
# * The operation order is frozen: the same functions on the same doubles
#   in the same order.  Subexpressions are shared only where the inputs
#   are bitwise the same (a half gap fed to both sin and cos, the two
#   sines used by both the cross-ratio and the drift, the gaps left by
#   the previous substep); sums are not re-associated, the four logs of
#   the cross-ratio are not merged into one, and no division becomes a
#   multiplication by a reciprocal.
#
# The first substep of macro step m always reads the uniforms at counters
# (4*m*bmax, +1), so those are drawn ahead with the vectorized generator
# (bitwise equal to the scalar one), in blocks of macro steps so that a
# path stopping early wastes few draws; later substeps and the
# reinjection decision draw one at a time.
_FIRST_DRAW_BLOCK = 256


def _gap_status(g01, g12, g23, gw) -> int:
    """Stop status for non-positive gaps: 4 passive, 1 target side,
    2 protected side, 0 if every gap is positive."""
    if g12 <= 0.0 or g23 <= 0.0:
        return 4
    if gw <= 0.0:
        return 1
    if g01 <= 0.0:
        return 2
    return 0


def _hsle_evolve_adaptive_np(state, streams, start_macro, max_macros, kappa,
                             dt, thr_macros, eps_kill, eps_ret, kres, bmax,
                             gt_vals, gt_du, gt_umax, snap, reached, status,
                             death_units) -> None:
    log, sin, cos, sqrt = math.log, math.sin, math.cos, math.sqrt
    uniform = _rng.uniform
    rows = state.tolist()
    sids = streams.tolist()
    thr = thr_macros.tolist()
    gt = gt_vals.tolist()
    k = len(thr)
    nt = len(gt)
    g_top = gt[nt - 1]
    unit = dt / bmax
    res_units = bmax * 1.0 / (kappa * kres * kres * dt)  # * gmin^2 -> units
    floor_gap = 0.35 * kres * math.sqrt(kappa * unit)
    bessel_pow = (8.0 - kappa) / kappa
    p_ret = (eps_kill / eps_ret) ** bessel_pow
    half_k6 = 0.5 * (kappa - 6.0)
    stride = 4 * bmax  # counters per macro step
    end_macro = start_macro + max_macros
    # counters of the first-substep uniform pairs of a block, relative to
    # the block's first macro step
    block_ctr = (np.arange(_FIRST_DRAW_BLOCK, dtype=np.uint64)[:, None]
                 * np.uint64(stride) + np.arange(2, dtype=np.uint64)).ravel()
    sts = [0] * len(rows)
    dus = [-1] * len(rows)
    for p, (w0, v1, v2, wi) in enumerate(rows):
        sid = sids[p]
        ti = 0
        units_done = 0
        snaps = []
        g01 = v1 - w0
        g12 = v2 - v1
        gw = w0 - (wi - TWO_PI)
        st = _gap_status(g01, g12, wi - v2, gw)
        if st != 0:
            dus[p] = 0
            sts[p] = st
            continue
        blk_end = start_macro
        for m in range(start_macro, end_macro):
            if m == blk_end:
                blk_end = min(m + _FIRST_DRAW_BLOCK, end_macro)
                first = _rng.uniform_array(
                    sid, block_ctr[:2 * (blk_end - m)]
                    + np.uint64(stride * m)).tolist()
                j = 0
            ctr = stride * m
            left = bmax
            while left > 0:
                gmin = g01 if g01 < gw else gw
                want = res_units * gmin * gmin
                if want >= left:
                    n_u = left
                elif want < 1.0:
                    n_u = 1
                else:
                    n_u = int(want)
                if left == bmax:
                    uu0 = first[j]
                    uu1 = first[j + 1]
                    j += 2
                else:
                    ctr = stride * m + 4 * (bmax - left)
                    uu0 = uniform(sid, ctr)
                    uu1 = uniform(sid, ctr + 1)
                g = sqrt(-2.0 * log(uu0)) * cos(TWO_PI * uu1)
                dts = n_u * unit
                ha = 0.5 * g01
                hb = 0.5 * (v2 - w0)
                hc = 0.5 * (wi - w0)
                sb = sin(hb)
                sc = sin(hc)
                u = (log(sb)
                     + log(sin(0.5 * (wi - v1)))
                     - log(sc)
                     - log(sin(0.5 * g12)))
                if u < 0.0:
                    u = 0.0
                if u >= gt_umax:
                    G = g_top
                else:
                    x = u / gt_du
                    i0 = int(x)
                    if i0 > nt - 2:
                        i0 = nt - 2
                    frac = x - i0
                    G = gt[i0] * (1.0 - frac) + gt[i0 + 1] * frac
                sa = sin(ha)
                ca = cos(ha)
                cb = cos(hb)
                cc = cos(hc)
                drift = (half_k6 * (-cc / sc)
                         + 0.5 * (-ca / sa + cb / sb) * G)
                v1 = v1 + (ca / sa) * dts
                v2 = v2 + (cb / sb) * dts
                wi = wi + (cc / sc) * dts
                w0 = w0 + drift * dts + sqrt(kappa * dts) * g
                left -= n_u
                units_done += n_u
                g01 = v1 - w0
                g12 = v2 - v1
                g23 = wi - v2
                gw = w0 - (wi - TWO_PI)
                st = _gap_status(g01, g12, g23, gw)
                if st == 0:
                    oth = g12 if g12 < g23 else g23
                    ref_c = oth if oth < g01 else g01
                    ref_f = oth if oth < gw else gw
                    if gw < eps_kill * ref_c:
                        # target-side collapse: absorb or reinject with the
                        # exact scale-function probability of the limiting
                        # Bessel gap process
                        ud = uniform(sid, ctr + 2)
                        if ud < p_ret:
                            w0 = (wi - TWO_PI) + eps_ret * ref_c
                            g01 = v1 - w0
                            gw = w0 - (wi - TWO_PI)
                            # rounding can land the reinjected driving
                            # point on a mark when the scale is below half
                            # an ulp
                            st = _gap_status(g01, g12, g23, gw)
                        else:
                            st = 1
                    elif g01 < eps_kill * ref_f:
                        # protected side: the gap process never hits zero
                        # (Bessel dimension 1 + 8/kappa > 2); always returns
                        w0 = v1 - eps_ret * ref_f
                        g01 = v1 - w0
                        gw = w0 - (wi - TWO_PI)
                        st = _gap_status(g01, g12, g23, gw)
                    elif (gw if gw < g01 else g01) < floor_gap:
                        st = 3
                if st != 0:
                    dus[p] = units_done
                    break
            if st != 0:
                break
            while ti < k and thr[ti] == m - start_macro + 1:
                snaps.append((w0, v1, v2, wi))
                ti += 1
        if snaps:
            snap[p, :ti] = snaps
            reached[p, :ti] = 1
        state[p] = (w0, v1, v2, wi)
        sts[p] = st
    status[:] = sts
    death_units[:] = dus


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

if HAS_NUMBA:

    @njit(cache=True)
    def _mix64_nb(z):
        z = z ^ (z >> _N30)
        z = z * _NM1
        z = z ^ (z >> _N27)
        z = z * _NM2
        z = z ^ (z >> _N31)
        return z

    @njit(cache=True)
    def _unif_nb(stream, i):
        w = _mix64_nb(stream + _NGAMMA * (i + _N1))
        return (np.float64(w >> _N11) + 0.5) * _INV53

    @njit(cache=True)
    def _z_evolve_nb(z1, z2, alive, absorb_step, streams, start_step, n_steps,
                     kappa, dt, rec_steps, rec_z1, rec_z2):
        n = z1.shape[0]
        m = rec_steps.shape[0]
        for p in range(n):
            a = z1[p]
            b = z2[p]
            live = alive[p]
            sid = streams[p]
            ri = 0
            for s in range(start_step, start_step + n_steps):
                if live:
                    ks = np.uint64(2 * s)
                    uu0 = _unif_nb(sid, ks)
                    uu1 = _unif_nb(sid, ks + _N1)
                    r = math.sqrt(-2.0 * math.log(uu0))
                    ang = TWO_PI * uu1
                    g1 = r * math.cos(ang)
                    g2 = r * math.sin(ang)
                    sa = math.sin(a)
                    sb = math.sin(b)
                    ca = math.cos(a)
                    cb = math.cos(b)
                    S = sa + sb
                    mil = 0.25 * kappa / S * dt
                    an = (a + 4.0 * ca / S * dt
                          + math.sqrt(kappa * sa / S * dt) * g1
                          + mil * ca * (g1 * g1 - 1.0))
                    bn = (b + 4.0 * cb / S * dt
                          + math.sqrt(kappa * sb / S * dt) * g2
                          + mil * cb * (g2 * g2 - 1.0))
                    if an <= 0.0 or an >= PI or bn <= 0.0 or bn >= PI:
                        live = False
                        absorb_step[p] = s + 1
                        a = min(max(an, 0.0), PI)
                        b = min(max(bn, 0.0), PI)
                    else:
                        a = an
                        b = bn
                while ri < m and rec_steps[ri] == s + 1:
                    rec_z1[ri, p] = a
                    rec_z2[ri, p] = b
                    ri += 1
            z1[p] = a
            z2[p] = b
            alive[p] = live

    @njit(cache=True)
    def _hsle_evolve_nb(state, streams, start_step, max_steps, kappa, dt,
                        thr_steps, tol, gt_vals, gt_du, gt_umax,
                        snap, reached, status, death_step):
        n = state.shape[0]
        k = thr_steps.shape[0]
        nt = gt_vals.shape[0]
        sqkdt = math.sqrt(kappa * dt)
        for p in range(n):
            w0 = state[p, 0]
            v1 = state[p, 1]
            v2 = state[p, 2]
            wi = state[p, 3]
            sid = streams[p]
            ti = 0
            st = np.uint8(0)
            ds = np.int64(-1)
            for s in range(start_step, start_step + max_steps):
                steps_done = s - start_step + 1
                ks = np.uint64(2 * s)
                uu0 = _unif_nb(sid, ks)
                uu1 = _unif_nb(sid, ks + _N1)
                g = math.sqrt(-2.0 * math.log(uu0)) * math.cos(TWO_PI * uu1)
                ga = v1 - w0
                gb = v2 - w0
                gc = wi - w0
                u = (math.log(math.sin(0.5 * gb))
                     + math.log(math.sin(0.5 * (wi - v1)))
                     - math.log(math.sin(0.5 * gc))
                     - math.log(math.sin(0.5 * (v2 - v1))))
                if u < 0.0:
                    u = 0.0
                if u >= gt_umax:
                    G = gt_vals[nt - 1]
                else:
                    x = u / gt_du
                    i0 = int(x)
                    if i0 > nt - 2:
                        i0 = nt - 2
                    frac = x - i0
                    G = gt_vals[i0] * (1.0 - frac) + gt_vals[i0 + 1] * frac
                sa = math.sin(0.5 * ga)
                ca = math.cos(0.5 * ga)
                sb = math.sin(0.5 * gb)
                cb = math.cos(0.5 * gb)
                sc = math.sin(0.5 * gc)
                cc = math.cos(0.5 * gc)
                drift = (0.5 * (kappa - 6.0) * (-cc / sc)
                         + 0.5 * (-ca / sa + cb / sb) * G)
                v1n = v1 + (ca / sa) * dt
                v2n = v2 + (cb / sb) * dt
                win = wi + (cc / sc) * dt
                w0n = w0 + drift * dt + sqkdt * g
                w0 = w0n
                v1 = v1n
                v2 = v2n
                wi = win
                gap_lo = w0 - (wi - TWO_PI)
                gap_hi = v1 - w0
                if gap_lo < tol:
                    st = np.uint8(1)
                    ds = np.int64(steps_done)
                    break
                if gap_hi < tol:
                    st = np.uint8(2)
                    ds = np.int64(steps_done)
                    break
                while ti < k and thr_steps[ti] == steps_done:
                    snap[p, ti, 0] = w0
                    snap[p, ti, 1] = v1
                    snap[p, ti, 2] = v2
                    snap[p, ti, 3] = wi
                    reached[p, ti] = 1
                    ti += 1
            state[p, 0] = w0
            state[p, 1] = v1
            state[p, 2] = v2
            state[p, 3] = wi
            status[p] = st
            death_step[p] = ds

    @njit(cache=True)
    def _hsle_evolve_adaptive_nb(state, streams, start_macro, max_macros,
                                 kappa, dt, thr_macros, eps_kill, eps_ret,
                                 kres, bmax, gt_vals, gt_du, gt_umax,
                                 snap, reached, status, death_units):
        n = state.shape[0]
        k = thr_macros.shape[0]
        nt = gt_vals.shape[0]
        unit = dt / bmax
        res_units = bmax * 1.0 / (kappa * kres * kres * dt)
        floor_gap = 0.35 * kres * math.sqrt(kappa * unit)
        bessel_pow = (8.0 - kappa) / kappa
        p_ret = (eps_kill / eps_ret) ** bessel_pow
        for p in range(n):
            w0 = state[p, 0]
            v1 = state[p, 1]
            v2 = state[p, 2]
            wi = state[p, 3]
            sid = streams[p]
            ti = 0
            st = np.uint8(0)
            du_total = np.int64(-1)
            units_done = np.int64(0)
            for m in range(start_macro, start_macro + max_macros):
                macros_done = m - start_macro + 1
                left = np.int64(bmax)
                while left > 0:
                    g01 = v1 - w0
                    gw = w0 - (wi - TWO_PI)
                    gmin = g01 if g01 < gw else gw
                    want = res_units * gmin * gmin
                    if want < 1.0:
                        n_u = np.int64(1)
                    elif want >= left:
                        n_u = left
                    else:
                        n_u = np.int64(want)
                    off = np.int64(m) * np.int64(bmax) + (np.int64(bmax) - left)
                    ks = np.uint64(4 * off)
                    uu0 = _unif_nb(sid, ks)
                    uu1 = _unif_nb(sid, ks + _N1)
                    g = math.sqrt(-2.0 * math.log(uu0)) * math.cos(TWO_PI * uu1)
                    dts = n_u * unit
                    gb = v2 - w0
                    gc = wi - w0
                    u = (math.log(math.sin(0.5 * gb))
                         + math.log(math.sin(0.5 * (wi - v1)))
                         - math.log(math.sin(0.5 * gc))
                         - math.log(math.sin(0.5 * (v2 - v1))))
                    if u < 0.0:
                        u = 0.0
                    if u >= gt_umax:
                        G = gt_vals[nt - 1]
                    else:
                        x = u / gt_du
                        i0 = int(x)
                        if i0 > nt - 2:
                            i0 = nt - 2
                        frac = x - i0
                        G = gt_vals[i0] * (1.0 - frac) + gt_vals[i0 + 1] * frac
                    sa = math.sin(0.5 * g01)
                    ca = math.cos(0.5 * g01)
                    sb = math.sin(0.5 * gb)
                    cb = math.cos(0.5 * gb)
                    sc = math.sin(0.5 * gc)
                    cc = math.cos(0.5 * gc)
                    drift = (0.5 * (kappa - 6.0) * (-cc / sc)
                             + 0.5 * (-ca / sa + cb / sb) * G)
                    v1 = v1 + (ca / sa) * dts
                    v2 = v2 + (cb / sb) * dts
                    wi = wi + (cc / sc) * dts
                    w0 = w0 + drift * dts + math.sqrt(kappa * dts) * g
                    left -= n_u
                    units_done += n_u
                    g01 = v1 - w0
                    g12 = v2 - v1
                    g23 = wi - v2
                    gw = w0 - (wi - TWO_PI)
                    if g12 <= 0.0 or g23 <= 0.0:
                        st = np.uint8(4)
                    elif gw <= 0.0:
                        st = np.uint8(1)
                    elif g01 <= 0.0:
                        st = np.uint8(2)
                    else:
                        oth = g12 if g12 < g23 else g23
                        ref_c = oth if oth < g01 else g01
                        ref_f = oth if oth < gw else gw
                        if gw < eps_kill * ref_c:
                            ud = _unif_nb(sid, ks + _N1 + _N1)
                            if ud < p_ret:
                                w0 = (wi - TWO_PI) + eps_ret * ref_c
                            else:
                                st = np.uint8(1)
                        elif g01 < eps_kill * ref_f:
                            w0 = v1 - eps_ret * ref_f
                        elif (gw if gw < g01 else g01) < floor_gap:
                            st = np.uint8(3)
                    if st != np.uint8(0):
                        du_total = units_done
                        break
                if st != np.uint8(0):
                    break
                while ti < k and thr_macros[ti] == macros_done:
                    snap[p, ti, 0] = w0
                    snap[p, ti, 1] = v1
                    snap[p, ti, 2] = v2
                    snap[p, ti, 3] = wi
                    reached[p, ti] = 1
                    ti += 1
            state[p, 0] = w0
            state[p, 1] = v1
            state[p, 2] = v2
            state[p, 3] = wi
            status[p] = st
            death_units[p] = du_total


# ---------------------------------------------------------------------------
# dispatchers
# ---------------------------------------------------------------------------

def z_evolve(z1, z2, alive, absorb_step, streams, start_step, n_steps,
             kappa, dt, rec_steps, rec_z1, rec_z2,
             backend: str | None = None) -> None:
    """Evolve the two-angle diffusion in place for ``n_steps`` steps.

    Args:
        z1, z2: float64[n] current angles, updated in place.
        alive: bool[n] survivor flags, updated in place.
        absorb_step: int64[n] absorption step (absolute), -1 while alive.
        streams: uint64[n] per-path stream ids.
        start_step: absolute index of the first step taken (the step moving
            the state from time start_step*dt to (start_step+1)*dt); random
            counters are indexed by absolute step, so a run split into
            chunks reproduces an unchunked run exactly.
        rec_steps: int64[m] ascending absolute step indices at which to
            snapshot (values in (start_step, start_step + n_steps]).
        rec_z1, rec_z2: float64[m, n] snapshot buffers.
    """
    if active_backend(backend) == "numba":
        _z_evolve_nb(z1, z2, alive, absorb_step, streams,
                     np.int64(start_step), np.int64(n_steps),
                     float(kappa), float(dt), rec_steps, rec_z1, rec_z2)
    else:
        _z_evolve_np(z1, z2, alive, absorb_step, streams,
                     int(start_step), int(n_steps),
                     float(kappa), float(dt), rec_steps, rec_z1, rec_z2)


def hsle_evolve(state, streams, start_step, max_steps, kappa, dt,
                thr_steps, tol, gt_vals, gt_du, gt_umax,
                snap, reached, status, death_step,
                backend: str | None = None) -> None:
    """Evolve radial hSLE driving angles in place with threshold snapshots.

    Args:
        state: float64[n, 4] rows (w0, v1, v2, winf) in strictly increasing
            covering order w0 < v1 < v2 < winf < w0 + 2*pi; updated in place.
        streams: uint64[n] per-path stream ids (normal at step s uses the
            first member of Box-Muller pair s).
        thr_steps: int64[k] ascending step counts (relative to this run) at
            which surviving paths are snapshotted into ``snap`` and marked
            in ``reached``.
        tol: collision tolerance in radians; a step ending with
            w0 within ``tol`` of winf - 2*pi is classified as completion
            (status 1), within ``tol`` of v1 as a force-point collision
            (status 2); either stops the path.
        gt_vals, gt_du, gt_umax: lookup table for the hypergeometric drift
            factor, tabulated uniformly in u = -log(1 - R).
        snap: float64[n, k, 4]; reached: uint8[n, k]; status: uint8[n];
        death_step: int64[n] steps survived at stop (-1 if alive at end).
    """
    if active_backend(backend) == "numba":
        _hsle_evolve_nb(state, streams, np.int64(start_step),
                        np.int64(max_steps), float(kappa), float(dt),
                        thr_steps, float(tol), gt_vals, float(gt_du),
                        float(gt_umax), snap, reached, status, death_step)
    else:
        _hsle_evolve_np(state, streams, int(start_step), int(max_steps),
                        float(kappa), float(dt), thr_steps, float(tol),
                        gt_vals, float(gt_du), float(gt_umax),
                        snap, reached, status, death_step)


def hsle_evolve_adaptive(state, streams, start_macro, max_macros, kappa, dt,
                         thr_macros, gt_vals, gt_du, gt_umax,
                         snap, reached, status, death_units,
                         eps_kill: float = 0.01, eps_ret: float = 0.1,
                         kres: float = 3.5, bmax: int = 2048,
                         backend: str | None = None) -> None:
    """Evolve radial hSLE angles with adaptive substepping (see module doc).

    Each base step of size ``dt`` (a "macro" step) is split into up to
    ``bmax`` equal units; a substep consumes the largest unit count whose
    duration dt_sub keeps sqrt(kappa dt_sub) <= (min driver gap)/kres, so
    in calm regions the kernel takes one full-size step per macro and the
    cost only grows where the configuration actually tightens.  The
    substep at unit offset ``off`` of absolute macro ``m`` draws its
    normal from the uniforms at counters (4*(m*bmax+off), +1) of the path
    stream (counter +2 feeds the boundary decision below), so runs are
    reproducible and resumable at macro boundaries.

    Near either driver-adjacent collision the gap is asymptotically a
    Bessel process: dimension 3 - 8/kappa against the recession mark
    (completion side, absorbing for kappa < 8) and 1 + 8/kappa against
    the adjacent force mark (never absorbing for kappa < 8).  A naive
    "stop below a threshold" rule therefore miscounts: a gap killed at
    ratio eps of the local scale still returns with probability
    eps^((8-kappa)/kappa).  Instead the kernel applies the exact
    scale-function rule of the limiting Bessel: when a gap drops below
    ``eps_kill`` times the smallest other gap it is either reinjected to
    ``eps_ret`` times that scale (with the Bessel return probability
    (eps_kill/eps_ret)^((8-kappa)/kappa) on the completion side; always
    on the protected side) or declared absorbed (status 1).  Remaining
    stops: status 2 for a non-positive protected gap (unresolved
    overshoot; rare), status 4 for a non-positive passive gap (the same
    three rules also stop a row that enters with a non-positive gap, with
    ``death_units`` 0, and a reinjection that rounds onto a mark), and
    status 3 when both driver gaps sink below the resolution floor
    ~ 0.35 * kres * sqrt(kappa dt / bmax) while no relative collapse
    holds.  Status 3 is not noise: for kappa > 4 the flow reaches, at
    finite capacity, a pinch where both driver-adjacent gaps vanish
    together -- the trace closes a loop that disconnects the origin from
    the rest of the domain, and every gap then contracts faster than any
    fixed floor can follow.  The recorded stopping capacity approximates
    the disconnection capacity to O(floor^2), so callers can treat a
    status-3 stop at capacity s as the curve swallowing the origin with
    conformal radius exp(-s) (frozen thereafter: later growth happens
    outside the origin's component).

    ``thr_macros`` are macro counts relative to this run at which
    surviving paths are snapshotted; ``death_units`` records the units
    survived (relative, in dt/bmax units; -1 if alive at the end), so the
    capacity at stop is death_units * dt / bmax.
    """
    if active_backend(backend) == "numba":
        _hsle_evolve_adaptive_nb(state, streams, np.int64(start_macro),
                                 np.int64(max_macros), float(kappa),
                                 float(dt), thr_macros, float(eps_kill),
                                 float(eps_ret), float(kres),
                                 np.int64(bmax), gt_vals,
                                 float(gt_du), float(gt_umax),
                                 snap, reached, status, death_units)
    else:
        _hsle_evolve_adaptive_np(state, streams, int(start_macro),
                                 int(max_macros), float(kappa), float(dt),
                                 thr_macros, float(eps_kill), float(eps_ret),
                                 float(kres), int(bmax), gt_vals,
                                 float(gt_du), float(gt_umax),
                                 snap, reached, status, death_units)


# ---------------------------------------------------------------------------
# backward Loewner flow (pullback through a stored driving sequence)
# ---------------------------------------------------------------------------

def _backward_flow_np(drivers, lengths, du, y):
    n, width = drivers.shape
    exp_du = math.exp(du)
    for k in range(width - 1, -1, -1):
        act = lengths > k
        if not act.any():
            continue
        rot = np.exp(1j * drivers[act, k])
        zeta = y[act] / rot
        with np.errstate(all="ignore"):
            c = exp_du * (1.0 + zeta) ** 2 / zeta
            bp = c - 2.0
            disc = np.sqrt(c * (c - 4.0))
            disc = np.where((np.conj(bp) * disc).real < 0.0, -disc, disc)
            yn = rot / (0.5 * (bp + disc))
        y[act] = np.where(np.isfinite(yn), yn, y[act])


if HAS_NUMBA:

    @njit(cache=True)
    def _backward_flow_nb(drivers, lengths, du, y):  # pragma: no cover
        n = drivers.shape[0]
        exp_du = math.exp(du)
        for i in range(n):
            m = lengths[i]
            yi = y[i]
            for k in range(m - 1, -1, -1):
                if yi.real == 0.0 and yi.imag == 0.0:
                    break
                rot = np.exp(1j * drivers[i, k])
                zeta = yi / rot
                c = exp_du * (1.0 + zeta) ** 2 / zeta
                bp = c - 2.0
                disc = np.sqrt(c * (c - 4.0))
                if (bp.real * disc.real + bp.imag * disc.imag) < 0.0:
                    disc = -disc
                den = 0.5 * (bp + disc)
                if den.real == 0.0 and den.imag == 0.0:
                    continue
                yn = rot / den
                if np.isfinite(yn.real) and np.isfinite(yn.imag):
                    yi = yn
            y[i] = yi


def backward_flow(drivers, lengths, du, y, backend: str | None = None) -> None:
    """Pull points back through a piecewise-constant radial Loewner chain.

    Row ``i`` holds a driver-angle sequence in ``drivers[i, :lengths[i]]``
    (left aligned; entries beyond the length are ignored), each value
    driving the flow for capacity ``du``.  ``y`` (complex128[n], updated
    in place) enters as the point at the final time of row ``i``'s chain
    and leaves as its physical preimage in the initial disc.  Steps whose
    inverse degenerates numerically (the point sits essentially at the
    slit base) leave the point unchanged, which errs toward the hull
    side; callers probing distances should start points slightly inside
    the unit circle rather than exactly on it.
    """
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    if active_backend(backend) == "numba":
        _backward_flow_nb(np.ascontiguousarray(drivers), lengths,
                          float(du), y)
    else:
        _backward_flow_np(drivers, lengths, float(du), y)
