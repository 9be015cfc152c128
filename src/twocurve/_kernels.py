"""Simulation kernels: the adaptive hSLE kernel, the backward Loewner
flow and the two-angle diffusion, all three compiled, with Python/numpy
fallbacks.

The compiled kernels
--------------------
``hsle_evolve_adaptive`` runs ``_hsle.c``, a C port of
``_hsle_evolve_adaptive_np``, whenever that library loads, and the Python
kernel otherwise.  The two are byte-equal on every output: both evaluate
the same libm ``sin``/``cos``/``log``/``sqrt`` (CPython's ``math`` module
calls the C library) on the same doubles in the same order, and draw the
same splitmix64 counters.  ``tests/test_kernels.py::TestCompiledKernel``
runs both on the same inputs (kappa 3, 6 and 7.5, the entry-rule rows, and
a long run with reinjections and pinches) and compares the bytes, along
with the exceptions the Python kernel raises on degenerate rows.

``backward_flow`` runs the same library's port of ``_backward_flow_np``.
Its bits follow numpy's complex arithmetic, operation by operation:
numpy's complex ``exp`` and ``sqrt`` are libm's ``cexp`` and ``csqrt``,
and its complex division is Smith's method with a reciprocal, so those are
plain C.  numpy's complex *multiply*, however, is fused by its AVX2/AVX-512
loops at every array length: a product's real part is
``fma(ar, br, -(ai*bi))`` and its imaginary part ``fma(ar, bi, ai*br)``, and
a square ``z**2`` is ``(fma(ar, ar, -(ai*ai)), ar*ai + ai*ar)``.  The C
flow calls libm ``fma()`` at exactly those roundings -- in ``(1 + zeta)**2``,
``c*(c - 4)`` and ``(conj(bp)*disc).real``, and in the products with a real
scalar (``1j*w``, ``exp(du)*...``, ``0.5*...``), where the fused and plain
forms differ only in signed zeros and underflow -- and nowhere else.  That
makes its bytes equal to the numpy flow's wherever numpy fuses, and
independent of the SIMD loop numpy dispatches to.  Where numpy's multiply
is not fused (a machine without FMA) the numpy fallback differs from the C
flow in the last bits.  ``tests/test_kernels.py::TestCompiledBackwardFlow``
replays the probe batches of estimator runs at kappa 3, 6 and 7.5 and
degenerate rows through both flows and compares the bytes; it checks first
that numpy fuses.

The library is built on first use, never at import, with the system ``cc``
and the fixed flags ``-O2 -ffp-contract=off -shared -fPIC``.  The flags are
part of the bit contract: a fused multiply-add rounds a*b + c once where
the Python code rounds twice, so contraction is off and the flow's fused
roundings are explicit ``fma()`` calls; neither ``-march=native`` nor
``-mfma`` (with either, gcc 12 fuses the flow's complex division even
under ``-ffp-contract=off``) nor ``-ffast-math`` may be added.
The library is cached in ``$XDG_CACHE_HOME/twocurve`` (default
``~/.cache/twocurve``, created with mode 0o700) under a name hashed from the
C source, the flags and ``cc --version``.  It is compiled in a temporary
directory there and renamed into place with ``os.replace``, so concurrent
processes never load a partial file.  If that directory is not usable the
library is built in a temporary directory for this process only; if there
is no compiler or the build fails, one warning is logged and all three
kernels run in Python/numpy.  ``hsle_kernel()`` names the library that ran
them.

``z_evolve`` runs the same library's port of ``_z_evolve_np`` in one
pass over each path: every step draws the uniforms at counters (2s, 2s+1),
forms the Box-Muller normals with libm ``log``, ``sqrt``, ``cos`` and
``sin``, applies ``z_update`` operation by operation, clamps, absorbs,
and snapshots at the record steps, a dead path's later snapshots holding
its frozen angles.  The numpy evolution draws through
``_rng.normal_pair_array``, whose log is libm's too (numpy's vector
``log`` differs from it in the last bit for about 0.3% of arguments), and
numpy's float64 ``sin``, ``cos`` and ``sqrt`` give libm's bits (a numpy
build whose vector ``sin`` or ``cos`` did not would fail
``TestCompiledZEvolve``), so the C step repeats the numpy one bit for bit.
``z_update`` is the one implementation of the two-angle step;
``tests/test_kernels.py::TestCompiledZEvolve`` compares the two
evolutions' bytes, and ``tests/test_timecurve.py::TestZEvolvePin`` pins
them.  The two random kernels, ``z_evolve`` and ``hsle_evolve_adaptive``,
draw from the counter-based streams of :mod:`._rng` indexed by the
absolute step, with the one Box-Muller formula of that module, so skipped
draws (dead paths) cost nothing and runs can be resumed at any step
boundary.

Threads
-------
Each compiled call runs on fixed spans of ``_ROW_BLOCK`` rows (paths),
spread over the calling thread and one lazily created pool of
``_n_workers() - 1`` threads (the CPUs of ``os.sched_getaffinity``, at
most ``_MAX_WORKERS``); ``ctypes`` releases the GIL for each foreign
call.  The bits cannot move: every row's outputs depend on its own inputs
and stream only (``tests/test_kernels.py::TestBatchInvariance``), every
span writes only its own rows, and every aggregate the callers form is an
integer sum, so the bytes are the same at any worker count
(``tests/test_cli.py`` compares ``estimates.csv`` under 1 and 2 workers).
The split depends on the row count alone, so a split adaptive call raises
the error of its lowest failing row, as a single call does.  The adaptive
kernel and the flow pass C-order row slices straight to the library;
``z_evolve`` passes its whole arrays with the span's path range, because
a span's snapshots are a column range of the step-major record arrays.
A call of at most ``_ROW_BLOCK`` rows is a single span: it runs inline
and never starts the pool.  The workers call only the C library, never the
public functions of this module, which ``benchmarks/layers.py`` wraps
with a span stack that is not thread-safe.  The Python/numpy fallbacks
hold the GIL and stay serial.

Kernels
-------
``z_evolve`` (update: ``z_update``)
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

``hsle_evolve_adaptive``
    Evolution of the radial hypergeometric-SLE driving angle together with
    its three passive boundary points, with per-path adaptive substepping,
    scale-free stopping rules and a lookup table for the hypergeometric
    drift factor.  A fixed step is only resolved while the angular gaps
    between the driving point and its neighbours stay large compared with
    the Brownian step sqrt(kappa dt): once the four points bunch (the curve
    diving toward the origin squeezes every gap like exp(-capacity)), it
    throws the driver across a gap in one update, the passive cotangent
    pushes explode, and the state goes NaN.  The kernel divides each base
    step of size dt into up to ``bmax`` equal units and advances by the
    largest unit count keeping sqrt(kappa dt_sub) below (driver gap)/KRES,
    so the walk remains resolved at every depth down to the floor gap
    ~ KRES sqrt(kappa dt / bmax).  Stopping is relative, not absolute:
    a driver-adjacent gap collapsing below ``EPS_KILL`` times the
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

import collections
import ctypes
import functools
import hashlib
import logging
import math
import os
import shutil
import subprocess
import tempfile

import numpy as np

from . import _rng, special

logger = logging.getLogger(__name__)

TWO_PI = 2.0 * math.pi
PI = math.pi


def active_backend() -> str:
    """A frozen provenance label, always ``"numpy"``: it names no kernel
    that runs.  The benchmark's provenance line still records it;
    ``hsle_kernel()`` names the library that runs the kernels.  ROADMAP
    item 9 deletes it together with that line."""
    return "numpy"


# ---------------------------------------------------------------------------
# two-angle diffusion
# ---------------------------------------------------------------------------

def z_update(a, b, g1, g2, kappa, dt):
    """One step of the two-angle diffusion from angles (a, b) with normals
    (g1, g2): Euler drift plus the diagonal Milstein term of the module
    docstring.  Returns the unclamped angles (an, bn); elementwise over
    arrays, and the same bits on scalars and on arrays of any length.
    """
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
    return an, bn


def z_evolve(z1, z2, alive, absorb_step, streams, start_step, n_steps,
             kappa, dt, rec_steps, rec_z1, rec_z2) -> None:
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
        rec_steps: int64[m] non-decreasing absolute step indices at which
            to snapshot every path, dead ones included (values in
            (start_step, start_step + n_steps]).
        rec_z1, rec_z2: float64[m, n] snapshot buffers.

    The arrays must be C-contiguous with these dtypes and shapes, the
    outputs (``z1``, ``z2``, ``alive``, ``absorb_step``, ``rec_z1``,
    ``rec_z2``) writeable, and ``start_step`` and ``n_steps`` >= 0, or
    ValueError is raised before either implementation runs.  The compiled
    kernel runs when the library builds, else ``_z_evolve_np``; both give
    the same bytes (module docstring).
    """
    start_step, n_steps = int(start_step), int(n_steps)
    kappa, dt = float(kappa), float(dt)
    _check_z_args(z1, z2, alive, absorb_step, streams, start_step, n_steps,
                  rec_steps, rec_z1, rec_z2)
    args = (z1, z2, alive, absorb_step, streams, start_step, n_steps, kappa,
            dt, rec_steps, rec_z1, rec_z2)
    lib = _hsle_lib()
    if lib is not None:
        _z_evolve_c(lib, *args)
    else:
        _z_evolve_np(*args)


def _check_z_args(z1, z2, alive, absorb_step, streams, start_step, n_steps,
                  rec_steps, rec_z1, rec_z2) -> None:
    """Raise ValueError unless the arguments are what both implementations
    of ``z_evolve`` index (its docstring lists them)."""
    n, m = (np.shape(a)[0] if np.ndim(a) else 0 for a in (z1, rec_steps))
    _check_arrays((("z1", z1, np.float64, (n,), True),
                   ("z2", z2, np.float64, (n,), True),
                   ("alive", alive, np.bool_, (n,), True),
                   ("absorb_step", absorb_step, np.int64, (n,), True),
                   ("streams", streams, np.uint64, (n,), False),
                   ("rec_steps", rec_steps, np.int64, (m,), False),
                   ("rec_z1", rec_z1, np.float64, (m, n), True),
                   ("rec_z2", rec_z2, np.float64, (m, n), True)))
    if start_step < 0 or n_steps < 0:
        raise ValueError(f"need start_step >= 0 and n_steps >= 0, got "
                         f"{start_step} and {n_steps}")
    if m and (np.any(np.diff(rec_steps) < 0) or rec_steps[0] <= start_step
              or rec_steps[-1] > start_step + n_steps):
        raise ValueError(f"rec_steps must be non-decreasing and inside "
                         f"({start_step}, {start_step + n_steps}]")


# The numpy evolution is the fallback without a compiler and the oracle of
# ``z_evolve`` in ``_hsle.c``, which repeats ``z_update`` operation by
# operation (module docstring); an edit to either must be made to both.
def _z_evolve_np(z1, z2, alive, absorb_step, streams, start_step, n_steps,
                 kappa, dt, rec_steps, rec_z1, rec_z2) -> None:
    m = rec_steps.shape[0]
    ri = 0
    for s in range(start_step, start_step + n_steps):
        if alive.any():
            idx = np.nonzero(alive)[0]
            g1, g2 = _rng.normal_pair_array(streams[idx], s)
            an, bn = z_update(z1[idx], z2[idx], g1, g2, kappa, dt)
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


def _z_evolve_c(lib, z1, z2, alive, absorb_step, streams, start_step,
                n_steps, kappa, dt, rec_steps, rec_z1, rec_z2) -> None:
    n, m = z1.shape[0], rec_steps.shape[0]

    def span(lo, hi):
        lib.z_evolve(n, lo, hi, streams, start_step, n_steps, kappa, dt, z1,
                     z2, alive, absorb_step, m, rec_steps, rec_z1, rec_z2)

    _run_spans(span, n)


# The adaptive kernel is the hot path of every two-curve estimate, and its
# outputs are frozen: a path's result must not depend on the batch it runs
# in, and a seed must keep reproducing the estimates it gave before.  It
# exists twice: ``_hsle.c`` runs whenever it builds, and the Python kernel
# below is the fallback without a compiler and the oracle the C kernel is
# tested against (``tests/test_kernels.py::TestCompiledKernel`` asserts
# equal bytes on every output and the same exception on degenerate rows).
# Both follow one rule, so that an edit to either must be made to both:
#
# * The operation order is frozen: the same libm functions (``math.*``,
#   never numpy's vector routines, which round differently in the last
#   bit) on the same doubles in the same order.  Subexpressions are shared
#   only where the inputs are bitwise the same (a half gap fed to both sin
#   and cos, the two sines used by both the cross-ratio and the drift, the
#   gaps left by the previous substep); sums are not re-associated, the
#   four logs of the cross-ratio are not merged into one, and no division
#   becomes a multiplication by a reciprocal.  The per-call constants come
#   from ``_adaptive_constants`` for both kernels.
#
# The Python kernel runs on Python floats and ints only: arrays are read
# once with ``tolist()`` (numpy scalars would make every add, multiply and
# compare about three times slower) and written once per path.  The first
# substep of macro step m always reads the uniforms at counters
# (4*m*bmax, +1), so those are drawn ahead with the vectorized generator
# (bitwise equal to the scalar one), in blocks of macro steps so that a
# path stopping early wastes few draws; later substeps and the
# reinjection decision draw one at a time.
_FIRST_DRAW_BLOCK = 256

# the boundary rule's relative-collapse threshold and reinjection scale, and
# the resolution bandwidth (the ``hsle_evolve_adaptive`` docstring)
EPS_KILL = 0.01
EPS_RET = 0.1
KRES = 3.5


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


def _adaptive_constants(kappa, dt, bmax):
    """Per-call inputs of both adaptive kernels, in the C kernel's order:
    the table (gt_vals, gt_du, gt_umax) of ``special.gtilde_table`` and
    (unit, res_units, floor_gap, p_ret, half_k6, g_top)."""
    gt_umax, gt_vals, gt_du = special.gtilde_table(kappa)
    unit = dt / bmax
    res_units = bmax * 1.0 / (kappa * KRES * KRES * dt)  # * gmin^2 -> units
    floor_gap = 0.35 * KRES * math.sqrt(kappa * unit)
    bessel_pow = (8.0 - kappa) / kappa
    p_ret = (EPS_KILL / EPS_RET) ** bessel_pow
    half_k6 = 0.5 * (kappa - 6.0)
    return (gt_vals, gt_du, gt_umax, unit, res_units, floor_gap, p_ret,
            half_k6, float(gt_vals[-1]))


def _hsle_evolve_adaptive_np(state, streams, start_macro, max_macros, kappa,
                             dt, thr_macros, bmax, snap, reached, status,
                             death_units) -> None:
    log, sin, cos, sqrt = math.log, math.sin, math.cos, math.sqrt
    uniform = _rng.uniform
    (gt_vals, gt_du, gt_umax, unit, res_units, floor_gap, p_ret, half_k6,
     g_top) = _adaptive_constants(kappa, dt, bmax)
    rows = state.tolist()
    sids = streams.tolist()
    thr = thr_macros.tolist()
    gt = gt_vals.tolist()
    k = len(thr)
    nt = len(gt)
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
                    if gw < EPS_KILL * ref_c:
                        # target-side collapse: absorb or reinject with the
                        # exact scale-function probability of the limiting
                        # Bessel gap process
                        ud = uniform(sid, ctr + 2)
                        if ud < p_ret:
                            w0 = (wi - TWO_PI) + EPS_RET * ref_c
                            g01 = v1 - w0
                            gw = w0 - (wi - TWO_PI)
                            # rounding can land the reinjected driving
                            # point on a mark when the scale is below half
                            # an ulp
                            st = _gap_status(g01, g12, g23, gw)
                        else:
                            st = 1
                    elif g01 < EPS_KILL * ref_f:
                        # protected side: the gap process never hits zero
                        # (Bessel dimension 1 + 8/kappa > 2); always returns
                        w0 = v1 - EPS_RET * ref_f
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
# compiled kernels (_hsle.c through ctypes)
# ---------------------------------------------------------------------------

_HSLE_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "_hsle.c")
# part of the bit contract (module docstring): no contraction into fused
# multiply-adds, no -ffast-math, no -march=native
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# error codes of _hsle.c and the exceptions the Python kernel raises there
_HSLE_ERRORS = {1: (ZeroDivisionError, "float division by zero"),
                2: (ValueError, "math domain error"),
                3: (ValueError, "cannot convert float NaN to integer"),
                4: (OverflowError, "cannot convert float infinity to "
                                   "integer")}


def _hsle_cache_dir() -> str:
    """Per-user cache directory of the compiled kernel, created with mode
    0o700; OSError if it cannot be created or is not this user's alone."""
    base = (os.environ.get("XDG_CACHE_HOME")
            or os.path.join(os.path.expanduser("~"), ".cache"))
    path = os.path.join(base, "twocurve")
    os.makedirs(path, mode=0o700, exist_ok=True)
    info = os.stat(path)
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise PermissionError(f"{path} is not private to this user")
    return path


def _build_hsle(cc: str, out_dir: str) -> str:
    """Path of the kernel library in ``out_dir``, compiling it there unless
    a build of the same source, flags and compiler already exists."""
    with open(_HSLE_SOURCE, "rb") as fh:
        source = fh.read()
    version = subprocess.run([cc, "--version"], capture_output=True,
                             check=True, timeout=60).stdout
    key = hashlib.sha256(b"\0".join(
        [source, " ".join(_CFLAGS).encode(), version])).hexdigest()[:20]
    path = os.path.join(out_dir, f"hsle-{key}.so")
    if not os.path.exists(path):
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            part = os.path.join(tmp, "hsle.so")
            subprocess.run([cc, *_CFLAGS, "-o", part, _HSLE_SOURCE, "-lm"],
                           capture_output=True, check=True, timeout=300)
            os.replace(part, path)
    return path


@functools.cache
def _hsle_lib():
    """The compiled library of the adaptive kernel, the backward flow and
    the two-angle diffusion, built and loaded on the first call of the
    process; None, after one logged warning, without a C compiler or when
    the build fails."""
    cc = shutil.which("cc")
    if cc is None:
        logger.warning("no C compiler (cc) on PATH; the adaptive hSLE "
                       "kernel, the backward flow and the two-angle "
                       "diffusion run in Python/numpy")
        return None
    try:
        try:
            lib = ctypes.CDLL(_build_hsle(cc, _hsle_cache_dir()))
        except OSError:
            # no usable cache: build for this process only (the loaded
            # library outlives its deleted file)
            with tempfile.TemporaryDirectory() as tmp:
                lib = ctypes.CDLL(_build_hsle(cc, tmp))
    except (OSError, subprocess.SubprocessError) as exc:
        detail = getattr(exc, "stderr", None)
        logger.warning("cannot build %s (%s%s); the adaptive hSLE kernel, "
                       "the backward flow and the two-angle diffusion run "
                       "in Python/numpy", _HSLE_SOURCE,
                       exc,
                       f": {detail.decode(errors='replace')}" if detail
                       else "")
        return None
    i8, f8 = ctypes.c_int64, ctypes.c_double

    def arr(dtype):
        return np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")

    fn = lib.hsle_evolve_adaptive
    fn.restype = ctypes.c_int
    fn.argtypes = [
        i8, i8, i8, arr(np.float64), arr(np.uint64), i8, i8, f8,
        arr(np.int64), f8, f8, i8, arr(np.float64), f8, f8,
        f8, f8, f8, f8, f8, f8,
        arr(np.float64), arr(np.uint8), arr(np.uint8), arr(np.int64),
        ctypes.POINTER(i8)]
    fn = lib.backward_flow
    fn.restype = None
    fn.argtypes = [i8, i8, arr(np.float64), arr(np.int64), f8,
                   arr(np.complex128)]
    fn = lib.z_evolve
    fn.restype = None
    fn.argtypes = [i8, i8, i8, arr(np.uint64), i8, i8, f8, f8,
                   arr(np.float64), arr(np.float64), arr(np.bool_),
                   arr(np.int64), i8, arr(np.int64), arr(np.float64),
                   arr(np.float64)]
    return lib


def hsle_kernel() -> str:
    """Name of the library that runs ``hsle_evolve_adaptive``,
    ``backward_flow`` and ``z_evolve`` in this process: ``"c"`` or
    ``"python"`` (numpy for the flow and ``z_evolve``).  Builds the library
    on first use."""
    return "c" if _hsle_lib() is not None else "python"


# rows (paths) per span of a split compiled call; the split depends on the
# row count only, never on the number of workers (module docstring)
_ROW_BLOCK = 32
# most threads of the kernel pool
_MAX_WORKERS = 4


@functools.cache
def _n_workers() -> int:
    """Threads that run the spans of a compiled call: the CPUs this process
    may run on, at most ``_MAX_WORKERS``."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(_MAX_WORKERS, cpus))


@functools.cache
def _pool(threads: int):
    """The kernel pool of ``threads`` helper threads, created by the first
    call split over more than one worker, never at import (nor is its
    module imported then)."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(threads, thread_name_prefix="twocurve-kernel")


def _run_spans(fn, n: int) -> list:
    """Results of ``fn(lo, hi)`` over the spans [0, B), [B, 2B), ... of
    ``range(n)`` (one empty span if ``n`` is 0), B = ``_ROW_BLOCK``, in span
    order.  The calling thread and up to ``_n_workers() - 1`` pool threads
    take the spans in order from one queue, so a call with a single span
    runs inline and never touches the pool.  ``fn`` must call only the C
    library (module docstring)."""
    block = _ROW_BLOCK
    los = range(0, max(n, 1), block)
    out = [None] * len(los)
    todo = collections.deque(range(len(los)))  # popleft is thread-safe

    def drain():
        while True:
            try:
                i = todo.popleft()
            except IndexError:
                return
            out[i] = fn(los[i], min(los[i] + block, n))

    workers = min(_n_workers(), len(los))
    helpers = [_pool(_n_workers() - 1).submit(drain)
               for _ in range(workers - 1)]
    try:
        drain()
    finally:
        # after an exception here the helpers stop at their next span;
        # none may still write when the call returns
        todo.clear()
        for f in helpers:
            f.exception()
    for f in helpers:
        f.result()
    return out


def kernel_workers() -> int:
    """Threads that run the kernels in this process: ``_n_workers()``
    (the calling thread and the pool's) when the library builds, 1 for
    the serial Python/numpy fallbacks."""
    return _n_workers() if _hsle_lib() is not None else 1


def _hsle_evolve_adaptive_c(lib, state, streams, start_macro, max_macros,
                            kappa, dt, thr_macros, bmax, snap, reached,
                            status, death_units) -> None:
    consts = _adaptive_constants(kappa, dt, bmax)
    k, nt = thr_macros.shape[0], consts[0].shape[0]

    def span(lo, hi):
        err_row = ctypes.c_int64(-1)
        code = lib.hsle_evolve_adaptive(
            hi - lo, k, nt, state[lo:hi], streams[lo:hi], start_macro,
            max_macros, kappa, thr_macros, EPS_KILL, EPS_RET, bmax, *consts,
            snap[lo:hi], reached[lo:hi], status[lo:hi], death_units[lo:hi],
            ctypes.byref(err_row))
        return code, lo + err_row.value

    # the first failing span holds the lowest failing row, as in a
    # single call
    for code, row in _run_spans(span, state.shape[0]):
        if code:
            exc, message = _HSLE_ERRORS[code]
            raise exc(f"{message} (adaptive hSLE kernel, row {row})")


def hsle_evolve_adaptive(state, streams, start_macro, max_macros, kappa, dt,
                         thr_macros, snap, reached, status, death_units,
                         bmax) -> None:
    """Evolve radial hSLE angles with adaptive substepping (see module doc).

    Each base step of size ``dt`` (a "macro" step) is split into up to
    ``bmax`` equal units; a substep consumes the largest unit count whose
    duration dt_sub keeps sqrt(kappa dt_sub) <= (min driver gap)/KRES, so
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
    ``EPS_KILL`` times the smallest other gap it is either reinjected to
    ``EPS_RET`` times that scale (with the Bessel return probability
    (EPS_KILL/EPS_RET)^((8-kappa)/kappa) on the completion side; always
    on the protected side) or declared absorbed (status 1).  Remaining
    stops: status 2 for a non-positive protected gap (unresolved
    overshoot; rare), status 4 for a non-positive passive gap (the same
    three rules also stop a row that enters with a non-positive gap, with
    ``death_units`` 0, and a reinjection that rounds onto a mark), and
    status 3 when both driver gaps sink below the resolution floor
    ~ 0.35 * KRES * sqrt(kappa dt / bmax) while no relative collapse
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

    The drift factor comes from ``special.gtilde_table(kappa)``, built on
    the first call at each kappa.

    The arrays must be C-contiguous with these dtypes and shapes, or
    ValueError is raised before either kernel runs: ``state`` float64[n, 4]
    and ``streams`` uint64[n]; ``thr_macros`` int64[k]; the outputs
    ``snap`` float64[n, k, 4], ``reached`` uint8[n, k], ``status`` uint8[n]
    and ``death_units`` int64[n], writeable.  ``bmax`` >= 1 and
    ``start_macro`` >= 0.  The compiled kernel runs when it builds, else
    ``_hsle_evolve_adaptive_np``; both give the same bytes and raise the
    same exceptions (module docstring): the one of the lowest failing row,
    whose number the compiled kernel's message names.  The outputs of the
    rows past that row are unspecified after an exception.
    """
    start_macro, max_macros = int(start_macro), int(max_macros)
    bmax = int(bmax)
    _check_adaptive_args(state, streams, thr_macros, snap, reached, status,
                         death_units, bmax, start_macro)
    args = (state, streams, start_macro, max_macros, float(kappa), float(dt),
            thr_macros, bmax, snap, reached, status, death_units)
    lib = _hsle_lib()
    if lib is not None:
        _hsle_evolve_adaptive_c(lib, *args)
    else:
        _hsle_evolve_adaptive_np(*args)


def _check_arrays(specs) -> None:
    """Raise ValueError naming the first (name, array, dtype, shape,
    output) spec whose array is not a C-contiguous array of that dtype and
    shape, writeable if it is an output."""
    for name, arr, dtype, shape, out in specs:
        if not (isinstance(arr, np.ndarray) and arr.dtype == dtype
                and arr.shape == shape and arr.flags.c_contiguous
                and (arr.flags.writeable or not out)):
            raise ValueError(
                f"{name} must be a C-contiguous{' writeable' if out else ''} "
                f"{np.dtype(dtype).name} array of shape {shape}")


def _check_adaptive_args(state, streams, thr_macros, snap, reached, status,
                         death_units, bmax, start_macro):
    """Raise ValueError unless the arguments are what both adaptive kernels
    index (the ``hsle_evolve_adaptive`` docstring lists them)."""
    n, k = (np.shape(a)[0] if np.ndim(a) else 0 for a in (state, thr_macros))
    _check_arrays((("state", state, np.float64, (n, 4), True),
                   ("streams", streams, np.uint64, (n,), False),
                   ("thr_macros", thr_macros, np.int64, (k,), False),
                   ("snap", snap, np.float64, (n, k, 4), True),
                   ("reached", reached, np.uint8, (n, k), True),
                   ("status", status, np.uint8, (n,), True),
                   ("death_units", death_units, np.int64, (n,), True)))
    if bmax < 1 or start_macro < 0:
        raise ValueError(f"need bmax >= 1 and start_macro >= 0, got "
                         f"{bmax} and {start_macro}")


# ---------------------------------------------------------------------------
# backward Loewner flow (pullback through a stored driving sequence)
# ---------------------------------------------------------------------------

def backward_flow(drivers, lengths, du, y) -> None:
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

    ``drivers`` must be a C-contiguous float64[n, w] array, ``lengths``
    int64[n] and ``y`` a writeable complex128[n], or ValueError is raised
    before either flow runs.  The compiled flow runs when the library
    builds, else ``_backward_flow_np``; both give the same bytes where
    numpy's complex multiply is fused (module docstring).
    """
    n, w = np.shape(drivers) if np.ndim(drivers) == 2 else ("n", "w")
    _check_arrays((("drivers", drivers, np.float64, (n, w), False),
                   ("lengths", lengths, np.int64, (n,), False),
                   ("y", y, np.complex128, (n,), True)))
    lib = _hsle_lib()
    if lib is None:
        _backward_flow_np(drivers, lengths, du, y)
        return
    exp_du = math.exp(float(du))

    def span(lo, hi):
        lib.backward_flow(hi - lo, w, drivers[lo:hi], lengths[lo:hi], exp_du,
                          y[lo:hi])

    _run_spans(span, n)


# The numpy flow is the fallback without a compiler and the oracle of the C
# flow in ``_hsle.c``, which repeats its complex operations one by one
# (module docstring); an edit to either must be made to both.
def _backward_flow_np(drivers, lengths, du, y) -> None:
    width = drivers.shape[1]
    exp_du = math.exp(float(du))
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
