"""Monte Carlo estimators for near-origin events of the two-curve ensemble.

The quantities estimated here are probabilities that one or both curves
of the commuting pair approach the origin of the unit disc: the
two-curve hitting probability P[dist(0, eta_j) < r for j = 1, 2], its
power-law exponent and intercept, the constant relating the intercept to
the four-point boundary function, the intersection-point variant, and an
importance-weighted survival estimator along the common-time
parametrization that targets the same exponent through an entirely
different route.

Estimation strategy
-------------------
Curves are grown through their radial Loewner driving processes (the
four-angle diffusion of :func:`hsle_drift`).  Geometric events are
decided through capacity certificates wherever possible and through
backward-flow distance probes only where no certificate applies:

* Capacity is deterministic time.  Growing a curve to capacity s leaves
  the origin's complementary component with conformal radius exactly
  e^(-s), so "conformal radius <= r" is equivalent to "the driving
  process survives to capacity log(1/r)" -- an event read off the
  simulation exactly, with no probing.  Koebe's quarter theorem converts
  it to Euclidean distance within a factor of 4.

* A flow stop with both driver-adjacent gaps collapsed (status 3 of the
  adaptive kernel) is the curve closing a loop that disconnects the
  origin: the conformal radius freezes at e^(-s) at that moment.  During
  the second curve's conditional run this is the decisive event: a
  disconnection at relative capacity s_b with e^(-s_b) < 1/4 pushes the
  whole boundary of the origin's pocket below r/4 -- and the first
  curve's trace is at least r/4 away by the quarter theorem -- so the
  nearest boundary point must lie on the second curve, certifying its
  hit with no probe.

* Remaining undecided paths (mostly completions of the second curve) are
  probed: the tip of a simulated curve at any time is the image of its
  driving point under the backward Loewner flow, so pulling stored
  driver snapshots back through the composed chain traces the curve and
  yields its minimum distance from the origin.  Probe starts are nudged
  slightly inside the unit circle: exact boundary points can fall into
  the hull's preimage under the discretized backward flow and come back
  as spurious deep points.  The mass of paths whose probed minimum falls
  within the probe resolution of the decision radius is folded into the
  reported standard error.

The two curves are grown sequentially: the first to its stopping
capacity, then the second under its conditional law given that segment,
which is again a four-angle diffusion with the partner slots replaced by
the first curve's tip and target images.  The first curve's stop event
is measurable with respect to the grown segment, so the sequential
factorization is exact.

Randomness is counter-based: path i of a run draws from streams derived
from the master seed with ids 2i (first curve) and 2i+1 (second curve),
so estimates are bit-reproducible from the recorded (seed, dt, n_paths,
configuration) on a fixed backend, independent of chunking, and runs
over disjoint path ranges merge exactly.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, _rng, loewner, special
from .context import KappaContext
from .green import BoundaryConfig, G_quad, G_u, alpha0, beta0
from .loewner import DrivingPath
from .timecurve import ZState, simulate_z_ensemble
from .trig import cot2, sin2

TWO_PI = 2.0 * math.pi

# ---------------------------------------------------------------------------
# drift-factor lookup table, cached per kappa
# ---------------------------------------------------------------------------

_GT_TABLE_N = 20001
_GT_TABLE_XMAX = 1.0 - 1e-8
_gt_cache: dict[float, tuple[float, np.ndarray, float]] = {}


def _gt_table(ctx: KappaContext) -> tuple[float, np.ndarray, float]:
    """(u_max, values, du) of the tabulated drift factor for ctx.kappa."""
    key = float(ctx.kappa)
    hit = _gt_cache.get(key)
    if hit is None:
        umax, vals = special.gtilde_table(ctx, x_max=_GT_TABLE_XMAX,
                                          n=_GT_TABLE_N)
        hit = (umax, vals, umax / (vals.size - 1))
        _gt_cache[key] = hit
    return hit


# ---------------------------------------------------------------------------
# estimate records
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("kappa", "method", "r_or_t", "estimate", "stderr", "ess",
               "n_paths", "dt", "seed", "flags")


@dataclass(frozen=True)
class EstimateRecord:
    """One Monte Carlo estimate with everything needed to reproduce it.

    ``config`` holds the full input configuration (marked angles or start
    state, radius/time lists, and estimator parameters) as a plain dict;
    together with (seed, dt, n_paths) it reproduces the run bit-for-bit
    on a fixed backend.  ``flags`` collects warnings such as
    ``insufficient_survivors`` or ``probe_band``; ``ess`` is the
    effective sample size (equal to n_paths for unweighted frequencies).
    """

    kappa: float
    method: str
    r_or_t: float
    estimate: float
    stderr: float
    ess: float
    n_paths: int
    dt: float
    seed: int
    config: dict = field(default_factory=dict)
    flags: tuple = ()

    @property
    def accepted(self) -> bool:
        """Quality gate: effective sample size above 100."""
        return self.ess > 100.0

    def to_row(self) -> list:
        return [self.kappa, self.method, self.r_or_t, self.estimate,
                self.stderr, self.ess, self.n_paths, self.dt, self.seed,
                ";".join(self.flags)]


def records_to_csv(records, path) -> None:
    """Write records with the stable column schema (flags ';'-joined)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(rec.to_row())


def read_records_csv(path) -> list:
    """Read rows written by :func:`records_to_csv` as typed dicts."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise ValueError(f"unexpected estimate CSV columns: "
                             f"{reader.fieldnames}")
        for row in reader:
            out.append({
                "kappa": float(row["kappa"]),
                "method": row["method"],
                "r_or_t": float(row["r_or_t"]),
                "estimate": float(row["estimate"]),
                "stderr": float(row["stderr"]),
                "ess": float(row["ess"]),
                "n_paths": int(row["n_paths"]),
                "dt": float(row["dt"]),
                "seed": int(row["seed"]),
                "flags": tuple(f for f in row["flags"].split(";") if f),
            })
    return out


# ---------------------------------------------------------------------------
# the four-angle drift
# ---------------------------------------------------------------------------

def _cyclic_gaps(w0: float, winf: float, v1: float, v2: float
                 ) -> tuple[float, float, float, float]:
    """Consecutive gaps (a1, a2, a3) walking w0 -> v1 -> v2 -> winf, plus
    the orientation sign (+1 when the walk descends, -1 ascending)."""
    d1 = w0 - v1
    if d1 > 0.0:
        orient = 1.0
        a1, a2, a3 = d1, v1 - v2, v2 - winf
    else:
        orient = -1.0
        a1, a2, a3 = -d1, v2 - v1, winf - v2
    return a1, a2, a3, orient


def hsle_drift(ctx: KappaContext, w0: float, winf: float, v1: float,
               v2: float) -> float:
    """Drift of the driving angle of one curve of the commuting pair.

    The four angles are the driving point ``w0``, the curve's own target
    ``winf``, and the partner curve's target ``v1`` and starting point
    ``v2``, in strict cyclic order: either w0 > v1 > v2 > winf > w0-2pi
    or the reversed (ascending) arrangement.  Returns

        (kappa-6)/2 * cot2(w0-winf)
        + 1/2 * (cot2(w0-v1) - cot2(w0-v2)) * Gtilde(R)

    where R in (0, 1) is the sine cross-ratio
    1 - [sin2(w0-winf) sin2(v1-v2)] / [sin2(w0-v2) sin2(v1-winf)] of the
    four points and Gtilde the hypergeometric interaction factor.

    Raises:
        ValueError: if the four angles violate the strict cyclic order.
    """
    a1, a2, a3, orient = _cyclic_gaps(w0, winf, v1, v2)
    total = a1 + a2 + a3
    if not (0.0 < a1 and 0.0 < a2 and 0.0 < a3 and total < TWO_PI):
        raise ValueError(
            "angles must satisfy the strict cyclic order w0, v1, v2, winf "
            f"within one turn; got w0={w0}, winf={winf}, v1={v1}, v2={v2}")
    # log of (1 - R): sines of positive angles below pi-complement bounds
    log_one_minus_r = (math.log(sin2(total)) + math.log(sin2(a2))
                       - math.log(sin2(a1 + a2)) - math.log(sin2(a2 + a3)))
    r_val = -math.expm1(log_one_minus_r)
    gt = special.hyp_tilde_G(ctx, r_val)
    return orient * (0.5 * (ctx.kappa - 6.0) * cot2(total)
                     + 0.5 * (cot2(a1) - cot2(a1 + a2)) * gt)


# ---------------------------------------------------------------------------
# fresh and conditional state tuples (ascending covering order)
# ---------------------------------------------------------------------------

def _fresh_tuple(cfg: BoundaryConfig, j: int) -> np.ndarray:
    """Kernel state row (w0, v1, v2, winf) for growing curve ``j`` of
    ``cfg`` from scratch, in ascending covering order."""
    if j == 1:
        row = (cfg.w1, cfg.v2 + TWO_PI, cfg.w2 + TWO_PI, cfg.v1 + TWO_PI)
    elif j == 2:
        row = (cfg.w2, cfg.v1, cfg.w1, cfg.v2 + TWO_PI)
    else:
        raise ValueError(f"curve index must be 1 or 2, got {j}")
    return np.array(row, dtype=float)


def _conditional_tuples(snap_rows: np.ndarray) -> np.ndarray:
    """Second-curve state rows given first-curve snapshots.

    A first-curve snapshot row is (tip, v1, v2, winf) = (driving point,
    partner target image, partner start image, own target image).  The
    second curve then starts at the partner start image, its own target
    is the partner target image, and its partner slots are the first
    curve's tip (the start of the remaining piece) and target image.
    Reordered ascending this is (v2 - 2pi, winf - 2pi, tip, v1).
    """
    out = np.empty_like(snap_rows)
    out[:, 0] = snap_rows[:, 2] - TWO_PI
    out[:, 1] = snap_rows[:, 3] - TWO_PI
    out[:, 2] = snap_rows[:, 0]
    out[:, 3] = snap_rows[:, 1]
    return out


# ---------------------------------------------------------------------------
# single-path driving simulation (fixed-step kernel)
# ---------------------------------------------------------------------------

def simulate_hsle(ctx: KappaContext, cfg: BoundaryConfig, j: int, dt: float,
                  seed: int, stop: dict, backend: str | None = None
                  ) -> tuple[DrivingPath, dict]:
    """Simulate one curve's driving function until a stop event.

    Explicit Euler-Maruyama steps of the four-angle system: the driving
    angle moves by :func:`hsle_drift` dt plus sqrt(kappa dt) noise, each
    companion angle by cot2(companion - driver) dt.  The path stops at

    * ``stop={"capacity": t}``: the requested capacity, to within one
      step; or
    * ``stop={"radius": r}``: the first step at which the probed minimum
      distance from the origin to the curve falls below r (checked in
      blocks through :func:`loewner.min_distance_to_origin`, then
      localized by bisection in the final block); or
    * a numerical collision of the driver with an adjacent companion
      (tolerance 10 sqrt(kappa dt)), ending the solution interval early
      -- completion on the target side, flagged force-point collision on
      the partner side.

    Returns:
        (path, companions): the driving function as a
        :class:`loewner.DrivingPath` (capacity speed 1), and a dict with
        the co-evolved angle series ``winf``, ``v1``, ``v2`` on the same
        grid plus ``stop_reason`` ("radius" | "capacity" | "completed" |
        "collision"), ``capacity``, ``flags``, and for radius stops
        ``min_distance`` and the conformal-radius bracket
        ``radius_bracket`` = (e^-t / 4, e^-t).
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not isinstance(stop, dict) or len(stop) != 1 or \
            next(iter(stop)) not in ("radius", "capacity"):
        raise ValueError("stop must be {'radius': r} or {'capacity': t}")
    mode, value = next(iter(stop.items()))
    value = float(value)
    if value <= 0.0:
        raise ValueError(f"stop {mode} must be positive, got {value}")
    if mode == "radius" and value >= 1.0:
        raise ValueError("stop radius must be below 1 (curves start on "
                         "the unit circle)")

    umax, gt_vals, gt_du = _gt_table(ctx)
    tol = 10.0 * math.sqrt(ctx.kappa * dt)
    state = _fresh_tuple(cfg, j)[None, :].copy()
    streams = _rng.derive_stream_array(seed, np.array([0], dtype=np.uint64))

    if mode == "capacity":
        max_steps = max(1, int(round(value / dt)))
    else:
        max_steps = max(1, int(math.ceil(math.log(4.0 / value) / dt)) + 1)
    block = 50

    w_series = [state[0, 0]]
    v1_series = [state[0, 1]]
    v2_series = [state[0, 2]]
    winf_series = [state[0, 3]]
    status = 0
    done = 0
    min_dist = None
    stop_reason = None

    def _prefix_path(n_steps: int) -> DrivingPath:
        t = np.arange(n_steps + 1) * dt
        return DrivingPath(t, np.asarray(w_series[:n_steps + 1]))

    while done < max_steps and status == 0:
        bs = min(block, max_steps - done)
        thr = np.arange(1, bs + 1, dtype=np.int64)
        snap = np.zeros((1, bs, 4))
        reached = np.zeros((1, bs), dtype=np.uint8)
        st = np.zeros(1, dtype=np.uint8)
        death = np.full(1, -1, dtype=np.int64)
        _kernels.hsle_evolve(state, streams, done, bs, ctx.kappa, dt,
                             thr, tol, gt_vals, gt_du, umax,
                             snap, reached, st, death, backend=backend)
        alive_steps = bs if death[0] < 0 else int(death[0])
        for k in range(alive_steps):
            w_series.append(snap[0, k, 0])
            v1_series.append(snap[0, k, 1])
            v2_series.append(snap[0, k, 2])
            winf_series.append(snap[0, k, 3])
        done += alive_steps
        status = int(st[0])
        if status != 0:
            break
        if mode == "radius":
            d = loewner.min_distance_to_origin(
                _prefix_path(done), done * dt,
                dt_micro=max(dt, 1e-3), max_samples=48)
            if d <= value:
                lo, hi = max(0, done - bs), done
                # min distance over the prefix is nonincreasing in length:
                # bisect for the first prefix with minimum <= r
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    dm = loewner.min_distance_to_origin(
                        _prefix_path(mid), mid * dt,
                        dt_micro=max(dt, 1e-3), max_samples=48)
                    if dm <= value:
                        hi = mid
                    else:
                        lo = mid
                done = hi
                del w_series[done + 1:]
                del v1_series[done + 1:]
                del v2_series[done + 1:]
                del winf_series[done + 1:]
                min_dist = loewner.min_distance_to_origin(
                    _prefix_path(done), done * dt,
                    dt_micro=max(dt, 1e-3), max_samples=48)
                stop_reason = "radius"
                break

    flags: tuple[str, ...] = ()
    if stop_reason is None:
        if status == 1:
            stop_reason = "completed"
        elif status != 0:
            stop_reason = "collision"
            flags = ("early_termination",)
        else:
            stop_reason = "capacity"
    capacity = done * dt
    path = _prefix_path(done)
    companions = {
        "winf": np.asarray(winf_series),
        "v1": np.asarray(v1_series),
        "v2": np.asarray(v2_series),
        "stop_reason": stop_reason,
        "capacity": capacity,
        "flags": flags,
    }
    if mode == "radius":
        companions["min_distance"] = min_dist
        companions["radius_bracket"] = (math.exp(-capacity) / 4.0,
                                        math.exp(-capacity))
    return path, companions


# ---------------------------------------------------------------------------
# two-stage hit estimator
# ---------------------------------------------------------------------------

# Frozen estimator parameters (also recorded in every EstimateRecord):
# relative-collapse threshold and reinjection scale of the adaptive
# kernel's exact boundary rule, its resolution bandwidth, substep budget,
# snapshot stride (macro steps per stored driver value), the second
# stage's capacity horizon and disconnection-certificate margin
# (e^-1.5 < 1/4), the probe pull-in and the probe's relative resolution
# used for the decision-sensitive band.
_TWO_STAGE_DEFAULTS = dict(eps_kill=0.01, eps_ret=0.1, kres=3.5,
                           bmax=262144, stride=10, cap_b=3.0,
                           swallow_margin=1.5, eps_in=1e-3,
                           probe_rel_err=0.03)
_COARSE_FRACTIONS = (0.08, 0.2, 0.35, 0.5, 0.65, 0.8, 0.92, 1.0)


def _batched_pullback(rows: list, y0: list, du: float,
                      backend: str | None, batch_rows: int = 4096
                      ) -> np.ndarray:
    """Pull each row's start point back through its driver sequence.

    Rows are grouped by length (batches padded to the longest member) to
    bound the padded-matrix memory; returns the complex physical points.
    """
    out = np.empty(len(rows), dtype=complex)
    order = np.argsort([len(w) for w in rows], kind="stable")
    for i0 in range(0, len(order), batch_rows):
        sel = order[i0:i0 + batch_rows]
        width = max(1, max(len(rows[i]) for i in sel))
        mat = np.zeros((len(sel), width))
        lens = np.empty(len(sel), dtype=np.int64)
        y = np.empty(len(sel), dtype=complex)
        for k, i in enumerate(sel):
            w = rows[i]
            mat[k, :len(w)] = w
            lens[k] = len(w)
            y[k] = y0[i]
        _kernels.backward_flow(mat, lens, du, y, backend=backend)
        out[sel] = y
    return out


def _probe_paths(prefix_w: dict, wb_snaps: np.ndarray, wb_counts: np.ndarray,
                 entry_w: np.ndarray, need: np.ndarray, radius: float,
                 du: float, eps_in: float, backend: str | None,
                 keep_points: bool):
    """Minimum probed distance from the origin to each second-stage curve.

    For each path in ``need`` the composed driver sequence is the first
    curve's stored prefix (``prefix_w[path]``), the second curve's entry
    driver value, and its stored snapshots; the curve is probed at eight
    coarse fractions of its lifetime and, when the coarse minimum falls
    below 3 * radius, on a refined window around the argmin.  Points
    start pulled inside the circle by ``eps_in``.  Returns (dmin, points)
    with dmin indexed like ``need``'s parent array and, when
    ``keep_points``, the complex probe points with modulus <= 2 * radius
    per path (for intersection detection).
    """
    n_parent = wb_counts.shape[0]
    dmin = np.full(n_parent, np.inf)
    points: dict[int, list] = {q: [] for q in need} if keep_points else {}

    def _rows_for(q: int, counts) -> tuple[list, list]:
        wa = prefix_w[q]
        m = int(wb_counts[q])
        seqs, starts = [], []
        for c in counts:
            c = min(max(c, 0), m)
            seq = np.concatenate(
                [wa, [entry_w[q]], wb_snaps[q, :c]]) if c > 0 else \
                np.concatenate([wa, [entry_w[q]]])
            # the final entry is the probe point; earlier entries drive
            # the backward steps
            seqs.append(seq[:-1])
            starts.append((1.0 - eps_in) * np.exp(1j * seq[-1]))
        return seqs, starts

    rows, y0, pid, cval = [], [], [], []
    for q in need:
        m = int(wb_counts[q])
        counts = sorted({int(round(f * m)) for f in _COARSE_FRACTIONS})
        seqs, starts = _rows_for(q, counts)
        rows.extend(seqs)
        y0.extend(starts)
        pid.extend([q] * len(counts))
        cval.extend(counts)
    if not rows:
        return dmin, points
    vals = _batched_pullback(rows, y0, du, backend)
    dist = np.abs(vals)
    dist = np.where(np.isnan(dist), np.inf, dist)
    pid_arr = np.asarray(pid)
    np.minimum.at(dmin, pid_arr, dist)
    if keep_points:
        for v, q in zip(vals, pid):
            if np.isfinite(v.real) and abs(v) <= 2.0 * radius:
                points[q].append(v)
    best_c: dict[int, int] = {}
    for d, q, c in zip(dist, pid, cval):
        if d <= dmin[q]:
            best_c[q] = c

    rows, y0, pid = [], [], []
    for q in need:
        if dmin[q] > 3.0 * radius:
            continue
        m = int(wb_counts[q])
        if m == 0:
            continue
        half = max(1, m // 6)
        center = best_c.get(q, m)
        lo, hi = max(0, center - half), min(m, center + half)
        step = max(1, (hi - lo) // 60)
        counts = list(range(lo, hi + 1, step))
        seqs, starts = _rows_for(q, counts)
        rows.extend(seqs)
        y0.extend(starts)
        pid.extend([q] * len(counts))
    if rows:
        vals = _batched_pullback(rows, y0, du, backend)
        dist = np.abs(vals)
        dist = np.where(np.isnan(dist), np.inf, dist)
        np.minimum.at(dmin, np.asarray(pid), dist)
        if keep_points:
            for v, q in zip(vals, pid):
                if np.isfinite(v.real) and abs(v) <= 2.0 * radius:
                    points[q].append(v)
    return dmin, points


def _two_stage_run(ctx: KappaContext, cfg: BoundaryConfig, r_list,
                   n_paths: int, dt: float, seed: int, path_start: int,
                   params: dict, collect_meet: bool,
                   backend: str | None):
    """Chunked two-stage sampler; returns per-radius aggregate counters.

    Per radius r the counters are: certified first-curve deep events
    (survival to capacity log(1/r)), second-stage hits by certificate
    class (disconnection, horizon survival, probe), the decision-
    sensitive probe band, excluded unresolved paths, and optionally
    intersection-rule hits (second curve probed within 0.15 r of the
    first curve's deep polyline, meeting point within r).
    """
    kappa = ctx.kappa
    umax, gt_vals, gt_du = _gt_table(ctx)
    stride = int(params["stride"])
    eps_in = float(params["eps_in"])
    du_probe = stride * dt
    bmax = int(params["bmax"])
    rs = sorted(float(r) for r in r_list)
    thr_m = {r: max(stride,
                    int(round(math.log(1.0 / r) / (stride * dt))) * stride)
             for r in rs}
    cap_a = max(thr_m.values())
    grid = np.arange(stride, cap_a + 1, stride, dtype=np.int64)
    cap_b = int(round(params["cap_b"] / dt / stride)) * stride
    grid_b = np.arange(stride, cap_b + 1, stride, dtype=np.int64)
    row0 = _fresh_tuple(cfg, 1)
    agg = {r: dict(certified=0, hit=0, hit_swallow=0, hit_alive=0,
                   hit_probe=0, band=0, excluded=0, meet=0)
           for r in rs}
    chunk = int(params.get("chunk_paths", 4000))

    for c0 in range(0, n_paths, chunk):
        nc = min(chunk, n_paths - c0)
        ids = np.arange(c0, c0 + nc, dtype=np.int64) + path_start
        state = np.tile(row0, (nc, 1))
        streams = _rng.derive_stream_array(
            seed, (2 * ids).astype(np.uint64))
        snap_a = np.zeros((nc, grid.size, 4))
        reached_a = np.zeros((nc, grid.size), dtype=np.uint8)
        status_a = np.zeros(nc, dtype=np.uint8)
        death_a = np.full(nc, -1, dtype=np.int64)
        _kernels.hsle_evolve_adaptive(
            state, streams, 0, cap_a, kappa, dt, grid, gt_vals, gt_du,
            umax, snap_a, reached_a, status_a, death_a,
            eps_kill=params["eps_kill"], eps_ret=params["eps_ret"],
            kres=params["kres"], bmax=bmax, backend=backend)

        for r in rs:
            tm = thr_m[r]
            ti = int(np.searchsorted(grid, tm))
            cert = np.where(reached_a[:, ti] == 1)[0]
            agg[r]["certified"] += int(cert.size)
            agg[r]["excluded"] += int(
                np.count_nonzero((status_a == 2) | (status_a == 4)))
            if cert.size == 0:
                continue
            entry = _conditional_tuples(snap_a[cert, ti, :])
            nb = cert.size
            state_b = entry.copy()
            streams_b = _rng.derive_stream_array(
                seed, (2 * ids[cert] + 1).astype(np.uint64))
            snap_b = np.zeros((nb, grid_b.size, 4))
            reached_b = np.zeros((nb, grid_b.size), dtype=np.uint8)
            status_b = np.zeros(nb, dtype=np.uint8)
            death_b = np.full(nb, -1, dtype=np.int64)
            _kernels.hsle_evolve_adaptive(
                state_b, streams_b, 0, cap_b, kappa, dt, grid_b, gt_vals,
                gt_du, umax, snap_b, reached_b, status_b, death_b,
                eps_kill=params["eps_kill"], eps_ret=params["eps_ret"],
                kres=params["kres"], bmax=bmax, backend=backend)
            life_b = np.where(death_b < 0, float(cap_b) * bmax,
                              death_b.astype(float)) * (dt / bmax)
            swallow_hit = ((status_b == 3)
                           & (life_b >= params["swallow_margin"]))
            alive_hit = status_b == 0
            agg[r]["excluded"] += int(
                np.count_nonzero((status_b == 2) | (status_b == 4)))
            need = np.where(~(swallow_hit | alive_hit))[0]
            wb_counts = reached_b.sum(axis=1).astype(np.int64)
            prefix_w = {int(q): np.concatenate(
                [[row0[0]], snap_a[cert[q], :ti + 1, 0]])
                for q in (need if not collect_meet else range(nb))}
            dmin, pts = _probe_paths(
                prefix_w, snap_b[:, :, 0], wb_counts, entry[:, 0],
                need, r, du_probe, eps_in, backend,
                keep_points=collect_meet)
            probe_hit = np.zeros(nb, dtype=bool)
            probe_hit[need] = dmin[need] <= r
            hits = swallow_hit | alive_hit | probe_hit
            tol_band = params["probe_rel_err"] * r
            band = np.zeros(nb, dtype=bool)
            band[need] = np.abs(dmin[need] - r) <= tol_band
            agg[r]["hit"] += int(hits.sum())
            agg[r]["hit_swallow"] += int(swallow_hit.sum())
            agg[r]["hit_alive"] += int(alive_hit.sum())
            agg[r]["hit_probe"] += int(probe_hit.sum())
            agg[r]["band"] += int(np.count_nonzero(band & np.isfinite(dmin)))
            if collect_meet:
                agg[r]["meet"] += _count_meets(
                    ctx, hits, pts, prefix_w, snap_b, wb_counts, entry,
                    swallow_hit, alive_hit, need, r, ti, du_probe, eps_in,
                    backend)
    return agg, thr_m, cap_b


def _count_meets(ctx, hits, pts, prefix_w, snap_b, wb_counts, entry,
                 swallow_hit, alive_hit, need, r, ti, du_probe, eps_in,
                 backend) -> int:
    """Count hit paths whose second curve passes within 0.15 r of the
    first curve's deep polyline with the meeting point within r."""
    hit_idx = np.where(hits)[0]
    if hit_idx.size == 0:
        return 0
    # second-curve probe points for certificate hits (skipped by the
    # decision probes): probe them now
    probed = set(need.tolist())
    extra = [q for q in hit_idx if q not in probed]
    if extra:
        _, pts_extra = _probe_paths(
            prefix_w, snap_b[:, :, 0], wb_counts, entry[:, 0],
            np.asarray(extra, dtype=np.int64), r, du_probe, eps_in,
            backend, keep_points=True)
        pts.update(pts_extra)
    # first-curve deep polyline: pull back its tip at 40 prefix times
    # spanning the last octaves of the dive
    meet = 0
    n_nodes = 40
    for q in hit_idx:
        q = int(q)
        pb = [p for p in pts.get(q, [])]
        if not pb:
            continue
        wa = prefix_w[q]
        lo = max(1, len(wa) - int(2.3 / du_probe))
        idx = np.unique(np.linspace(lo, len(wa) - 1, n_nodes).astype(int))
        rows = [wa[:k] for k in idx]
        y0 = [(1.0 - eps_in) * np.exp(1j * wa[k]) for k in idx]
        ya = _batched_pullback(rows, y0, du_probe, backend)
        ya = ya[np.isfinite(ya)]
        if ya.size == 0:
            continue
        pb = np.asarray(pb)
        dd = np.abs(pb[:, None] - ya[None, :])
        mid_ok = np.abs(pb[:, None] + ya[None, :]) / 2.0 <= r
        if np.any((dd <= 0.15 * r) & mid_ok):
            meet += 1
    return meet


def _frequency_record(ctx, method, r, hits, n_paths, dt, seed, config,
                      band=0, excluded=0, extra_flags=()) -> EstimateRecord:
    """Binomial estimate with certificate-band and exclusion systematics."""
    p_hat = hits / n_paths
    flags = list(extra_flags)
    stat = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n_paths)
    if hits == 0 or hits == n_paths:
        stat = 3.0 / n_paths  # 95% bound for degenerate counts
        flags.append("degenerate_counts")
    sys_probe = 0.5 * band / n_paths
    sys_excl = 0.5 * excluded / n_paths
    if sys_probe > stat:
        flags.append("probe_band")
    if excluded > 0:
        flags.append("collision_excluded")
    stderr = math.sqrt(stat * stat + sys_probe * sys_probe
                       + sys_excl * sys_excl)
    return EstimateRecord(
        kappa=ctx.kappa, method=method, r_or_t=float(r),
        estimate=float(p_hat), stderr=float(stderr), ess=float(n_paths),
        n_paths=int(n_paths), dt=float(dt), seed=int(seed),
        config=config, flags=tuple(flags))


def _validate_radii(r_list):
    rs, trivial = [], []
    for r in r_list:
        r = float(r)
        if r >= 1.0:
            trivial.append(r)
        elif 0.0 < r < 0.25:
            rs.append(r)
        else:
            raise ValueError(
                f"radius {r} unsupported: the estimator needs r < 1/4 "
                "(quarter-theorem certificates) or r >= 1 (trivial)")
    return rs, trivial


def estimate_two_curve_hit(ctx: KappaContext, cfg: BoundaryConfig, r_list,
                           n_paths: int, dt: float, seed: int,
                           path_start: int = 0,
                           backend: str | None = None,
                           **overrides) -> list:
    """Estimate P[both curves pass within r of the origin] for each r.

    Sequential conditional sampling: the first curve is grown to
    capacity log(1/r) (equivalent to conformal radius r of the origin's
    component -- the deep event certificate), then the second curve is
    grown under its conditional law given that segment and its hit is
    decided by the disconnection certificate, the capacity-horizon
    certificate, or backward-flow distance probes (module docstring).
    One binomial record per radius; the probe-band and excluded-path
    masses are folded into the standard error.

    Radii must lie in (0, 1/4) -- the quarter-theorem certificates need
    the first curve's trace at distance >= r/4 -- or be >= 1, where the
    probability is trivially 1 (both curves start on the unit circle).

    ``path_start`` offsets the path ids (streams 2i and 2i+1 of the
    master seed), letting disjoint ranges merge exactly.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if dt <= 0.0 or dt > 5e-3:
        raise ValueError(f"dt must lie in (0, 5e-3], got {dt}")
    params = dict(_TWO_STAGE_DEFAULTS)
    unknown = set(overrides) - set(params) - {"chunk_paths"}
    if unknown:
        raise TypeError(f"unknown estimator parameters: {sorted(unknown)}")
    params.update(overrides)
    rs, trivial = _validate_radii(r_list)
    base_config = {
        "cfg": [cfg.w1, cfg.v1, cfg.w2, cfg.v2],
        "r_list": [float(r) for r in r_list],
        "path_start": int(path_start),
        "backend": _kernels.active_backend(backend),
        **{k: params[k] for k in _TWO_STAGE_DEFAULTS},
    }
    records = []
    if rs:
        agg, thr_m, _ = _two_stage_run(
            ctx, cfg, rs, n_paths, dt, seed, path_start, params,
            collect_meet=False, backend=backend)
        for r in sorted(rs):
            a = agg[r]
            flags = []
            if a["certified"] == 0:
                flags.append("insufficient_survivors")
            records.append(_frequency_record(
                ctx, "two_curve_hit", r, a["hit"], n_paths, dt, seed,
                {**base_config, "stop_capacity": thr_m[r] * dt,
                 "certified": a["certified"],
                 "hit_swallow": a["hit_swallow"],
                 "hit_alive": a["hit_alive"],
                 "hit_probe": a["hit_probe"]},
                band=a["band"], excluded=a["excluded"],
                extra_flags=flags))
    for r in trivial:
        records.append(EstimateRecord(
            kappa=ctx.kappa, method="two_curve_hit", r_or_t=float(r),
            estimate=1.0, stderr=3.0 / n_paths, ess=float(n_paths),
            n_paths=int(n_paths), dt=float(dt), seed=int(seed),
            config=base_config, flags=("trivial_radius",)))
    records.sort(key=lambda rec: rec.r_or_t)
    return records


def estimate_intersection_hit(ctx: KappaContext, cfg: BoundaryConfig,
                              r_list, n_paths: int, dt: float, seed: int,
                              path_start: int = 0,
                              backend: str | None = None,
                              **overrides) -> list:
    """Estimate P[the curves meet each other within r of the origin].

    Runs the same sequential sampler (identical streams, so the event is
    a strict subset of the two-curve hit at equal seed) and declares a
    meeting when a probed second-curve point passes within 0.15 r of the
    first curve's deep polyline with the midpoint within r of the
    origin.  The proximity rule is an engineering surrogate for trace
    intersection -- its constant is absorbed by the unknown intercept,
    leaving the decay exponent unbiased -- and is only meaningful for
    kappa in (4, 8) where the curves actually touch.

    This is the costliest estimator (it probes every hit path).
    """
    if not ctx.kappa > 4.0:
        raise ValueError(
            f"intersection estimator needs kappa in (4, 8); got "
            f"{ctx.kappa} (the curves do not touch for kappa <= 4)")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if dt <= 0.0 or dt > 5e-3:
        raise ValueError(f"dt must lie in (0, 5e-3], got {dt}")
    params = dict(_TWO_STAGE_DEFAULTS)
    unknown = set(overrides) - set(params) - {"chunk_paths"}
    if unknown:
        raise TypeError(f"unknown estimator parameters: {sorted(unknown)}")
    params.update(overrides)
    rs, trivial = _validate_radii(r_list)
    if trivial:
        raise ValueError("intersection estimator supports r < 1/4 only")
    base_config = {
        "cfg": [cfg.w1, cfg.v1, cfg.w2, cfg.v2],
        "r_list": [float(r) for r in r_list],
        "path_start": int(path_start),
        "backend": _kernels.active_backend(backend),
        **{k: params[k] for k in _TWO_STAGE_DEFAULTS},
    }
    agg, thr_m, _ = _two_stage_run(
        ctx, cfg, rs, n_paths, dt, seed, path_start, params,
        collect_meet=True, backend=backend)
    records = []
    for r in sorted(rs):
        a = agg[r]
        flags = ["surrogate_meet_rule"]
        if a["certified"] == 0:
            flags.append("insufficient_survivors")
        records.append(_frequency_record(
            ctx, "intersection_hit", r, a["meet"], n_paths, dt, seed,
            {**base_config, "stop_capacity": thr_m[r] * dt,
             "certified": a["certified"], "two_curve_hits": a["hit"]},
            band=a["band"], excluded=a["excluded"], extra_flags=flags))
    return records


# ---------------------------------------------------------------------------
# importance-weighted survival estimator
# ---------------------------------------------------------------------------

def estimate_survival_weighted(ctx: KappaContext, z0, t_list,
                               n_paths: int, dt: float, seed: int,
                               path_start: int = 0,
                               backend: str | None = None) -> list:
    """Estimate the pair's survival probability beyond each time in
    ``t_list`` by importance weighting of the conditioned gap diffusion.

    Paths of the conditioned two-angle diffusion are simulated from
    ``z0`` and the unconditioned survival probability is the average of
    the exponential importance weight at each requested time (the weight
    of an absorbed path is zero).  Reports the effective sample size
    (sum w)^2 / sum w^2; records with ess <= 100 carry a ``low_ess``
    flag and are not ``accepted``.  t = 0 yields exactly 1 by
    construction (all weights are 1), with a roundoff-floor stderr.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    ts = [float(t) for t in t_list]
    if not ts:
        raise ValueError("t_list must be nonempty")
    if any(t < 0.0 for t in ts):
        raise ValueError(f"times must be nonnegative, got {ts}")
    z_state = z0 if isinstance(z0, ZState) else ZState(*z0)
    positive = sorted({t for t in ts if t > 0.0})
    records_by_t: dict[float, EstimateRecord] = {}
    base_config = {"z0": [z_state.z1, z_state.z2],
                   "t_list": ts, "path_start": int(path_start),
                   "backend": _kernels.active_backend(backend)}

    if positive:
        ens = simulate_z_ensemble(
            ctx, z_state, t_max=max(positive), dt=dt, n_paths=n_paths,
            master_seed=seed, record_times=positive,
            path_start=path_start, backend=backend)
        for ri, t in enumerate(ens.record_times):
            w = np.exp(ens.log_weight[ri])
            w = np.where(np.isfinite(w), w, 0.0)
            est = float(np.mean(w))
            se = float(np.std(w) / math.sqrt(n_paths))
            s1, s2 = float(np.sum(w)), float(np.sum(w * w))
            ess = s1 * s1 / s2 if s2 > 0.0 else 0.0
            flags = []
            if ess <= 100.0:
                flags.append("low_ess")
            if s1 == 0.0:
                flags.append("no_survivors")
                se = 1.0 / n_paths
            se = max(se, 8.0 * np.finfo(float).eps * max(1.0, est))
            records_by_t[float(t)] = EstimateRecord(
                kappa=ctx.kappa, method="survival_weighted",
                r_or_t=float(t), estimate=est, stderr=se, ess=float(ess),
                n_paths=int(n_paths), dt=float(dt), seed=int(seed),
                config=base_config, flags=tuple(flags))
    out = []
    for t in ts:
        if t == 0.0:
            out.append(EstimateRecord(
                kappa=ctx.kappa, method="survival_weighted", r_or_t=0.0,
                estimate=1.0,
                stderr=8.0 * float(np.finfo(float).eps),
                ess=float(n_paths), n_paths=int(n_paths), dt=float(dt),
                seed=int(seed), config=base_config, flags=()))
        else:
            key = min(records_by_t, key=lambda u: abs(u - t))
            out.append(records_by_t[key])
    return out


# ---------------------------------------------------------------------------
# power-law fitting and the intercept constant
# ---------------------------------------------------------------------------

def fit_power_law(points) -> tuple[float, float, np.ndarray]:
    """Weighted least-squares fit of p = intercept * r^exponent.

    ``points`` is a sequence of (r, p, stderr) with r, p > 0.  The fit is
    linear in log-log coordinates with weights 1/sigma^2, sigma =
    stderr/p (error propagation into log p); if any stderr is zero the
    fit is unweighted and the covariance is scaled by the residual
    variance (zero for exact power-law input).  Returns (exponent,
    intercept, covariance) with the intercept on the linear scale and
    the 2x2 covariance of (exponent, intercept) via the delta method.

    Raises:
        ValueError: fewer than two points, nonpositive data, or
            nondistinct radii.
    """
    pts = [(float(r), float(p), float(s)) for r, p, s in points]
    if len(pts) < 2:
        raise ValueError("power-law fit needs at least two points")
    r = np.array([row[0] for row in pts])
    p = np.array([row[1] for row in pts])
    se = np.array([row[2] for row in pts])
    if np.any(r <= 0.0) or np.any(p <= 0.0):
        raise ValueError("power-law fit needs positive r and p")
    if np.any(se < 0.0):
        raise ValueError("standard errors must be nonnegative")
    x = np.log(r)
    y = np.log(p)
    known_sigma = bool(np.all(se > 0.0))
    w = (p / se) ** 2 if known_sigma else np.ones_like(x)
    sw = float(np.sum(w))
    sx = float(np.sum(w * x))
    sxx = float(np.sum(w * x * x))
    sy = float(np.sum(w * y))
    sxy = float(np.sum(w * x * y))
    delta = sw * sxx - sx * sx
    if delta <= 0.0 or not np.isfinite(delta):
        raise ValueError("power-law fit needs at least two distinct radii")
    slope = (sw * sxy - sx * sy) / delta
    log_b = (sxx * sy - sx * sxy) / delta
    cov_log = np.array([[sw, -sx], [-sx, sxx]]) / delta
    if not known_sigma:
        resid = y - (slope * x + log_b)
        dof = len(pts) - 2
        scale = float(np.sum(resid * resid) / dof) if dof > 0 else 0.0
        cov_log = cov_log * scale
    intercept = math.exp(log_b)
    jac = np.array([[1.0, 0.0], [0.0, intercept]])
    cov = jac @ cov_log @ jac.T
    return float(slope), float(intercept), cov


def estimate_C0(ctx: KappaContext, cfg_list, r_list, n_paths: int = 20000,
                dt: float = 1e-4, seed: int = 0,
                backend: str | None = None, **overrides) -> EstimateRecord:
    """Pooled estimate of the universal intercept constant.

    For each configuration and radius the two-curve hit probability is
    divided by (four-point boundary function) * r^alpha0; the results
    are pooled by inverse variance into one constant, which depends only
    on kappa.  Configuration c uses path ids offset by c * n_paths so
    all cells are independent.  The record's config dict retains the
    per-configuration and per-radius cell table; flags report a failed
    95% cross-configuration overlap (``ci_overlap_fail``) or per-radius
    drift beyond the combined interval plus the r^beta0 finite-size
    envelope (``r_instability``).
    """
    cfgs = list(cfg_list)
    if not cfgs:
        raise ValueError("estimate_C0 needs at least one configuration")
    a0 = alpha0(ctx.kappa)
    b0 = beta0(ctx.kappa)
    cells = []
    flags = []
    per_cfg = []
    for c, cfg in enumerate(cfgs):
        recs = estimate_two_curve_hit(
            ctx, cfg, r_list, n_paths, dt, seed,
            path_start=c * n_paths, backend=backend, **overrides)
        gq = G_quad(ctx, cfg)
        cw = cv = 0.0
        for rec in recs:
            if "trivial_radius" in rec.flags:
                continue
            scale = gq * rec.r_or_t ** a0
            c0 = rec.estimate / scale
            sig = rec.stderr / scale
            cells.append({"cfg_index": c, "r": rec.r_or_t, "C0": c0,
                          "sigma": sig, "estimate": rec.estimate,
                          "stderr": rec.stderr})
            if sig > 0.0:
                cw += 1.0 / (sig * sig)
                cv += c0 / (sig * sig)
        per_cfg.append((cv / cw, 1.0 / math.sqrt(cw)) if cw > 0.0
                       else (float("nan"), float("inf")))
    wsum = sum(1.0 / (cell["sigma"] ** 2) for cell in cells
               if cell["sigma"] > 0.0)
    if wsum <= 0.0:
        raise ValueError("no usable cells for the intercept constant")
    pooled = sum(cell["C0"] / cell["sigma"] ** 2 for cell in cells
                 if cell["sigma"] > 0.0) / wsum
    pooled_se = 1.0 / math.sqrt(wsum)
    for i in range(len(per_cfg)):
        for j in range(i + 1, len(per_cfg)):
            (mi, si), (mj, sj) = per_cfg[i], per_cfg[j]
            if abs(mi - mj) > 1.96 * (si + sj):
                flags.append("ci_overlap_fail")
    radii = sorted({cell["r"] for cell in cells})
    for i in range(len(radii)):
        for j in range(i + 1, len(radii)):
            ci = [c for c in cells if c["r"] == radii[i]]
            cj = [c for c in cells if c["r"] == radii[j]]
            wi = sum(1.0 / c["sigma"] ** 2 for c in ci)
            wj = sum(1.0 / c["sigma"] ** 2 for c in cj)
            mi = sum(c["C0"] / c["sigma"] ** 2 for c in ci) / wi
            mj = sum(c["C0"] / c["sigma"] ** 2 for c in cj) / wj
            envelope = pooled * (radii[i] ** b0 + radii[j] ** b0)
            tol = 1.96 * (wi ** -0.5 + wj ** -0.5) + envelope
            if abs(mi - mj) > tol:
                flags.append("r_instability")
    flags = sorted(set(flags))
    return EstimateRecord(
        kappa=ctx.kappa, method="C0", r_or_t=float("nan"),
        estimate=float(pooled), stderr=float(pooled_se),
        ess=float(len(cfgs) * n_paths),
        n_paths=int(len(cfgs) * n_paths), dt=float(dt), seed=int(seed),
        config={
            "cfgs": [[g.w1, g.v1, g.w2, g.v2] for g in cfgs],
            "r_list": [float(r) for r in r_list],
            "per_cfg": [[m, s] for (m, s) in per_cfg],
            "cells": cells,
            "n_paths_per_cfg": int(n_paths),
        },
        flags=tuple(flags))
