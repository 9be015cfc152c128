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
  yields its minimum distance from the origin.  Each path has one
  composed driver sequence (the first curve's stored prefix, the second
  curve's entry driver and its stored snapshots), and every probe is a
  prefix of it, so all paths of a radius are probed in one pass (a
  coarse round and a refinement round).  The intersection estimator
  probes every second-stage path, certificate hits included, and pulls
  back the first-curve polylines of all hit paths in one call.  Probe
  starts are nudged slightly inside the unit circle: exact boundary
  points can fall into the hull's preimage under the discretized
  backward flow and come back as spurious deep points.  The mass of
  paths whose probed minimum falls within the probe resolution of the
  decision radius is folded into the reported standard error.

The two curves are grown sequentially: the first to its stopping
capacity, then the second under its conditional law given that segment,
which is again a four-angle diffusion with the partner slots replaced by
the first curve's tip and target images.  The first curve's stop event
is measurable with respect to the grown segment, so the sequential
factorization is exact.

Randomness is counter-based: path i of a run draws from streams derived
from the master seed with ids 2i (first curve) and 2i+1 (second curve),
so estimates are bit-reproducible from the recorded (seed, dt, n_paths,
configuration), independent of chunking, and runs over disjoint path
ranges merge exactly.

The sampler takes no tuning parameters: its constants (``_SAMPLER``) and
the adaptive kernel's (``_kernels.EPS_KILL``, ``EPS_RET``, ``KRES``) have
one value each, recorded in every hit record's config.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, _rng, special
from .context import KappaContext
from .green import BoundaryConfig, G_quad
from .timecurve import ZState, simulate_z_ensemble
from .trig import cot2, sin2

TWO_PI = 2.0 * math.pi

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
    together with (seed, dt, n_paths) it reproduces the run bit-for-bit.
    ``flags`` collects warnings such as ``insufficient_survivors`` or
    ``probe_band``; ``ess`` is the effective sample size (equal to n_paths
    for unweighted frequencies).
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
# two-stage hit estimator
# ---------------------------------------------------------------------------

# The sampler's frozen constants, all but ``chunk_paths`` recorded in every
# EstimateRecord: the adaptive kernel's substep budget, the snapshot stride
# (macro steps per stored driver value), the second stage's capacity
# horizon and disconnection-certificate margin (e^-1.5 < 1/4), the probe
# pull-in, the probe's relative resolution used for the decision-sensitive
# band, and the paths per kernel call.
_SAMPLER = dict(bmax=262144, stride=10, cap_b=3.0, swallow_margin=1.5,
                eps_in=1e-3, probe_rel_err=0.03, chunk_paths=4000)
_COARSE_FRACTIONS = (0.08, 0.2, 0.35, 0.5, 0.65, 0.8, 0.92, 1.0)
# Per-radius counters of a two-stage run (the last two: intersection only)
HIT_COUNTERS = ("certified", "hit_swallow", "hit_alive", "hit_probe", "band",
                "excluded", "two_curve_hits", "meet")
# stop statuses of the adaptive kernel, 0-4 (its dispatcher docstring)
_N_STATUS = 5

# most probes per backward-flow batch of ``_batched_pullback``
_PULLBACK_ROWS = 4096


def _batched_pullback(seq: np.ndarray, paths, lens, du: float,
                      eps_in: float) -> np.ndarray:
    """Pull probes back through the composed driver matrix ``seq``.

    Probe j of path ``paths[j]`` after ``lens[j]`` values is driven by
    ``seq[paths[j], :lens[j]]`` and starts at the boundary point of the
    next value, ``seq[paths[j], lens[j]]``, pulled inside the circle by
    ``eps_in``.  Probes are gathered in length-sorted batches of at most
    ``_PULLBACK_ROWS`` rows, each read out of ``seq`` as one matrix as wide as
    its longest member; the flow never reads a row past its length, so the
    rest of the row is left as read, and every flow row is independent of
    its batch.  Returns the complex physical points.
    """
    paths = np.asarray(paths, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    y0 = (1.0 - eps_in) * np.exp(1j * seq[paths, lens])
    out = np.empty(lens.size, dtype=complex)
    order = np.argsort(lens, kind="stable")
    for i0 in range(0, order.size, _PULLBACK_ROWS):
        sel = order[i0:i0 + _PULLBACK_ROWS]
        cols = np.arange(max(1, int(lens[sel].max())))
        mat = seq[paths[sel, None], cols]
        y = y0[sel]
        _kernels.backward_flow(mat, lens[sel], du, y)
        out[sel] = y
    return out


def _probe_paths(seq: np.ndarray, counts: np.ndarray, probed, offset: int,
                 radius: float, du: float, eps_in: float):
    """Minimum probed distance from the origin to each second-stage curve.

    Row q of ``seq`` is path q's composed driver sequence; its second
    curve after c of its ``counts[q]`` snapshots is the probe of length
    ``offset + c``.  Each path in ``probed`` (ints) is probed at eight coarse
    fractions of its lifetime and, when the coarse minimum falls below
    3 * radius, on a refined window around the argmin, all paths in one
    pass.  Returns (dmin, points): dmin per row of ``seq`` (inf where not
    probed) and, per path, the complex probe points with modulus
    <= 2 * radius (for intersection detection).
    """
    dmin = np.full(seq.shape[0], np.inf)
    points: dict[int, list] = {}

    def pull(rows):
        """Probe the (path, c) rows; returns their distances."""
        pid = np.array([q for q, _ in rows], dtype=np.int64)
        vals = _batched_pullback(seq, pid, [offset + c for _, c in rows],
                                 du, eps_in)
        dist = np.abs(vals)
        dist = np.where(np.isnan(dist), np.inf, dist)
        np.minimum.at(dmin, pid, dist)
        keep = np.isfinite(vals.real) & (dist <= 2.0 * radius)
        for v, q in zip(vals[keep], pid[keep].tolist()):
            points.setdefault(q, []).append(v)
        return dist

    rows = []
    for q in probed:
        m = int(counts[q])
        rows += [(q, c) for c in
                 sorted({int(round(f * m)) for f in _COARSE_FRACTIONS})]
    best_c: dict[int, int] = {}
    for d, (q, c) in zip(pull(rows), rows):
        if d <= dmin[q]:
            best_c[q] = c

    rows = []
    for q in probed:
        m = int(counts[q])
        if dmin[q] > 3.0 * radius or m == 0:
            continue
        half = max(1, m // 6)
        center = best_c.get(q, m)
        lo, hi = max(0, center - half), min(m, center + half)
        step = max(1, (hi - lo) // 60)
        rows += [(q, c) for c in range(lo, hi + 1, step)]
    pull(rows)
    return dmin, points


def _two_stage_run(ctx: KappaContext, cfg: BoundaryConfig, r_list,
                   n_paths: int, dt: float, seed: int, path_start: int,
                   collect_meet: bool):
    """Chunked two-stage sampler; returns per-radius aggregate counters.

    Per radius r the counters (``HIT_COUNTERS``) are: certified
    first-curve deep events (survival to capacity log(1/r)), second-stage
    hits by certificate class (disconnection, horizon survival, probe)
    and their total, the decision-sensitive probe band, excluded
    unresolved paths (first curves that stopped with status 2 or 4 short
    of the radius's snapshot, second curves that did so and no probe
    decided as hits), and, with ``collect_meet``, intersection-rule hits
    (second curve probed within 0.15 r of the first curve's deep
    polyline, meeting point within r).  Every probe of both rules is a
    (path, length) row of one composed driver matrix per radius, ``seq``:
    w1, the first curve's snapshots 0..ti, the second curve's entry
    driver, then its snapshots.  Each radius also gets ``status_b``, the
    kernel stop-status histogram (statuses 0-4) of its second curves.

    Returns (agg, thr_m, status_a): the counters per radius, the macro
    step of each radius's snapshot, and the stop-status histogram of
    every first curve.
    """
    kappa = ctx.kappa
    stride = _SAMPLER["stride"]
    eps_in = _SAMPLER["eps_in"]
    du_probe = stride * dt
    bmax = _SAMPLER["bmax"]
    rs = sorted(float(r) for r in r_list)
    thr_m = {r: max(stride,
                    int(round(math.log(1.0 / r) / (stride * dt))) * stride)
             for r in rs}
    cap_a = max(thr_m.values())
    grid = np.arange(stride, cap_a + 1, stride, dtype=np.int64)
    cap_b = int(round(_SAMPLER["cap_b"] / dt / stride)) * stride
    grid_b = np.arange(stride, cap_b + 1, stride, dtype=np.int64)
    row0 = _fresh_tuple(cfg, 1)
    agg = {r: {**dict.fromkeys(HIT_COUNTERS, 0),
               "status_b": np.zeros(_N_STATUS, dtype=np.int64)} for r in rs}
    status_hist_a = np.zeros(_N_STATUS, dtype=np.int64)
    chunk = _SAMPLER["chunk_paths"]

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
            state, streams, 0, cap_a, kappa, dt, grid, snap_a, reached_a,
            status_a, death_a, bmax)
        status_hist_a += np.bincount(status_a, minlength=_N_STATUS)

        for r in rs:
            ti = int(np.searchsorted(grid, thr_m[r]))
            cert = np.where(reached_a[:, ti] == 1)[0]
            agg[r]["certified"] += int(cert.size)
            # stage-A exclusions are the paths that stopped short of
            # this radius's snapshot (status 2 or 4)
            agg[r]["excluded"] += int(np.count_nonzero(
                ((status_a == 2) | (status_a == 4)) & (reached_a[:, ti] == 0)))
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
                state_b, streams_b, 0, cap_b, kappa, dt, grid_b, snap_b,
                reached_b, status_b, death_b, bmax)
            agg[r]["status_b"] += np.bincount(status_b, minlength=_N_STATUS)
            life_b = np.where(death_b < 0, float(cap_b) * bmax,
                              death_b.astype(float)) * (dt / bmax)
            swallow_hit = ((status_b == 3)
                           & (life_b >= _SAMPLER["swallow_margin"]))
            alive_hit = status_b == 0
            certain = swallow_hit | alive_hit
            need = np.where(~certain)[0]
            seq = np.hstack([np.full((nb, 1), row0[0]),
                             snap_a[cert, :ti + 1, 0], entry[:, :1],
                             snap_b[:, :, 0]])
            # the meet rule also needs the certificate hits' probe points
            dmin, pts = _probe_paths(
                seq, reached_b.sum(axis=1), range(nb) if collect_meet
                else need.tolist(), ti + 2, r, du_probe, eps_in)
            probe_hit = ~certain & (dmin <= r)
            hits = certain | probe_hit
            agg[r]["two_curve_hits"] += int(hits.sum())
            agg[r]["hit_swallow"] += int(swallow_hit.sum())
            agg[r]["hit_alive"] += int(alive_hit.sum())
            agg[r]["hit_probe"] += int(probe_hit.sum())
            agg[r]["band"] += int(np.count_nonzero(
                np.abs(dmin[need] - r) <= _SAMPLER["probe_rel_err"] * r))
            # a stage-B stop (status 2 or 4) a probe already decided as a
            # hit is resolved, not excluded
            agg[r]["excluded"] += int(np.count_nonzero(
                ((status_b == 2) | (status_b == 4)) & ~probe_hit))
            if collect_meet:
                agg[r]["meet"] += _count_meets(seq, hits, pts, r, ti,
                                               du_probe, eps_in)
    return agg, thr_m, status_hist_a.tolist()


def _count_meets(seq, hits, pts, r, ti, du, eps_in) -> int:
    """Count hit paths whose second curve passes within 0.15 r of the
    first curve's deep polyline with the meeting point within r."""
    qs = [int(q) for q in np.where(hits)[0] if q in pts]
    # first-curve deep polyline: its tip after 40 prefix lengths spanning
    # the last octaves of the dive (every prefix has length ti + 2), pulled
    # back for all paths in one call
    lo = max(1, ti + 2 - int(2.3 / du))
    idx = np.unique(np.linspace(lo, ti + 1, 40).astype(int))
    ya = _batched_pullback(seq, np.repeat(qs, idx.size),
                           np.tile(idx, len(qs)), du, eps_in)
    meet = 0
    for q, yq in zip(qs, ya.reshape(len(qs), idx.size)):
        pb = np.asarray(pts[q])
        dd = np.abs(pb[:, None] - yq[None, :])
        mid_ok = np.abs(pb[:, None] + yq[None, :]) / 2.0 <= r
        meet += bool(np.any((dd <= 0.15 * r) & mid_ok))
    return meet


def _hit_records(ctx, method, agg, thr_m, status_a, n_paths, dt, seed,
                 base_config, flags=()) -> list:
    """One binomial record per radius of a two-stage run, with the
    certificate-band and exclusion systematics, the radius's counters and
    the run's first-curve stop-status histogram in its config."""
    records = []
    for r, a in sorted(agg.items()):
        meet = method == "intersection_hit"
        hits = a["meet" if meet else "two_curve_hits"]
        counters = {k: a[k] for k in HIT_COUNTERS[:None if meet else -2]}
        p_hat = hits / n_paths
        rec_flags = list(flags)
        if a["certified"] == 0:
            rec_flags.append("insufficient_survivors")
        stat = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n_paths)
        if hits == 0 or hits == n_paths:
            stat = 3.0 / n_paths  # 95% bound for degenerate counts
            rec_flags.append("degenerate_counts")
        sys_probe = 0.5 * a["band"] / n_paths
        sys_excl = 0.5 * a["excluded"] / n_paths
        if sys_probe > stat:
            rec_flags.append("probe_band")
        if a["excluded"] > 0:
            rec_flags.append("collision_excluded")
        stderr = math.sqrt(stat * stat + sys_probe * sys_probe
                           + sys_excl * sys_excl)
        records.append(EstimateRecord(
            kappa=ctx.kappa, method=method, r_or_t=float(r),
            estimate=float(p_hat), stderr=float(stderr),
            ess=float(n_paths), n_paths=int(n_paths), dt=float(dt),
            seed=int(seed), config={**base_config,
                                    "stop_capacity": thr_m[r] * dt,
                                    **counters,
                                    "status_b": a["status_b"].tolist(),
                                    "status_a": status_a},
            flags=tuple(rec_flags)))
    return records


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


def _two_stage_setup(cfg: BoundaryConfig, r_list, n_paths: int, dt: float,
                     path_start: int):
    """Validated inputs of a two-stage estimate: (radii below 1/4, trivial
    radii, base record config)."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if dt <= 0.0 or dt > 5e-3:
        raise ValueError(f"dt must lie in (0, 5e-3], got {dt}")
    rs, trivial = _validate_radii(r_list)
    # "hsle_kernel" names the library that ran both the adaptive kernel
    # and the backward flow: "c" or "python" (numpy)
    base_config = {
        "cfg": [cfg.w1, cfg.v1, cfg.w2, cfg.v2],
        "r_list": [float(r) for r in r_list],
        "path_start": int(path_start),
        "hsle_kernel": _kernels.hsle_kernel(),
        "eps_kill": _kernels.EPS_KILL,
        "eps_ret": _kernels.EPS_RET,
        "kres": _kernels.KRES,
        **{k: v for k, v in _SAMPLER.items() if k != "chunk_paths"},
    }
    return rs, trivial, base_config


def estimate_two_curve_hit(ctx: KappaContext, cfg: BoundaryConfig, r_list,
                           n_paths: int, dt: float, seed: int,
                           path_start: int = 0) -> list:
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
    rs, trivial, base_config = _two_stage_setup(cfg, r_list, n_paths, dt,
                                                path_start)
    records = []
    if rs:
        agg, thr_m, status_a = _two_stage_run(
            ctx, cfg, rs, n_paths, dt, seed, path_start, collect_meet=False)
        records = _hit_records(ctx, "two_curve_hit", agg, thr_m, status_a,
                               n_paths, dt, seed, base_config)
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
                              path_start: int = 0) -> list:
    """Estimate P[the curves meet each other within r of the origin].

    Runs the same sequential sampler (identical streams, so the event is
    a strict subset of the two-curve hit at equal seed) and declares a
    meeting when a probed second-curve point passes within 0.15 r of the
    first curve's deep polyline with the midpoint within r of the
    origin.  The proximity rule is an engineering surrogate for trace
    intersection -- its constant is absorbed by the unknown intercept,
    leaving the decay exponent unbiased -- and is only meaningful for
    kappa in (4, 8) where the curves actually touch.

    This is the costliest estimator: it probes every second-stage path,
    certificate hits included, and pulls back the first curve's polyline
    for every hit path.
    """
    if not ctx.kappa > 4.0:
        raise ValueError(
            f"intersection estimator needs kappa in (4, 8); got "
            f"{ctx.kappa} (the curves do not touch for kappa <= 4)")
    rs, trivial, base_config = _two_stage_setup(cfg, r_list, n_paths, dt,
                                                path_start)
    if trivial:
        raise ValueError("intersection estimator supports r < 1/4 only")
    agg, thr_m, status_a = _two_stage_run(
        ctx, cfg, rs, n_paths, dt, seed, path_start, collect_meet=True)
    return _hit_records(ctx, "intersection_hit", agg, thr_m, status_a,
                        n_paths, dt, seed, base_config,
                        flags=("surrogate_meet_rule",))


# ---------------------------------------------------------------------------
# importance-weighted survival estimator
# ---------------------------------------------------------------------------

def estimate_survival_weighted(ctx: KappaContext, z0, t_list,
                               n_paths: int, dt: float, seed: int,
                               path_start: int = 0) -> list:
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
    # "hsle_kernel" names the library that ran z_evolve ("c" or "python");
    # each record adds "absorbed", its paths with weight zero (log -inf)
    base_config = {"z0": [z_state.z1, z_state.z2],
                   "t_list": ts, "path_start": int(path_start),
                   "hsle_kernel": _kernels.hsle_kernel()}

    if positive:
        ens = simulate_z_ensemble(
            ctx, z_state, t_max=max(positive), dt=dt, n_paths=n_paths,
            master_seed=seed, record_times=positive,
            path_start=path_start)
        for ri, t in enumerate(ens.record_times):
            absorbed = int(np.count_nonzero(ens.log_weight[ri] == -np.inf))
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
            records_by_t[positive[ri]] = EstimateRecord(
                kappa=ctx.kappa, method="survival_weighted",
                r_or_t=float(t), estimate=est, stderr=se, ess=float(ess),
                n_paths=int(n_paths), dt=float(dt), seed=int(seed),
                config={**base_config, "absorbed": absorbed},
                flags=tuple(flags))
    out = []
    for t in ts:
        if t == 0.0:
            out.append(EstimateRecord(
                kappa=ctx.kappa, method="survival_weighted", r_or_t=0.0,
                estimate=1.0,
                stderr=8.0 * float(np.finfo(float).eps),
                ess=float(n_paths), n_paths=int(n_paths), dt=float(dt),
                seed=int(seed), config={**base_config, "absorbed": 0},
                flags=()))
        else:
            out.append(records_by_t[t])
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
                dt: float = 1e-4, seed: int = 0) -> EstimateRecord:
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
    a0 = ctx.alpha0
    b0 = ctx.beta0
    cells = []
    flags = []
    per_cfg = []
    for c, cfg in enumerate(cfgs):
        recs = estimate_two_curve_hit(ctx, cfg, r_list, n_paths, dt, seed,
                                      path_start=c * n_paths)
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
