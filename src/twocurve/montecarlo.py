"""Monte Carlo estimators for near-origin events of the two-curve ensemble.

The quantities estimated here are probabilities that one or both curves
of the commuting pair approach the origin of the unit disc: the
two-curve hitting probability P[dist(0, eta_j) < r for j = 1, 2], its
power-law exponent and intercept, the constant C0 relating the intercept
to the four-point boundary function (:func:`pool_C0` pools it from hit
records; it has no sampler), the intersection-point variant, and an
importance-weighted survival estimator along the common-time
parametrization that targets the same exponent through an entirely
different route.

Estimation strategy
-------------------
Curves are grown through their radial Loewner driving processes (the
four-angle diffusion whose drift the :func:`._kernels.hsle_evolve_adaptive`
docstring states).  Geometric events are
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

* The same bound certifies a second curve still growing at relative
  capacity ``swallow_margin`` (1.5): whatever it does later, it already
  holds the pocket's nearest boundary point, within r e^(-1.5) < r/4.  So
  curves runs stop the second stage there; intersection runs grow second
  curves on to ``cap_b`` (3.0), as the meet rule reads points past 1.5.

* Remaining undecided paths (mostly completions of the second curve) are
  probed: the tip of a simulated curve at any time is the image of its
  driving point under the backward Loewner flow, so pulling stored
  driver snapshots back through the composed chain traces the curve and
  yields its minimum distance from the origin.  Each path has one
  composed driver sequence (the first curve's stored prefix, the second
  curve's entry driver and its stored snapshots), and every probe is a
  prefix of it, read in place, so all paths of a radius are probed in
  one pass (a coarse round and a refinement round that skips the paths
  the coarse round already decided as hits, one flow call each, their
  rows built as index arrays).  The intersection estimator probes every
  second-stage path, certificate hits included, and pulls back the
  first-curve polylines of all hit paths in one call.  Probe starts are
  nudged slightly inside the unit circle: exact boundary points can fall
  into the hull's preimage under the discretized backward flow and come
  back as spurious deep points.  The mass of paths whose probed minimum
  falls within the probe resolution of the decision radius is folded
  into the reported standard error.

The two curves are grown sequentially: the first to its stopping
capacity, then the second under its conditional law given that segment,
which is again a four-angle diffusion with the partner slots replaced by
the first curve's tip and target images.  The first curve's stop event
is measurable with respect to the grown segment, so the sequential
factorization is exact.

Randomness is counter-based (the map of draws in :mod:`._rng`), so
estimates are bit-reproducible from the recorded (seed, dt, n_paths,
configuration), independent of chunking, and runs over disjoint path
ranges merge exactly.

The sampler takes no tuning parameters: its constants (``_SAMPLER``) and
the adaptive kernel's (``_kernels.EPS_KILL``, ``EPS_RET``, ``KRES``) have
one value each, recorded in every hit record's config.

Each estimator family checks every input rule in one function, before
any simulation: :func:`check_hit_inputs` and :func:`check_survival_inputs`.
Each record's config holds its ``ACCUMULATORS``: the paths n, the sums of
their contributions x and x^2 and of their likelihood weights L and L^2,
and the band and excluded paths.  A hit has x in {0, 1} and L = 1, a
z-weighted path x = L = its importance weight (0 once absorbed).
:func:`build_record` turns them into the record; disjoint path ranges
merge by adding them (the counts exactly) and building again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, _rng
from .context import KappaContext
from .green import BoundaryConfig, G_quad
from .timecurve import ZState, simulate_z_ensemble, time_steps

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

    def to_row(self) -> list:
        return [self.kappa, self.method, self.r_or_t, self.estimate,
                self.stderr, self.ess, self.n_paths, self.dt, self.seed,
                ";".join(self.flags)]


# What every record's config sums up, and all that ``build_record`` reads
ACCUMULATORS = ("n", "sum_x", "sum_x2", "sum_l", "sum_l2", "band",
                "excluded")


def build_record(kappa: float, method: str, r_or_t: float, dt: float,
                 seed: int, config: dict, flags=(),
                 weighted: bool = False) -> EstimateRecord:
    """The record of the ``ACCUMULATORS`` in ``config`` (module docstring).

    Estimate sum_x / n, statistical error sqrt(mean (sum_x2 / sum_x -
    mean) / n) (for 0/1 hits p (1 - p), bit for bit), ESS sum_l^2 /
    sum_l2; half the band and half the excluded paths per path add in
    quadrature.  Flags after ``flags``: counts with no hit or no miss take
    the 95% bound 3/n (``degenerate_counts``); ``weighted`` records flag
    ``low_ess`` (ESS <= 100 or ESS < 1% of n) and ``no_survivors`` (bound
    1/n) and keep a roundoff floor of 8 ulp; then ``probe_band`` and
    ``collision_excluded``.
    """
    n, sx, sl, sl2 = (config[k] for k in ("n", "sum_x", "sum_l", "sum_l2"))
    mean = sx / n
    var = mean * (config["sum_x2"] / sx - mean) if sx else 0.0
    stat = math.sqrt(max(var, 0.0) / n)
    ess = sl * sl / sl2 if sl2 > 0 else 0.0
    flags = list(flags)
    if not weighted and (sx == 0 or sx == n):
        stat = 3.0 / n
        flags.append("degenerate_counts")
    if weighted:
        if ess <= 100.0 or ess < 0.01 * n:
            flags.append("low_ess")
        if sx == 0:
            stat = 1.0 / n
            flags.append("no_survivors")
        stat = max(stat, 8.0 * math.ulp(1.0) * max(1.0, mean))
    sys_probe = 0.5 * config["band"] / n
    sys_excl = 0.5 * config["excluded"] / n
    if sys_probe > stat:
        flags.append("probe_band")
    if config["excluded"] > 0:
        flags.append("collision_excluded")
    stderr = math.sqrt(stat * stat + sys_probe * sys_probe
                       + sys_excl * sys_excl)
    return EstimateRecord(
        kappa=float(kappa), method=method, r_or_t=float(r_or_t),
        estimate=float(mean), stderr=float(stderr), ess=float(ess),
        n_paths=int(n), dt=float(dt), seed=int(seed), config=config,
        flags=tuple(flags))


def _check_run(n_paths: int, dt: float, seed: int, path_start: int) -> None:
    """The input rules of every estimator (NaN fails each); the counts
    and ids are Python or numpy integers, not booleans."""
    for name, v in (("n_paths", n_paths), ("seed", seed),
                    ("path_start", path_start)):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {v!r}")
    n_paths, seed, path_start = int(n_paths), int(seed), int(path_start)
    if not n_paths >= 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if not 0 <= path_start <= _rng.PATH_LIMIT - n_paths:
        raise ValueError(f"path ids must lie in [0, 2^63), got "
                         f"{path_start} + {n_paths} paths")
    # streams read the seed as one 64-bit word: one outside [0, 2^64)
    # would alias the seed it wraps to
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"master seed must lie in [0, 2^64), got {seed}")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")


def check_hit_inputs(kappa: float, cfg, r_list, n_paths: int, dt: float,
                     seed: int, path_start: int, intersection: bool
                     ) -> tuple[BoundaryConfig, list]:
    """Every input rule of the hit estimators (ValueError); returns the
    marked angles as a BoundaryConfig and the radii.  dt <= 5e-3 keeps the
    second curves' horizon above log 4; the meet rule needs kappa > 4,
    where the curves touch; the quarter-theorem certificates need radii
    in (0, 1/4), and a repeated radius would be counted twice."""
    _check_run(n_paths, dt, seed, path_start)
    if not dt <= 5e-3:
        raise ValueError(f"dt must lie in (0, 5e-3], got {dt}")
    if intersection and not kappa > 4.0:
        raise ValueError(f"intersection estimator needs kappa in (4, 8) "
                         f"(the curves do not touch for kappa <= 4), got "
                         f"{kappa}")
    if not isinstance(cfg, BoundaryConfig):
        if len(cfg) != 4:
            raise ValueError(f"cfg must be four angles, got {cfg}")
        cfg = BoundaryConfig(*cfg)
    rs = [float(r) for r in r_list]
    if not rs or not all(0.0 < r < 0.25 for r in rs) \
            or len(set(rs)) < len(rs):
        raise ValueError(f"radii must be a nonempty list of distinct radii "
                         f"in (0, 1/4), got {rs}")
    return cfg, rs


def check_survival_inputs(z0, t_list, n_paths: int, dt: float, seed: int,
                          path_start: int) -> tuple[ZState, list]:
    """Every input rule of the survival estimator (ValueError); returns
    the start as a ZState and the times, each of which must pass
    :func:`.timecurve.time_steps`; two times on one step would give two
    records (and two counters entries) of one time."""
    _check_run(n_paths, dt, seed, path_start)
    if not isinstance(z0, ZState):
        if len(z0) != 2:
            raise ValueError(f"z0 must be a pair (z1, z2), got {z0}")
        z0 = ZState(*z0)
    ts = [float(t) for t in t_list]
    steps = [time_steps(t, dt) for t in ts]
    if not ts or len(set(steps)) < len(steps):
        raise ValueError(f"times must be a nonempty list of times on "
                         f"distinct steps of dt, got {ts}")
    return z0, ts


# ---------------------------------------------------------------------------
# first-curve and conditional state rows (ascending covering order)
# ---------------------------------------------------------------------------

def _first_curve_row(cfg: BoundaryConfig) -> np.ndarray:
    """Kernel state row (w0, v1, v2, winf) for growing the first curve of
    ``cfg`` from scratch, in ascending covering order."""
    return np.array((cfg.w1, cfg.v2 + TWO_PI, cfg.w2 + TWO_PI,
                     cfg.v1 + TWO_PI))


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
# (macro steps per stored driver value), the second stage's horizons on
# intersection and on curves runs (``_horizon_b``; a record's ``cap_b`` is
# its run's), the latter the certificate margin (e^-1.5 < 1/4), the probe
# pull-in, the probe's relative resolution used for the decision-sensitive
# band, and the paths per kernel call.
_SAMPLER = dict(bmax=262144, stride=10, cap_b=3.0, swallow_margin=1.5,
                eps_in=1e-3, probe_rel_err=0.03, chunk_paths=4000)
_COARSE_FRACTIONS = (0.08, 0.2, 0.35, 0.5, 0.65, 0.8, 0.92, 1.0)
# Per-radius counters of a two-stage run (the last two: intersection only)
HIT_COUNTERS = ("certified", "hit_swallow", "hit_alive", "hit_probe", "band",
                "excluded", "probe_rows", "flow_steps", "two_curve_hits",
                "meet")
# stop statuses of the adaptive kernel, 0-4 (its dispatcher docstring)
_N_STATUS = 5


def _batched_pullback(seq: np.ndarray, paths, lens, du: float,
                      eps_in: float, tally: dict) -> np.ndarray:
    """Pull probes back through the composed driver matrix ``seq``.

    Probe j of path ``paths[j]`` after ``lens[j]`` values (int64 arrays)
    is driven by ``seq[paths[j], :lens[j]]``, which the flow reads in
    place, and starts at the boundary point of the next value,
    ``seq[paths[j], lens[j]]``, pulled inside the circle by ``eps_in``;
    all probes run in one flow call.  Adds the rows and their flow steps
    (the sum of the lengths) to ``tally["probe_rows"]`` and
    ``tally["flow_steps"]``.  Returns the complex physical points.
    """
    tally["probe_rows"] += int(lens.size)
    tally["flow_steps"] += int(lens.sum())
    y = (1.0 - eps_in) * np.exp(1j * seq[paths, lens])
    _kernels.backward_flow(seq, lens, du, y, paths)
    return y


def _in_band(d, radius: float):
    """Whether probed distances ``d`` lie within the probe resolution of
    ``radius``: the decision-sensitive band that the stderr charges."""
    return np.abs(d - radius) <= _SAMPLER["probe_rel_err"] * radius


def _probe_paths(seq: np.ndarray, counts: np.ndarray, probed, offset: int,
                 radius: float, du: float, eps_in: float,
                 refine_decided: bool, tally: dict):
    """Minimum probed distance from the origin to each second-stage curve.

    Row q of ``seq`` is path q's composed driver sequence; its second
    curve after c of its ``counts[q]`` snapshots is the probe of length
    ``offset + c``.  Each path in ``probed`` (int64) is probed at eight
    coarse fractions of its lifetime and, when the coarse minimum falls
    below 3 * radius, on a refined window around the argmin (the last
    coarse row at the minimum), all paths in one pass.  Unless
    ``refine_decided``, a path whose coarse minimum d is already a hit
    outside the band (d <= radius and not ``_in_band``) takes no refined
    window: refining only lowers d, and float subtraction is monotone, so
    radius - d' >= radius - d stays above the band and the path's hit and
    band classes cannot change.  The intersection rule sets
    ``refine_decided``: it reads the refined points.  Returns
    (dmin, (pid, points)): dmin per row of ``seq`` (inf where not probed)
    and the complex probe points with modulus <= 2 * radius (for
    intersection detection) with their path ids.  Rows and flow steps are
    added to ``tally`` (:func:`_batched_pullback`).
    """
    dmin = np.full(seq.shape[0], np.inf)
    found = []

    def pull(q, c):
        """Probe paths q after c snapshots; returns the distances."""
        vals = _batched_pullback(seq, q, offset + c, du, eps_in, tally)
        dist = np.abs(vals)
        dist = np.where(np.isnan(dist), np.inf, dist)
        np.minimum.at(dmin, q, dist)
        keep = np.isfinite(vals.real) & (dist <= 2.0 * radius)
        found.append((q[keep], vals[keep]))
        return dist

    m = counts[probed].astype(np.int64)
    # the coarse rows of a path ascend, so a repeat follows its first
    c = np.rint(np.multiply.outer(m, _COARSE_FRACTIONS)).astype(np.int64)
    first = np.ones(c.shape, dtype=bool)
    first[:, 1:] = c[:, 1:] != c[:, :-1]
    q, c = np.broadcast_to(probed[:, None], c.shape)[first], c[first]
    at_min = pull(q, c) <= dmin[q]
    best_c = np.zeros(seq.shape[0], dtype=np.int64)
    np.maximum.at(best_c, q[at_min], c[at_min])

    d = dmin[probed]
    refine = (d <= 3.0 * radius) & (m > 0)
    if not refine_decided:
        refine &= (d > radius) | _in_band(d, radius)
    q, m = probed[refine], m[refine]
    half = np.maximum(1, m // 6)
    lo = np.maximum(0, best_c[q] - half)
    hi = np.minimum(m, best_c[q] + half)
    step = np.maximum(1, (hi - lo) // 60)
    # row j of path q's window is lo + j * step, j = 0 .. (hi - lo) // step
    rows = (hi - lo) // step + 1
    j = np.arange(rows.sum()) - np.repeat(np.cumsum(rows) - rows, rows)
    pull(np.repeat(q, rows), np.repeat(lo, rows) + np.repeat(step, rows) * j)
    return dmin, tuple(map(np.concatenate, zip(*found)))


def _horizon_b(collect_meet: bool) -> float:
    """Second-curve capacity horizon: ``cap_b`` for the meet rule, which
    reads points past the certificate margin, else ``swallow_margin``."""
    return _SAMPLER["cap_b" if collect_meet else "swallow_margin"]


def _two_stage_run(ctx: KappaContext, cfg: BoundaryConfig, r_list,
                   n_paths: int, dt: float, seed: int, path_start: int,
                   collect_meet: bool):
    """Chunked two-stage sampler; returns per-radius aggregate counters.

    Per radius r the counters (``HIT_COUNTERS``) are: certified
    first-curve deep events (survival to capacity log(1/r)), second-stage
    hits by certificate class (disconnection, survival to the horizon,
    probe) and their total, the decision-sensitive probe band, excluded
    unresolved paths (first curves that stopped with status 2 or 4 short
    of the radius's snapshot, second curves that did so and no probe
    decided as hits), the backward-flow rows of the radius and their
    flow steps, and, with ``collect_meet``, intersection-rule hits
    (second curve probed within 0.15 r of the first curve's deep
    polyline, meeting point within r).  Every probe of both rules is a
    (path, length) row of one composed driver matrix per radius, ``seq``:
    w1, the first curve's snapshots 0..ti, the second curve's entry
    driver, then its snapshots.  Each radius also gets ``status_b``, the
    kernel stop-status histogram (statuses 0-4) of its second curves.

    Second curves grow to ``_horizon_b(collect_meet)``, whole strides
    nearest it (above log 4 at any dt <= 5e-3): a path stopping before 1.5
    is decided the same at either horizon, one reaching 1.5 is a hit.
    Without ``collect_meet``, paths the coarse probes decide as hits
    outside the band take no refined probes (:func:`_probe_paths`).

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
    cap_b = int(round(_horizon_b(collect_meet) / dt / stride)) * stride
    grid_b = np.arange(stride, cap_b + 1, stride, dtype=np.int64)
    row0 = _first_curve_row(cfg)
    agg = {r: {**dict.fromkeys(HIT_COUNTERS, 0),
               "status_b": np.zeros(_N_STATUS, dtype=np.int64)} for r in rs}
    status_hist_a = np.zeros(_N_STATUS, dtype=np.int64)
    chunk = _SAMPLER["chunk_paths"]

    for c0 in range(0, n_paths, chunk):
        nc = min(chunk, n_paths - c0)
        state = np.tile(row0, (nc, 1))
        streams_a, streams_b = _rng.hit_streams(
            seed, range(path_start + c0, path_start + c0 + nc))
        snap_a = np.zeros((nc, grid.size, 4))
        reached_a = np.zeros((nc, grid.size), dtype=np.uint8)
        status_a = np.zeros(nc, dtype=np.uint8)
        death_a = np.full(nc, -1, dtype=np.int64)
        _kernels.hsle_evolve_adaptive(
            state, streams_a, 0, cap_a, kappa, dt, grid, snap_a, reached_a,
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
            snap_b = np.zeros((nb, grid_b.size, 4))
            reached_b = np.zeros((nb, grid_b.size), dtype=np.uint8)
            status_b = np.zeros(nb, dtype=np.uint8)
            death_b = np.full(nb, -1, dtype=np.int64)
            _kernels.hsle_evolve_adaptive(
                state_b, streams_b[cert], 0, cap_b, kappa, dt, grid_b, snap_b,
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
                seq, reached_b.sum(axis=1), np.arange(nb) if collect_meet
                else need, ti + 2, r, du_probe, eps_in,
                collect_meet, agg[r])
            probe_hit = ~certain & (dmin <= r)
            hits = certain | probe_hit
            agg[r]["two_curve_hits"] += int(hits.sum())
            agg[r]["hit_swallow"] += int(swallow_hit.sum())
            agg[r]["hit_alive"] += int(alive_hit.sum())
            agg[r]["hit_probe"] += int(probe_hit.sum())
            agg[r]["band"] += int(np.count_nonzero(_in_band(dmin[need], r)))
            # a stage-B stop (status 2 or 4) a probe already decided as a
            # hit is resolved, not excluded
            agg[r]["excluded"] += int(np.count_nonzero(
                ((status_b == 2) | (status_b == 4)) & ~probe_hit))
            if collect_meet:
                agg[r]["meet"] += _count_meets(seq, hits, pts, r, ti,
                                               du_probe, eps_in, agg[r])
    return agg, thr_m, status_hist_a.tolist()


def _count_meets(seq, hits, pts, r, ti, du, eps_in, tally) -> int:
    """Count hit paths whose second curve passes within 0.15 r of the
    first curve's deep polyline with the meeting point within r; ``pts``
    is :func:`_probe_paths`'s (pid, points), and the polyline's rows and
    flow steps are added to ``tally``."""
    pid, pb = pts
    pid, pb = pid[hits[pid]], pb[hits[pid]]
    qs = np.unique(pid)
    # first-curve deep polyline: its tip after 40 prefix lengths spanning
    # the last octaves of the dive (every prefix has length ti + 2), pulled
    # back for all paths in one call
    lo = max(1, ti + 2 - int(2.3 / du))
    idx = np.unique(np.linspace(lo, ti + 1, 40).astype(int))
    ya = _batched_pullback(seq, np.repeat(qs, idx.size),
                           np.tile(idx, qs.size), du, eps_in, tally)
    yq = ya.reshape(qs.size, idx.size)[np.searchsorted(qs, pid)]
    close = ((np.abs(pb[:, None] - yq) <= 0.15 * r)
             & (np.abs(pb[:, None] + yq) / 2.0 <= r))
    return int(np.unique(pid[close.any(axis=1)]).size)


def _estimate_hits(ctx: KappaContext, cfg, r_list, n_paths: int, dt: float,
                   seed: int, path_start: int, intersection: bool) -> list:
    """Both hit estimators: one record per radius, in increasing order, of
    its hits (x in {0, 1}, L = 1), band and excluded paths, with the
    radius's counters and the run's first-curve stop statuses."""
    cfg, rs = check_hit_inputs(ctx.kappa, cfg, r_list, n_paths, dt, seed,
                               path_start, intersection)
    agg, thr_m, status_a = _two_stage_run(
        ctx, cfg, rs, n_paths, dt, seed, path_start, intersection)
    method, flags = (("intersection_hit", ("surrogate_meet_rule",))
                     if intersection else ("two_curve_hit", ()))
    # "hsle_kernel" names the library that ran both the adaptive kernel
    # and the backward flow: "c" or "python" (numpy)
    base_config = {
        "cfg": [cfg.w1, cfg.v1, cfg.w2, cfg.v2],
        "r_list": rs,
        "path_start": int(path_start),
        "hsle_kernel": _kernels.hsle_kernel(),
        "eps_kill": _kernels.EPS_KILL,
        "eps_ret": _kernels.EPS_RET,
        "kres": _kernels.KRES,
        **{k: v for k, v in _SAMPLER.items() if k != "chunk_paths"},
        "cap_b": _horizon_b(intersection),
    }
    records = []
    for r, a in sorted(agg.items()):
        hits = a["meet" if intersection else "two_curve_hits"]
        config = {
            **base_config, "stop_capacity": thr_m[r] * dt,
            **{k: a[k] for k in HIT_COUNTERS[:None if intersection else -2]},
            "status_b": a["status_b"].tolist(), "status_a": status_a,
            "n": n_paths, "sum_x": hits, "sum_x2": hits, "sum_l": n_paths,
            "sum_l2": n_paths}
        records.append(build_record(
            ctx.kappa, method, r, dt, seed, config,
            flags if a["certified"] else (*flags, "insufficient_survivors")))
    return records


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
    One binomial record per radius, in increasing order; the probe-band
    and excluded-path masses are folded into the standard error.

    The inputs must pass :func:`check_hit_inputs` (radii in (0, 1/4), the
    range of the quarter-theorem certificates, among others); ValueError
    otherwise, before any simulation.

    ``path_start`` offsets the path ids (the map of draws in
    :mod:`._rng`), letting disjoint ranges merge exactly.
    """
    return _estimate_hits(ctx, cfg, r_list, n_paths, dt, seed, path_start,
                          intersection=False)


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
    return _estimate_hits(ctx, cfg, r_list, n_paths, dt, seed, path_start,
                          intersection=True)


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
    (sum w)^2 / sum w^2; records with ess <= 100, or below 1% of n_paths,
    carry a ``low_ess`` flag.  t = 0 yields exactly 1 by construction (all
    weights are 1), with a roundoff-floor stderr.  The inputs must pass
    :func:`check_survival_inputs`.
    """
    z_state, ts = check_survival_inputs(z0, t_list, n_paths, dt, seed,
                                        path_start)
    # "hsle_kernel" names the library that ran z_evolve ("c" or "python");
    # each record adds "absorbed", its paths with weight zero (log -inf)
    base_config = {"z0": [z_state.z1, z_state.z2],
                   "t_list": ts, "path_start": int(path_start),
                   "hsle_kernel": _kernels.hsle_kernel()}

    def record(t, w, absorbed):
        s1, s2 = float(np.sum(w)), float(np.sum(w * w))
        config = {**base_config, "absorbed": absorbed, "n": n_paths,
                  "sum_x": s1, "sum_x2": s2, "sum_l": s1, "sum_l2": s2,
                  "band": 0, "excluded": 0}
        return build_record(ctx.kappa, "survival_weighted", t, dt, seed,
                            config, weighted=True)

    by_t = {}
    if 0.0 in ts:
        by_t[0.0] = record(0.0, np.ones(n_paths), 0)
    positive = sorted({t for t in ts if t > 0.0})
    if positive:
        ens = simulate_z_ensemble(
            ctx, z_state, t_max=max(positive), dt=dt, n_paths=n_paths,
            master_seed=seed, record_times=positive,
            path_start=path_start)
        for t, t_rec, lw in zip(positive, ens.record_times, ens.log_weight):
            w = np.exp(lw)
            by_t[t] = record(t_rec, np.where(np.isfinite(w), w, 0.0),
                             int(np.count_nonzero(lw == -np.inf)))
    return [by_t[t] for t in ts]


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
        ValueError: fewer than two points, non-finite or nonpositive
            data, or nondistinct radii.
    """
    pts = [(float(r), float(p), float(s)) for r, p, s in points]
    if len(pts) < 2:
        raise ValueError("power-law fit needs at least two points")
    if not all(map(math.isfinite, (v for row in pts for v in row))):
        raise ValueError("power-law fit needs finite r, p and stderr")
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


def _pool_by(groups, c0, var):
    """Inverse-variance means and stderrs by group 0.., summed in order."""
    w, wc = np.bincount(groups, 1.0 / var), np.bincount(groups, c0 / var)
    return wc / w, 1.0 / np.sqrt(w)


def pool_C0(ctx: KappaContext, records) -> EstimateRecord:
    """Pool hit records into the universal intercept constant C0.

    Each record is a cell, its estimate and stderr over G_quad(cfg)
    r^alpha0, pooled by inverse variance in record order into a constant
    of kappa and the records' method; no kernel runs.  Flags: configuration
    means further apart than 1.96 (s_i + s_j) (``ci_overlap_fail``), radius
    means further apart than that plus pooled (r_i^beta0 + r_j^beta0)
    (``r_instability``).  Caveat: the radii of one run share its paths, yet
    the stderr treats their cells as independent.  ValueError, before any
    pooling, unless the records share ``ctx.kappa``, one hit method and one
    dt, and of their runs (cfg, seed, path_start, n) no two of one seed
    share a path and none gives a radius twice.  ``n_paths`` and ``ess``
    count each run once; ``seed`` is the first record's.
    """
    recs = list(records)
    methods = {rec.method for rec in recs}
    if not (len(methods) == 1 and {rec.kappa for rec in recs} == {ctx.kappa}
            and methods <= {"two_curve_hit", "intersection_hit"}
            and len({rec.dt for rec in recs}) == 1):
        raise ValueError("pool_C0 pools hit records of one kappa, method, dt")
    runs = [(tuple(rec.config["cfg"]), rec.seed, rec.config["path_start"],
             rec.config["n"]) for rec in recs]
    uniq = list(dict.fromkeys(runs))
    seed, lo, n = np.array([run[1:] for run in uniq], dtype=np.uint64).T
    hi = lo + n
    shared = (seed[:, None] == seed) & (lo[:, None] < hi) & (lo < hi[:, None])
    if (np.triu(shared, 1).any()
            or len(set(zip(runs, (rec.r_or_t for rec in recs)))) < len(recs)):
        raise ValueError("pool_C0 would count a path twice")
    cfgs = list(dict.fromkeys(run[0] for run in runs))
    ci = np.array([cfgs.index(run[0]) for run in runs])
    gq = [G_quad(ctx, BoundaryConfig(*cfg)) for cfg in cfgs]
    scale = np.array([gq[c] * rec.r_or_t ** ctx.alpha0
                      for c, rec in zip(ci, recs)])
    c0, sig = np.array([(rec.estimate, rec.stderr) for rec in recs]).T / scale
    radii, ri = np.unique([rec.r_or_t for rec in recs], return_inverse=True)
    (pooled,), (pooled_se,) = _pool_by(0 * ci, c0, sig * sig)
    (m, s), (mr, sr) = (_pool_by(g, c0, sig * sig) for g in (ci, ri))
    envelope = pooled * (radii[:, None] ** ctx.beta0 + radii ** ctx.beta0)
    flags = [flag for flag, fail in (
        ("ci_overlap_fail", np.abs(m[:, None] - m) > 1.96 * (s[:, None] + s)),
        ("r_instability", np.abs(mr[:, None] - mr)
         > 1.96 * (sr[:, None] + sr) + envelope)) if fail.any()]
    return EstimateRecord(
        kappa=ctx.kappa, method="C0", r_or_t=float("nan"),
        estimate=float(pooled), stderr=float(pooled_se), ess=float(n.sum()),
        n_paths=int(n.sum()), dt=recs[0].dt, seed=recs[0].seed, config={
            "method": methods.pop(), "r_list": radii.tolist(), "runs": uniq,
            "cfgs": [list(cfg) for cfg in cfgs],
            "per_cfg": np.column_stack([m, s]).tolist(),
            "cells": [{"cfg_index": int(c), "r": rec.r_or_t, "C0": float(x),
                       "sigma": float(y), "estimate": rec.estimate,
                       "stderr": rec.stderr}
                      for c, rec, x, y in zip(ci, recs, c0, sig)]},
        flags=tuple(flags))
