"""Tests for the Monte Carlo estimators.

Oracles used here:

* the four-angle drift, read off one substep of the C and of the Python
  adaptive kernel, is checked against its displayed formula and against
  an independent finite-difference Girsanov computation: kappa times the
  partial derivative of the log-martingale (``references.log_M_iB_ch``)
  at a fresh (zero-capacity) state;
* weighted survival estimates are compared with the spectral expansion;
* the power-law fitter is exercised on synthetic data with known slope;
* the backward-flow probe recovers the closed-form radial slit tip.
"""

import dataclasses
import math
import shutil

import numpy as np
import pytest
from numpy.testing import assert_allclose

from twocurve import _kernels, _rng, montecarlo as mc, special
from twocurve.context import KappaContext
from twocurve.density import SpectralBasis, survival_P2
from twocurve.green import BoundaryConfig, G_quad
from twocurve.timecurve import ZState
from twocurve.trig import cot2, sin2

import loewner
import references

TWO_PI = 2.0 * math.pi
CTX6 = KappaContext(6.0)
S8 = math.pi / 4.0
SYM_CFG = BoundaryConfig(w1=3 * S8, v1=S8, w2=-S8, v2=-3 * S8)
ASYM_CFG = BoundaryConfig(w1=2.2, v1=0.9, w2=-0.4, v2=-1.9)


def random_quads(n, seed, min_gap=0.15):
    """Descending marked quadruples (w1 > v1 > w2 > v2) with safe gaps."""
    rng = np.random.default_rng(seed)
    quads = []
    while len(quads) < n:
        cuts = rng.uniform(min_gap, 1.0, size=4)
        gaps = cuts / cuts.sum() * TWO_PI
        if gaps.min() < min_gap:
            continue
        w1 = rng.uniform(-math.pi, math.pi)
        v1 = w1 - gaps[0]
        w2 = v1 - gaps[1]
        v2 = w2 - gaps[2]
        quads.append((w1, v1, w2, v2))
    return quads


# the adaptive kernel's drift, read off one substep of each kernel
KERNELS = ("python", "c") if shutil.which("cc") else ("python",)
DRIFT_DT = 1e-4


def kernel_substep(kappa, rows, kernel):
    """One substep of length ``DRIFT_DT`` of the adaptive kernel ("c" or
    "python") from each row (w0, v1, v2, winf): bmax 1, one macro step, no
    snapshots.  Returns the rows after it, their stop statuses and each
    row's normal, the Box-Muller draw of counters 0 and 1 of its stream."""
    n = len(rows)
    state = np.array(rows, dtype=float)
    streams = _rng.derive_stream_array(7, np.arange(n, dtype=np.uint64))
    status = np.zeros(n, dtype=np.uint8)
    args = (state, streams, 0, 1, kappa, DRIFT_DT, np.zeros(0, np.int64), 1,
            np.zeros((n, 0, 4)), np.zeros((n, 0), np.uint8), status,
            np.full(n, -1, dtype=np.int64))
    if kernel == "c":
        _kernels._hsle_evolve_adaptive_c(_kernels._hsle_lib(), *args)
    else:
        _kernels._hsle_evolve_adaptive_np(*args)
    g = [math.sqrt(-2.0 * math.log(_rng.uniform(int(sid), 0)))
         * math.cos(TWO_PI * _rng.uniform(int(sid), 1)) for sid in streams]
    return state, status, np.array(g)


def kernel_drift(kappa, rows, kernel):
    """(w0' - w0 - sqrt(kappa dt) g) / dt of one substep from each row."""
    after, status, g = kernel_substep(kappa, rows, kernel)
    assert np.all(status == 0)
    w0 = np.array(rows)[:, 0]
    return (after[:, 0] - w0 - np.sqrt(kappa * DRIFT_DT) * g) / DRIFT_DT


def displayed_drift(ctx, rows):
    """The drift of the ``hsle_evolve_adaptive`` docstring with the exact
    G-tilde, its flank factor 1/2 (cot2(v2 - w0) - cot2(v1 - w0)), and
    the bound of the kernel's error: the flank factor times the G-tilde
    table's interpolation error at each row's cross-ratio."""
    w0, v1, v2, wi = np.array(rows).T
    R = 1.0 - (sin2(wi - w0) * sin2(v2 - v1)
               / (sin2(v2 - w0) * sin2(wi - v1)))
    flank = 0.5 * (cot2(v2 - w0) - cot2(v1 - w0))
    drift = (-0.5 * (ctx.kappa - 6.0) * cot2(wi - w0)
             + flank * special.hyp_tilde_G(ctx, R))
    return drift, np.abs(flank) * gtilde_table_error(ctx, R)


def gtilde_table_error(ctx, R):
    """Bound of the linear interpolation error of ``special.gtilde_table``
    at u = -log(1 - R): twice the error at the midpoint of u's cell.  In a
    cell the error is G''(xi)/2 (u - u_i)(u_i+1 - u), whose largest value
    the midpoint's gives to within the change of G'' over one cell (below
    1% for every row here)."""
    _, vals, du = special.gtilde_table(ctx.kappa)
    i = np.minimum((-np.log1p(-R) / du).astype(int), vals.size - 2)
    mid = (i + 0.5) * du
    exact = special.hyp_tilde_G(ctx, -np.expm1(-mid))
    return 2.0 * np.abs(0.5 * (vals[i] + vals[i + 1]) - exact)


def entry_rows(quads):
    """Kernel rows of both curves of each quadruple at zero capacity:
    (w1, v2, w2, v1) and (w2, v1, w1, v2), ascending within one turn."""
    return ([(w1, v2 + TWO_PI, w2 + TWO_PI, v1 + TWO_PI)
             for w1, v1, w2, v2 in quads]
            + [(w2, v1, w1, v2 + TWO_PI) for w1, v1, w2, v2 in quads])


# reading w0' back loses a few ulps of w0 over dt
DRIFT_ATOL = 1e-10


class TestHsleDrift:
    def test_matches_displayed_formula(self):
        # the drift each kernel steps is -(kappa-6)/2 cot2(winf-w0)
        #   + (1/2)(cot2(v2-w0) - cot2(v1-w0)) * Gtilde(R), up to the
        # G-tilde table's interpolation error
        for kappa in (2.0, 3.0, 6.0, 7.5):
            ctx = KappaContext(kappa)
            rows = entry_rows(random_quads(12, seed=int(10 * kappa)))
            expect, tol = displayed_drift(ctx, rows)
            for kernel in KERNELS:
                got = kernel_drift(kappa, rows, kernel)
                assert np.all(np.abs(got - expect) <= tol + DRIFT_ATOL)

    def test_marks_take_the_frozen_driver_step(self):
        # v' - v = cot2(v - w0) dt for each of the three marks
        for kappa in (2.0, 3.0, 6.0, 7.5):
            rows = np.array(entry_rows(random_quads(12, seed=int(kappa))))
            for kernel in KERNELS:
                after, status, _ = kernel_substep(kappa, rows, kernel)
                assert np.all(status == 0)
                assert_allclose((after[:, 1:] - rows[:, 1:]) / DRIFT_DT,
                                cot2(rows[:, 1:] - rows[:, :1]),
                                rtol=1e-9, atol=1e-9)

    def test_pi_separation_kills_endpoint_term(self):
        # when the target sits diametrically opposite the driver the
        # (kappa-6)/2 cot2 term vanishes and the drift reduces to the
        # flank term alone -- for every kappa
        w0, v1, v2, wi = -2.0, -1.2, -0.2, math.pi - 2.0
        R = 1.0 - (sin2(wi - w0) * sin2(v2 - v1)
                   / (sin2(v2 - w0) * sin2(wi - v1)))
        flank = 0.5 * (cot2(v2 - w0) - cot2(v1 - w0))
        for kappa in (2.5, 4.0, 6.0, 7.9):
            ctx = KappaContext(kappa)
            tol = abs(flank) * gtilde_table_error(ctx, np.array([R]))
            for kernel in KERNELS:
                got = kernel_drift(kappa, [(w0, v1, v2, wi)], kernel)
                assert abs(got[0] - flank * special.hyp_tilde_G(ctx, R)) \
                    <= tol[0] + DRIFT_ATOL

    def test_girsanov_finite_difference(self):
        # kappa * d/dW_j log M at a fresh state equals the drift the
        # kernels step (the tilt of the driving Brownian motion under the
        # two-curve law), up to the table's interpolation error
        h = 1e-5
        for kappa in (2.0, 3.0, 6.0, 7.5):
            ctx = KappaContext(kappa)
            quads = random_quads(6, seed=int(7 * kappa))
            rows = entry_rows(quads)
            _, tol = displayed_drift(ctx, rows)
            fd = []
            for field in ("W1", "W2"):
                for w1, v1, w2, v2 in quads:
                    st = references.fresh_state(w1, v1, w2, v2)
                    base = getattr(st, field)
                    lp = references.log_M_iB_ch(
                        ctx, dataclasses.replace(st, **{field: base + h}))
                    lm = references.log_M_iB_ch(
                        ctx, dataclasses.replace(st, **{field: base - h}))
                    fd.append(kappa * (lp - lm) / (2.0 * h))
            for kernel in KERNELS:
                got = kernel_drift(kappa, rows, kernel)
                assert np.all(np.abs(np.array(fd) - got) < tol + 1e-8)


# the sampler's and the adaptive kernel's constants, none of which an
# estimator takes as an argument
SAMPLER_CONSTANTS = ("eps_kill", "eps_ret", "kres", "bmax", "stride", "cap_b",
                  "swallow_margin", "eps_in", "probe_rel_err", "chunk_paths")


def record_pullbacks(monkeypatch) -> list:
    """(paths, distances) of every ``_batched_pullback`` call, in order;
    a nan point (a probe the flow lost) counts as infinitely far."""
    pulls = []
    pullback = mc._batched_pullback

    def recorded(seq, paths, lens, du, eps_in, tally):
        out = pullback(seq, paths, lens, du, eps_in, tally)
        dist = np.abs(out)
        pulls.append((np.asarray(paths, dtype=np.int64).tolist(),
                      np.where(np.isnan(dist), np.inf, dist).tolist()))
        return out

    monkeypatch.setattr(mc, "_batched_pullback", recorded)
    return pulls


def coarse_minima_below_3r(coarse, r) -> tuple[set, set]:
    """Paths of a coarse round with snapshots (more than one distinct
    coarse row) and minimum at most 3r; and those of them whose minimum
    is not a hit outside the probe band."""
    dmin, rows = {}, {}
    for q, d in zip(*coarse):
        dmin[q] = min(dmin.get(q, math.inf), d)
        rows[q] = rows.get(q, 0) + 1
    below = {q for q, d in dmin.items() if d <= 3.0 * r and rows[q] > 1}
    rel = mc._SAMPLER["probe_rel_err"]
    return below, {q for q in below
                   if dmin[q] > r or abs(dmin[q] - r) <= rel * r}


def loop_probe_rounds(counts, probed, offset, radius, dists,
                      refine_decided):
    """The (path, length) rows of ``_probe_paths``'s coarse and refined
    rounds, built by per-path loops as the reference of its index
    arithmetic; ``dists[q, length]`` is a probe's distance."""
    rel = mc._SAMPLER["probe_rel_err"]
    coarse = [(q, offset + c) for q in probed for c in sorted(
        {int(round(f * int(counts[q]))) for f in mc._COARSE_FRACTIONS})]
    dmin, best = {}, {}
    for q, n in coarse:
        dmin[q] = min(dmin.get(q, math.inf), dists[q, n])
    for q, n in coarse:
        if dists[q, n] <= dmin[q]:
            best[q] = n - offset
    refined = []
    for q in probed:
        m, d = int(counts[q]), dmin[q]
        open_path = d > radius or abs(d - radius) <= rel * radius
        if d > 3.0 * radius or m == 0 or not (refine_decided or open_path):
            continue
        half = max(1, m // 6)
        lo, hi = max(0, best[q] - half), min(m, best[q] + half)
        refined += [(q, offset + c)
                    for c in range(lo, hi + 1, max(1, (hi - lo) // 60))]
    return [coarse, refined]


@pytest.mark.parametrize("refine_decided", [False, True])
def test_probe_rows_match_the_per_path_loops(monkeypatch, refine_decided):
    # on distances with many ties and some lost (nan) probes, the rows of
    # both rounds, the minima and the kept points are those of the loops
    radius, offset = 0.1, 7
    rng = np.random.default_rng(29)
    counts = rng.integers(0, 400, 80)
    counts[:6] = (0, 1, 2, 3, 5, 6)
    probed = np.flatnonzero(rng.uniform(size=80) < 0.8)
    # the probe point of each (path, length)
    q, n = np.ogrid[:80, :offset + 401]
    points = np.where((q + n) % 13 == 0, np.nan, radius * (
        0.5 + (q * 7919 + n * 104729) % 11 / 4.0) * np.exp(1j * (q + n)))
    dists = np.where(np.isnan(points), np.inf, np.abs(points))
    rounds = []

    def fake_pullback(seq, paths, lens, du, eps_in, tally):
        rounds.append(list(zip(paths.tolist(), lens.tolist())))
        return points[paths, lens]

    monkeypatch.setattr(mc, "_batched_pullback", fake_pullback)
    dmin, (pid, pts) = mc._probe_paths(
        np.zeros((80, offset + 401)), counts, probed, offset, radius, 1e-2,
        1e-3, refine_decided, {})
    want = loop_probe_rounds(counts, probed, offset, radius, dists,
                             refine_decided)
    assert rounds == want
    assert len(want[1]) > 100
    want_min = np.full(80, np.inf)
    for q, n in want[0] + want[1]:
        want_min[q] = min(want_min[q], dists[q, n])
    assert dmin.tobytes() == want_min.tobytes()
    kept = [(q, points[q, n]) for q, n in want[0] + want[1]
            if dists[q, n] <= 2.0 * radius]
    assert list(zip(pid.tolist(), pts.tolist())) == kept


@pytest.fixture
def fast_sampler(monkeypatch):
    """The sampler at a substep budget of 32768 units per macro step
    instead of 262144, which keeps these runs short."""
    monkeypatch.setitem(mc._SAMPLER, "bmax", 32768)


class TestTwoCurveHit:
    def test_reproducible_and_chunk_invariant(self, monkeypatch,
                                              fast_sampler):
        kw = dict(n_paths=1200, dt=1e-3, seed=11)
        a = mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.2], **kw)
        b = mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.2], **kw)
        monkeypatch.setitem(mc._SAMPLER, "chunk_paths", 500)
        c = mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.2], **kw)
        assert a[0] == b[0]
        assert a[0].estimate == c[0].estimate
        assert a[0].stderr == c[0].stderr
        assert a[0].config["certified"] == c[0].config["certified"]

    def test_path_range_merge(self, fast_sampler):
        # disjoint path ranges reproduce the exact per-path outcomes of
        # the full run (counter-based streams), so counts add
        kw = dict(dt=1e-3, seed=4)
        full = mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.2],
                                         n_paths=1200, **kw)[0]
        lo = mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.2],
                                       n_paths=600, **kw)[0]
        hi = mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.2],
                                       n_paths=600, path_start=600, **kw)[0]
        hits = lambda rec: round(rec.estimate * rec.n_paths)
        assert hits(lo) + hits(hi) == hits(full)
        # a path's probe rows and flow steps depend on that path alone
        for key in ("certified", "probe_rows", "flow_steps"):
            assert lo.config[key] + hi.config[key] == full.config[key]
        assert full.config["flow_steps"] > full.config["probe_rows"] > 0

    def test_record_contract(self, fast_sampler):
        recs = mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.2, 0.1],
                                         n_paths=800, dt=1e-3, seed=2)
        assert [r.r_or_t for r in recs] == [0.1, 0.2]
        for rec in recs:
            assert rec.kappa == 6.0
            assert rec.method == "two_curve_hit"
            assert rec.stderr > 0.0
            assert 0.0 <= rec.estimate <= 1.0
            assert rec.ess == rec.n_paths == 800
        # certificate bookkeeping is present and consistent
        for rec in recs:
            cfgd = rec.config
            total = (cfgd["hit_swallow"] + cfgd["hit_alive"]
                     + cfgd["hit_probe"])
            assert total == round(rec.estimate * rec.n_paths)
            assert cfgd["certified"] <= rec.n_paths
            # first-stage horizon is log(1/r) rounded to the snapshot
            # stride (10 steps)
            assert abs(cfgd["stop_capacity"] - math.log(1.0 / rec.r_or_t)) \
                <= 5.0 * rec.dt + 1e-12
        # deeper radius hits less often (3-sigma slack)
        p_small, p_big = recs[0], recs[1]
        slack = 3.0 * math.hypot(p_small.stderr, p_big.stderr)
        assert p_small.estimate <= p_big.estimate + slack

    def test_excluded_counts_only_unresolved_paths(self):
        # kappa 6, seed 1, paths 800-899: at r = 0.2 one first curve stops
        # with status 2 or 4 only after the radius's snapshot (certified,
        # so its second curve ran) and one second curve stops so after a
        # probe already decided it as a hit; neither is excluded there
        # (counting every status-2/4 row gave 1, 1, 2)
        recs = mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.05, 0.1, 0.2],
                                         n_paths=100, dt=1e-3, seed=1,
                                         path_start=800)
        assert [rec.config["excluded"] for rec in recs] == [1, 1, 0]
        assert ["collision_excluded" in rec.flags for rec in recs] == [
            True, True, False]

    def test_one_probe_pass_per_radius(self, monkeypatch):
        # a coarse and a refined round of backward-flow calls per radius
        calls = []
        flow = _kernels.backward_flow
        monkeypatch.setattr(_kernels, "backward_flow",
                            lambda *args: calls.append(flow(*args)))
        pulls = record_pullbacks(monkeypatch)
        mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.05, 0.1, 0.2],
                                  n_paths=100, dt=1e-3, seed=1)
        assert len(calls) == 2 * 3
        # the refined round probes exactly the paths with snapshots whose
        # coarse minimum is below 3r and not yet a hit outside the band
        assert len(pulls) == 2 * 3
        skipped = 0
        for r, coarse, refine in zip((0.05, 0.1, 0.2), pulls[::2],
                                     pulls[1::2]):
            below, open_paths = coarse_minima_below_3r(coarse, r)
            assert set(refine[0]) == open_paths
            skipped += len(below - open_paths)
        assert skipped > 0
        # the intersection rule refines every such path: it reads the
        # refined points
        pulls.clear()
        mc.estimate_intersection_hit(CTX6, SYM_CFG, [0.05, 0.1, 0.2],
                                     n_paths=100, dt=1e-3, seed=1)
        assert len(pulls) == 3 * 3
        for r, coarse, refine in zip((0.05, 0.1, 0.2), pulls[::3],
                                     pulls[1::3]):
            below, open_paths = coarse_minima_below_3r(coarse, r)
            assert set(refine[0]) == below
            assert below > open_paths

    @pytest.mark.parametrize("kappa, n_paths", [(3.0, 1000), (6.0, 200),
                                                (7.5, 200)])
    def test_skipped_refinement_changes_no_class(self, monkeypatch, kappa,
                                                 n_paths):
        # the paths the coarse round decides are refined anyway, through
        # _batched_pullback, by the intersection rule's pass: every path
        # keeps its hit and band class, and every other path its minimum
        pulls = record_pullbacks(monkeypatch)
        probe = mc._probe_paths
        rel = mc._SAMPLER["probe_rel_err"]
        skipped = []

        def both(seq, counts, probed, offset, radius, du, eps_in,
                 refine_decided, tally):
            assert not refine_decided
            dmin, pts = probe(seq, counts, probed, offset, radius, du,
                              eps_in, False, tally)
            refined = set(pulls[-1][0])
            full, _ = probe(seq, counts, probed, offset, radius, du, eps_in,
                            True, {"probe_rows": 0, "flow_steps": 0})
            passed = set(pulls[-1][0]) - refined
            skipped.extend(passed)
            for q in probed:
                d, f = dmin[q], full[q]
                assert (f <= radius, abs(f - radius) <= rel * radius) == (
                    d <= radius, abs(d - radius) <= rel * radius)
                assert f <= d if q in passed else f == d
            return dmin, pts

        monkeypatch.setattr(mc, "_probe_paths", both)
        mc.estimate_two_curve_hit(KappaContext(kappa), SYM_CFG,
                                  [0.05, 0.1, 0.2], n_paths=n_paths,
                                  dt=1e-3, seed=1)
        assert len(skipped) >= 20

    @pytest.mark.parametrize("r_list", [[], [0.0], [0.25], [0.3], [1.0],
                                        [1.5], [-0.1], [0.1, 1.5]],
                             ids=lambda r_list: str(r_list))
    def test_radii_outside_the_certificate_range_raise(self, monkeypatch,
                                                       r_list):
        # both hit estimators take radii in (0, 1/4) only, and say so
        # before any simulation
        monkeypatch.setattr(mc, "_two_stage_run", None)
        for estimate in (mc.estimate_two_curve_hit,
                         mc.estimate_intersection_hit):
            with pytest.raises(ValueError, match="radii"):
                estimate(CTX6, SYM_CFG, r_list, n_paths=10, dt=1e-3, seed=0)

    def test_repeated_radii_raise(self, monkeypatch):
        # a repeated radius would run twice into one radius's counters
        monkeypatch.setattr(mc, "_two_stage_run", None)
        for estimate in (mc.estimate_two_curve_hit,
                         mc.estimate_intersection_hit):
            with pytest.raises(ValueError, match="distinct"):
                estimate(CTX6, SYM_CFG, [0.2, 0.1, 0.2], n_paths=10,
                         dt=1e-3, seed=0)

    @pytest.mark.parametrize("kappa, n_paths", [(3.0, 600), (6.0, 200),
                                                (7.5, 200)])
    def test_certificate_horizon_only_adds_hits(self, fast_sampler, kappa,
                                                n_paths):
        # curves runs stop second curves at the certificate margin 1.5,
        # the meet rule's runs grow them on to 3.0: a path that stops
        # before 1.5 is decided alike, one that reaches 1.5 turns into a
        # hit, so hits only rise and band and exclusions only fall
        short, full = (mc._two_stage_run(
            KappaContext(kappa), SYM_CFG, [0.05, 0.1, 0.2], n_paths, 1e-3,
            1, 0, collect_meet=meet)[0] for meet in (False, True))
        gained = 0
        for r, s in short.items():
            f = full[r]
            assert s["certified"] == f["certified"]
            assert s["two_curve_hits"] >= f["two_curve_hits"]
            assert s["band"] <= f["band"]
            assert s["excluded"] <= f["excluded"]
            assert s["hit_alive"] >= f["hit_alive"] + f["hit_swallow"]
            gained += s["hit_alive"] - f["hit_alive"] - f["hit_swallow"]
        # second curves reach the horizon; past it, kappa > 4 ones pinch or
        # are absorbed before 3.0, and those are the hits gained
        assert sum(s["hit_alive"] for s in short.values()) > 0
        assert gained > 0 or kappa < 4.0
        # each record's config gives the horizon its run used
        assert [estimate(CTX6, SYM_CFG, [0.2], 1, 1e-3, 0)[0].config["cap_b"]
                for estimate in (mc.estimate_two_curve_hit,
                                 mc.estimate_intersection_hit)] == [1.5, 3.0]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.1], n_paths=10,
                                      dt=1e-2, seed=0)
        with pytest.raises(ValueError):
            mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.1], n_paths=0,
                                      dt=1e-3, seed=0)
        with pytest.raises(TypeError):
            mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.1], n_paths=10,
                                      dt=1e-3, seed=0, not_a_param=1)
        # the sampler's and the kernel's constants are not options
        for name in SAMPLER_CONSTANTS:
            for estimate, args in (
                    (mc.estimate_two_curve_hit, (SYM_CFG, [0.1], 10)),
                    (mc.estimate_intersection_hit, (SYM_CFG, [0.1], 10))):
                with pytest.raises(TypeError, match=name):
                    estimate(CTX6, *args, dt=1e-3, seed=0, **{name: 1})

    def test_drift_table_built_once_per_kappa(self, monkeypatch,
                                              fast_sampler):
        # two runs on fresh contexts at a kappa no other test uses: the
        # table's one G-tilde evaluation happens in the first
        built = []
        tilde_g = special.hyp_tilde_G

        def counted(ctx, x):
            built.append(ctx.kappa)
            return tilde_g(ctx, x)

        monkeypatch.setattr(special, "hyp_tilde_G", counted)
        for seed in (0, 1):
            mc.estimate_two_curve_hit(KappaContext(5.25), SYM_CFG, [0.2],
                                      n_paths=20, dt=1e-3, seed=seed)
        assert built == [5.25]
        u_max, vals, du = special.gtilde_table(5.25)
        assert special.gtilde_table(5.25)[1] is vals
        assert not vals.flags.writeable
        assert du == u_max / (vals.size - 1)

    def test_tiny_run_flags(self, fast_sampler):
        recs = mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.01], n_paths=3,
                                         dt=1e-3, seed=0)
        rec = recs[0]
        assert rec.ess <= 100.0
        # with three paths at r=0.01 nothing gets certified deep enough:
        # degenerate counts produce the 3/n bound
        if round(rec.estimate * 3) in (0, 3):
            assert "degenerate_counts" in rec.flags
            assert rec.stderr >= 1.0


class TestSurvivalWeighted:
    def test_time_zero_is_exact(self):
        recs = mc.estimate_survival_weighted(CTX6, (0.3, 0.9), [0.0],
                                             n_paths=50, dt=1e-3, seed=0)
        assert recs[0].estimate == 1.0
        assert recs[0].stderr < 1e-14

    def test_matches_spectral_oracle(self):
        basis = SpectralBasis(CTX6, 12)
        z0 = ZState(0.3, 0.9)
        recs = mc.estimate_survival_weighted(CTX6, z0, [1.0, 2.0],
                                             n_paths=20000, dt=1e-3, seed=9)
        for rec in recs:
            exact = survival_P2(CTX6, basis, z0, rec.r_or_t)
            assert rec.method == "survival_weighted"
            assert abs(rec.estimate - exact) < 3.0 * rec.stderr
            assert rec.ess > 100.0

    def test_low_ess_flag(self):
        recs = mc.estimate_survival_weighted(CTX6, (0.3, 0.9), [1.0],
                                             n_paths=40, dt=1e-3, seed=1)
        assert recs[0].ess <= 100.0
        assert "low_ess" in recs[0].flags

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mc.estimate_survival_weighted(CTX6, (0.3, 0.9), [],
                                          n_paths=10, dt=1e-3, seed=0)
        with pytest.raises(ValueError):
            mc.estimate_survival_weighted(CTX6, (0.3, 0.9), [-1.0],
                                          n_paths=10, dt=1e-3, seed=0)


class TestInputChecks:
    # every rule fails on its violation and on NaN, before any simulation
    @pytest.mark.parametrize("name, value", [
        ("n_paths", 0), ("n_paths", math.nan), ("dt", 6e-3),
        ("dt", math.nan), ("seed", -1), ("seed", 2 ** 64),
        ("seed", math.nan), ("path_start", -1), ("path_start", 2 ** 63 - 5),
        ("path_start", math.nan), ("r_list", [math.nan]),
        ("cfg", (1.0, 0.5, 0.0)), ("cfg", (1.0, math.nan, 0.0, -1.0)),
        # counts and ids are integers, never fractions or booleans
        ("n_paths", 10.5), ("seed", 1.5), ("path_start", 0.5),
        ("n_paths", True)])
    def test_hit_rules(self, monkeypatch, name, value):
        monkeypatch.setattr(mc, "_two_stage_run", None)
        kw = {**dict(cfg=SYM_CFG, r_list=[0.1], n_paths=10, dt=1e-3,
                     seed=0, path_start=0), name: value}
        for estimate in (mc.estimate_two_curve_hit,
                         mc.estimate_intersection_hit):
            with pytest.raises(ValueError):
                estimate(CTX6, **kw)
        with pytest.raises(ValueError, match="kappa"):
            mc.check_hit_inputs(math.nan, SYM_CFG, [0.1], 10, 1e-3, 0, 0,
                                intersection=True)

    @pytest.mark.parametrize("name, value", [
        ("z0", (0.3,)), ("z0", (math.nan, 0.9)), ("t_list", [math.nan]),
        ("t_list", [math.inf]), ("t_list", [1e300]), ("t_list", [4e-4]),
        ("t_list", [1.0, 2.0, 1.0]), ("t_list", [1.0, 0.9996]),
        ("dt", 0.0), ("dt", math.nan), ("n_paths", math.nan),
        ("seed", 2 ** 64), ("path_start", 2 ** 63 - 5), ("n_paths", 10.5),
        ("seed", 1.5), ("path_start", 0.5), ("seed", False)])
    def test_survival_rules(self, monkeypatch, name, value):
        monkeypatch.setattr(mc, "simulate_z_ensemble", None)
        kw = {**dict(z0=(0.3, 0.9), t_list=[1.0], n_paths=10, dt=1e-3,
                     seed=0, path_start=0), name: value}
        with pytest.raises(ValueError):
            mc.estimate_survival_weighted(CTX6, **kw)

    def test_checks_return_the_inputs_they_accept(self):
        assert mc.check_hit_inputs(6.0, dataclasses.astuple(SYM_CFG),
                                   (0.2, 0.1), 10, 1e-3, 0, 0, True) == (
            SYM_CFG, [0.2, 0.1])
        assert mc.check_survival_inputs([0.3, 0.9], (0, 2), 10, 1e-3, 0,
                                        0) == (ZState(0.3, 0.9), [0.0, 2.0])
        # numpy integers are integers
        assert mc.check_survival_inputs(
            [0.3, 0.9], [1.0], np.int64(10), 1e-3, np.uint64(2 ** 63),
            np.int32(0)) == (ZState(0.3, 0.9), [1.0])


class TestBuildRecord:
    def test_binomial_bits(self):
        # 0/1 hits keep the binomial expression p (1 - p), bit for bit
        for hits, n in ((1, 3), (7, 100), (333, 1000), (4999, 5000)):
            config = dict(n=n, sum_x=hits, sum_x2=hits, sum_l=n, sum_l2=n,
                          band=0, excluded=0)
            rec = mc.build_record(6.0, "two_curve_hit", 0.1, 1e-3, 0, config)
            p = hits / n
            assert rec.estimate == p
            assert rec.stderr == math.sqrt(max(p * (1.0 - p), 0.0) / n)
            assert rec.ess == n and rec.flags == ()

    def test_weighted_matches_the_two_pass_moments(self):
        w = np.random.default_rng(3).exponential(size=500)
        w[::7] = 0.0
        s1, s2 = float(np.sum(w)), float(np.sum(w * w))
        config = dict(n=w.size, sum_x=s1, sum_x2=s2, sum_l=s1, sum_l2=s2,
                      band=0, excluded=0)
        rec = mc.build_record(6.0, "survival_weighted", 1.0, 1e-3, 0, config,
                              weighted=True)
        assert rec.estimate == float(np.mean(w))
        assert rec.ess == s1 * s1 / s2
        assert rec.stderr == pytest.approx(np.std(w) / math.sqrt(w.size),
                                           rel=1e-13)
        assert rec.config is config and rec.flags == ()

    def test_flags_and_bounds(self):
        base = dict(n=200, band=0, excluded=0)
        none = mc.build_record(6.0, "m", 1.0, 1e-3, 0, dict(
            base, sum_x=0.0, sum_x2=0.0, sum_l=0.0, sum_l2=0.0),
            weighted=True)
        assert none.flags == ("low_ess", "no_survivors")
        assert none.stderr == 1.0 / 200 and none.ess == 0.0
        ones = mc.build_record(6.0, "m", 0.0, 1e-3, 0, dict(
            base, sum_x=200.0, sum_x2=200.0, sum_l=200.0, sum_l2=200.0),
            weighted=True)
        assert (ones.estimate, ones.ess, ones.flags) == (1.0, 200.0, ())
        assert ones.stderr == 8.0 * np.finfo(float).eps
        hits = dict(base, sum_x=0, sum_x2=0, sum_l=200, sum_l2=200)
        rec = mc.build_record(6.0, "m", 0.1, 1e-3, 0, dict(
            hits, band=20, excluded=2), flags=("given",))
        assert rec.flags == ("given", "degenerate_counts", "probe_band",
                             "collision_excluded")
        assert rec.stderr == math.sqrt((3 / 200) ** 2 + (10 / 200) ** 2
                                       + (1 / 200) ** 2)

    @pytest.mark.parametrize("ess, flagged", [(300.0, True), (500.0, False)])
    def test_low_ess_below_one_percent_of_n(self, ess, flagged):
        # kappa 2 z-weighted records of 40000 paths have an ESS of 155-555;
        # above 100 but below 1% of n is low too.  Weight 1 on ``ess`` of
        # the paths gives ESS sum_l^2 / sum_l2 = ess
        config = dict(n=40000, sum_x=ess, sum_x2=ess, sum_l=ess, sum_l2=ess,
                      band=0, excluded=0)
        rec = mc.build_record(2.0, "survival_weighted", 2.0, 1e-3, 0, config,
                              weighted=True)
        assert rec.ess == ess
        assert rec.flags == (("low_ess",) if flagged else ())


class TestFitPowerLaw:
    def test_exact_power_law(self):
        rs = np.array([0.05, 0.1, 0.2])
        pts = [(r, 3.0 * r ** 2.0, 0.0) for r in rs]
        expo, c0, cov = mc.fit_power_law(pts)
        assert_allclose(expo, 2.0, atol=1e-12)
        assert_allclose(c0, 3.0, rtol=1e-12)
        assert np.all(np.abs(cov) < 1e-20)

    def test_weighted_coverage(self):
        # synthetic noisy data with slope alpha0: the reported slope
        # sigma must give ~95% coverage at 2 sigma
        rng = np.random.default_rng(42)
        alpha, c0 = 1.25, 1.7
        rs = np.array([0.05, 0.1, 0.2])
        truth = c0 * rs ** alpha
        n = 100000
        sig = np.sqrt(truth * (1.0 - truth) / n)
        cover = 0
        trials = 400
        for _ in range(trials):
            ps = truth + sig * rng.standard_normal(3)
            expo, _, cov = mc.fit_power_law(list(zip(rs, ps, sig)))
            if abs(expo - alpha) < 2.0 * math.sqrt(cov[0, 0]):
                cover += 1
        assert cover / trials > 0.90

    def test_unweighted_fallback(self):
        # zero stderr entries select the unweighted fit with
        # residual-scaled covariance
        pts = [(0.05, 0.02, 0.0), (0.1, 0.048, 0.0), (0.2, 0.11, 0.0)]
        expo, c0, cov = mc.fit_power_law(pts)
        assert 1.0 < expo < 1.5
        assert cov[0, 0] >= 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            mc.fit_power_law([(0.1, 0.5, 0.01)])
        with pytest.raises(ValueError):
            mc.fit_power_law([(0.1, 0.5, 0.01), (0.1, 0.4, 0.01)])
        with pytest.raises(ValueError):
            mc.fit_power_law([(0.1, 0.5, 0.01), (0.2, -0.1, 0.01)])

        # a NaN estimate was skipped as lacking two distinct radii, an
        # infinite stderr fitted exponent 0 and intercept 1
        for column in range(3):
            for bad in (math.nan, math.inf, -math.inf):
                pts = [[0.1, 0.5, 0.01], [0.2, 0.7, 0.01], [0.4, 0.9, 0.02]]
                pts[1][column] = bad
                with pytest.raises(ValueError, match="finite"):
                    mc.fit_power_law(pts)


class TestIntersectionHit:
    def test_subset_of_two_curve(self, fast_sampler):
        kw = dict(n_paths=900, dt=1e-3, seed=21)
        both = mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.2, 0.1], **kw)
        inter = mc.estimate_intersection_hit(CTX6, SYM_CFG, [0.2, 0.1], **kw)
        for b, i in zip(both, inter):
            assert i.method == "intersection_hit"
            assert i.r_or_t == b.r_or_t
            # same seed, same paths: structural inclusion
            assert i.estimate <= b.estimate + 1e-15
            assert "surrogate_meet_rule" in i.flags
            assert i.config["two_curve_hits"] == round(b.estimate
                                                       * b.n_paths)

    def test_requires_intersecting_regime(self):
        ctx3 = KappaContext(3.0)
        with pytest.raises(ValueError):
            mc.estimate_intersection_hit(ctx3, SYM_CFG, [0.1], n_paths=10,
                                         dt=1e-3, seed=0)


@pytest.fixture(scope="class")
def c0_records():
    """Hit records of kappa 6 at r 0.2 and 0.12: 1500 paths of SYM_CFG and
    then of ASYM_CFG on disjoint path ranges, at ``fast_sampler``'s
    budget."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(mc._SAMPLER, "bmax", 32768)
        return [rec for c, cfg in enumerate((SYM_CFG, ASYM_CFG))
                for rec in mc.estimate_two_curve_hit(
                    CTX6, cfg, [0.2, 0.12], n_paths=1500, dt=1e-3, seed=5,
                    path_start=1500 * c)]


class TestC0Estimate:
    def test_two_config_record(self, c0_records):
        rec = mc.pool_C0(CTX6, c0_records)
        assert rec.method == "C0"
        assert math.isnan(rec.r_or_t)
        assert rec.estimate > 0.0
        assert rec.stderr > 0.0
        assert rec.ess == 3000.0
        cells = rec.config["cells"]
        assert len(cells) == 4
        for cell in cells:
            # each cell rescales a hit frequency by G * r^alpha0
            assert cell["C0"] > 0.0

    def test_pinned_pool(self, c0_records):
        # the bits of sampling each configuration on its own path range
        # and pooling the cells in record order
        rec = mc.pool_C0(CTX6, c0_records)
        assert rec.estimate == float.fromhex("0x1.e27856f28cb6ep+0")
        assert rec.stderr == float.fromhex("0x1.155bb55a88cffp-4")
        assert (rec.n_paths, rec.flags) == (3000, ())
        assert rec.config["method"] == "two_curve_hit"
        assert [cell["r"] for cell in rec.config["cells"]] == [0.12, 0.2] * 2

    def test_fault_injection_flags(self, c0_records):
        # a configuration whose estimates are tripled breaks the shape of
        # G; doubling one radius's estimates breaks the r^alpha0 scaling
        def pool(scaled):
            return mc.pool_C0(CTX6, [
                dataclasses.replace(rec, estimate=rec.estimate
                                    * scaled(rec)) for rec in c0_records])

        assert pool(lambda rec: 1.0).flags == ()
        assert "ci_overlap_fail" in pool(
            lambda rec: 3.0 if rec.config["cfg"][0] == 2.2 else 1.0).flags
        assert "r_instability" in pool(
            lambda rec: 2.0 if rec.r_or_t == 0.12 else 1.0).flags

    def test_input_rules(self, c0_records):
        sym, asym = c0_records[:2], c0_records[2:]

        def moved(recs, **changes):
            return [dataclasses.replace(rec, config={**rec.config, **changes})
                    for rec in recs]

        survival = mc.estimate_survival_weighted(CTX6, (0.3, 0.9), [1.0],
                                                 n_paths=10, dt=1e-3, seed=0)
        mixed = [
            (CTX6, []),
            (KappaContext(5.0), c0_records),
            (CTX6, sym + [dataclasses.replace(asym[0], kappa=5.0)]),
            (CTX6, sym + [dataclasses.replace(asym[0],
                                              method="intersection_hit")]),
            (CTX6, sym + [dataclasses.replace(asym[0], dt=2e-3)]),
            (CTX6, survival),
        ]
        twice = [
            # the last path of SYM_CFG's range counted again in ASYM_CFG's
            sym + moved(asym, path_start=1499),
            # one run giving a radius twice
            c0_records + c0_records[:1],
        ]
        for ctx, recs in mixed:
            with pytest.raises(ValueError, match="one kappa, method, dt"):
                mc.pool_C0(ctx, recs)
        for recs in twice:
            with pytest.raises(ValueError, match="count a path twice"):
                mc.pool_C0(CTX6, recs)
        # other seeds, or adjacent ranges, share no path
        for recs in (sym + moved(asym, path_start=1500),
                     sym + [dataclasses.replace(rec, seed=6)
                            for rec in moved(asym, path_start=0)],
                     sym + moved(sym, path_start=1500)):
            assert mc.pool_C0(CTX6, recs).n_paths == 3000

    def test_matches_loop_reference(self):
        # the broadcasts equal Python loops over the cells in record order,
        # with sigma^2 as sigma * sigma, in bits and flags, on random cells
        rng = np.random.default_rng(30)
        cfgs = (SYM_CFG, ASYM_CFG, BoundaryConfig(2.0, 1.1, 0.3, -2.5))

        def mean(cells):
            w = sum(1.0 / (sig * sig) for *_, sig in cells)
            wc = sum(c0 / (sig * sig) for *_, c0, sig in cells)
            return wc / w, 1.0 / math.sqrt(w)

        seen = set()
        for _ in range(40):
            # hit frequencies near C0 G r^alpha0 with C0 2, tripled on the
            # first configuration or doubled on the smallest radius by turns
            picked = rng.permutation(3)[:rng.integers(2, 4)]
            rs = np.sort(rng.choice([0.03, 0.05, 0.1, 0.2], 2, False))
            bias_cfg, bias_r = rng.choice([1.0, 3.0]), rng.choice([1.0, 2.0])
            # up to 18 cells: 1-3 runs of 100 paths per configuration
            starts = [100 * k for k in range(9)]
            recs = []
            for c in picked:
                cfg = cfgs[c]
                for start in [starts.pop() for _ in range(rng.integers(1, 4))]:
                    for r in rs:
                        est = (2.0 * G_quad(CTX6, cfg) * r ** CTX6.alpha0
                               * rng.uniform(0.97, 1.03)
                               * (bias_cfg if c == picked[0] else 1.0)
                               * (bias_r if r == rs[0] else 1.0))
                        recs.append(mc.EstimateRecord(
                            6.0, "two_curve_hit", float(r), est, 0.03 * est,
                            100.0, 100, 1e-3, 7,
                            {"cfg": [cfg.w1, cfg.v1, cfg.w2, cfg.v2],
                             "path_start": start, "n": 100}))
            rec = mc.pool_C0(CTX6, recs)
            order = list(dict.fromkeys(tuple(r.config["cfg"]) for r in recs))
            cells = []
            for r in recs:
                scale = (G_quad(CTX6, BoundaryConfig(*r.config["cfg"]))
                         * r.r_or_t ** CTX6.alpha0)
                cells.append((order.index(tuple(r.config["cfg"])), r.r_or_t,
                              r.estimate / scale, r.stderr / scale))
            pooled, se = mean(cells)
            per_cfg = [mean([c for c in cells if c[0] == i])
                       for i in range(len(order))]
            radii = sorted({c[1] for c in cells})
            per_r = [mean([c for c in cells if c[1] == r]) for r in radii]
            flags = []
            if any(abs(mi - mj) > 1.96 * (si + sj)
                   for mi, si in per_cfg for mj, sj in per_cfg):
                flags.append("ci_overlap_fail")
            if any(abs(mi - mj) > 1.96 * (si + sj)
                   + pooled * (ri ** CTX6.beta0 + rj ** CTX6.beta0)
                   for (mi, si), ri in zip(per_r, radii)
                   for (mj, sj), rj in zip(per_r, radii)):
                flags.append("r_instability")
            assert (rec.estimate, rec.stderr) == (pooled, se)
            assert rec.config["per_cfg"] == [list(m) for m in per_cfg]
            assert [c[2:] for c in cells] == [
                (c["C0"], c["sigma"]) for c in rec.config["cells"]]
            assert list(rec.flags) == flags
            assert rec.n_paths == 50 * len(recs)
            seen.add(rec.flags)
        assert seen == {(), ("ci_overlap_fail",), ("r_instability",),
                        ("ci_overlap_fail", "r_instability")}

    def test_makes_no_kernel_call(self, c0_records, monkeypatch):
        def no_kernel(*args, **kwargs):
            raise AssertionError("pool_C0 ran a kernel")

        for name in ("hsle_evolve_adaptive", "backward_flow"):
            monkeypatch.setattr(_kernels, name, no_kernel)
        monkeypatch.setattr(mc, "_two_stage_run", no_kernel)
        assert mc.pool_C0(CTX6, c0_records).ess == 3000.0


class TestBackwardFlow:
    def test_constant_driver_reproduces_slit_tip(self):
        # pulling the near-tip boundary point back through a constant
        # driver recovers the radial slit tip modulus
        du, n = 1e-3, 1000
        drivers = np.zeros((1, n))
        lengths = np.array([n], dtype=np.int64)
        y = np.array([(1.0 - 1e-6) * np.exp(1j * 0.0)])
        _kernels.backward_flow(drivers, lengths, du, y, np.arange(1))
        assert_allclose(abs(y[0]), loewner.slit_tip_modulus(n * du),
                        rtol=2e-3)

    def test_origin_is_fixed(self):
        drivers = np.full((1, 50), 0.3)
        lengths = np.array([50], dtype=np.int64)
        y = np.array([0.0 + 0.0j])
        _kernels.backward_flow(drivers, lengths, 1e-3, y, np.arange(1))
        assert y[0] == 0.0


class TestCrossEstimatorConsistency:
    def test_two_curve_slope_versus_spectral_alpha(self, fast_sampler):
        # the hit-probability log-log slope and the spectral decay rate
        # are two routes to the same exponent; at modest sample size
        # they must agree within combined uncertainty
        recs = mc.estimate_two_curve_hit(CTX6, SYM_CFG, [0.2, 0.1],
                                         n_paths=1500, dt=1e-3, seed=13)
        pts = [(r.r_or_t, r.estimate, r.stderr) for r in recs]
        expo, _, cov = mc.fit_power_law(pts)
        sig = math.sqrt(cov[0, 0])
        assert abs(expo - CTX6.alpha0) < 3.0 * sig + 0.05
