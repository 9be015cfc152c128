"""Tests of the adaptive hSLE kernel called directly.

The kernel's outputs are frozen bit for bit (see the note above
``_hsle_evolve_adaptive_np``), so besides its structural contract --
batch and macro-boundary invariance, consistent stop codes, prefix
snapshots -- every output bit is compared with a plain per-path loop
kept here as the reference, and the stop codes of two fixed inputs with
recorded values.  A small ``bmax`` keeps every run short.
"""

import math
import tempfile

import numpy as np
import pytest

from twocurve import _kernels, _rng, cli, montecarlo as mc
from twocurve.context import KappaContext

TWO_PI = 2.0 * math.pi
DT = 1e-3
BMAX = 4096
ROW_SEED = 20260917


def make_rows(n, seed=ROW_SEED):
    """Deterministic valid state rows (w0, v1, v2, winf), some with small
    gaps, drawn from the package's own counter-based stream."""
    rows = np.empty((n, 4))
    for p in range(n):
        u = [_rng.uniform(seed, 5 * p + i) for i in range(5)]
        cuts = [0.001 + x * x for x in u[:4]]
        tot = sum(cuts)
        gaps = [c / tot * TWO_PI for c in cuts]
        w0 = TWO_PI * u[4] - math.pi
        rows[p] = (w0, w0 + gaps[0], w0 + gaps[0] + gaps[1],
                   w0 + gaps[0] + gaps[1] + gaps[2])
    return rows


def run(kappa, rows, start_macro, max_macros, thr, seed=7, ids=None):
    """One kernel call on copies of ``rows``; returns all outputs."""
    umax, gt_vals, gt_du = mc._gt_table(KappaContext(kappa))
    n = rows.shape[0]
    ids = np.arange(n) if ids is None else np.asarray(ids)
    state = np.array(rows, dtype=float)
    streams = _rng.derive_stream_array(seed, ids.astype(np.uint64))
    thr = np.asarray(thr, dtype=np.int64)
    snap = np.zeros((n, thr.size, 4))
    reached = np.zeros((n, thr.size), dtype=np.uint8)
    status = np.zeros(n, dtype=np.uint8)
    death = np.full(n, -1, dtype=np.int64)
    _kernels.hsle_evolve_adaptive(
        state, streams, start_macro, max_macros, kappa, DT, thr, gt_vals,
        gt_du, umax, snap, reached, status, death, bmax=BMAX)
    return dict(state=state, snap=snap, reached=reached, status=status,
                death_units=death)


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


THR = np.arange(20, 201, 20)


class TestBatchInvariance:
    def test_split_rows_reproduce_whole_run(self):
        rows = make_rows(600)
        whole = run(6.0, rows, 0, 200, THR)
        parts = [run(6.0, rows[a:b], 0, 200, THR, ids=np.arange(a, b))
                 for a, b in ((0, 7), (7, 300), (300, 600))]
        for name, arr in whole.items():
            assert_same_bits(arr, np.concatenate([p[name] for p in parts]))
        # the run exercises more than one kind of stop
        assert len(set(whole["status"].tolist())) >= 3

    def test_resume_at_macro_boundary(self):
        rows = make_rows(80)
        whole = run(7.5, rows, 0, 200, THR)
        cut = 100
        first = run(7.5, rows, 0, cut, THR[THR <= cut])
        live = np.nonzero(first["status"] == 0)[0]
        second = run(7.5, first["state"][live], cut, 200 - cut,
                     THR[THR > cut] - cut, ids=live)
        state = first["state"].copy()
        state[live] = second["state"]
        assert_same_bits(whole["state"], state)
        status = first["status"].copy()
        status[live] = second["status"]
        assert_same_bits(whole["status"], status)
        death = first["death_units"].copy()
        later = second["death_units"]
        death[live] = np.where(later < 0, later, later + cut * BMAX)
        assert_same_bits(whole["death_units"], death)
        k1 = int(np.count_nonzero(THR <= cut))
        assert_same_bits(whole["snap"][:, :k1], first["snap"])
        assert_same_bits(whole["snap"][live, k1:], second["snap"])
        assert not whole["reached"][first["status"] != 0, k1:].any()


def reference_path(row, sid, n_macros, kappa, thr, gt_vals, gt_du, gt_umax,
                   eps_kill=0.01, eps_ret=0.1, kres=3.5):
    """The kernel's update for one path, written plainly: every uniform
    drawn by the scalar generator, every expression spelled out where it
    is used.  Returns (state, snapshots, status, death_units)."""
    w0, v1, v2, wi = (float(x) for x in row)
    nt = len(gt_vals)
    unit = DT / BMAX
    res_units = BMAX * 1.0 / (kappa * kres * kres * DT)
    floor_gap = 0.35 * kres * math.sqrt(kappa * unit)
    p_ret = (eps_kill / eps_ret) ** ((8.0 - kappa) / kappa)
    snaps = []
    units_done = 0
    for m in range(n_macros):
        left = BMAX
        while left > 0:
            g01 = v1 - w0
            gw = w0 - (wi - TWO_PI)
            gmin = min(g01, gw)
            n_u = min(max(int(res_units * gmin * gmin), 1), left)
            off = m * BMAX + (BMAX - left)
            uu0 = _rng.uniform(sid, 4 * off)
            uu1 = _rng.uniform(sid, 4 * off + 1)
            g = math.sqrt(-2.0 * math.log(uu0)) * math.cos(TWO_PI * uu1)
            dts = n_u * unit
            gb = v2 - w0
            gc = wi - w0
            u = (math.log(math.sin(0.5 * gb))
                 + math.log(math.sin(0.5 * (wi - v1)))
                 - math.log(math.sin(0.5 * gc))
                 - math.log(math.sin(0.5 * (v2 - v1))))
            u = max(u, 0.0)
            if u >= gt_umax:
                G = gt_vals[nt - 1]
            else:
                x = u / gt_du
                i0 = min(int(x), nt - 2)
                frac = x - i0
                G = gt_vals[i0] * (1.0 - frac) + gt_vals[i0 + 1] * frac
            sa, ca = math.sin(0.5 * g01), math.cos(0.5 * g01)
            sb, cb = math.sin(0.5 * gb), math.cos(0.5 * gb)
            sc, cc = math.sin(0.5 * gc), math.cos(0.5 * gc)
            drift = (0.5 * (kappa - 6.0) * (-cc / sc)
                     + 0.5 * (-ca / sa + cb / sb) * G)
            v1 = v1 + (ca / sa) * dts
            v2 = v2 + (cb / sb) * dts
            wi = wi + (cc / sc) * dts
            w0 = w0 + drift * dts + math.sqrt(kappa * dts) * g
            left -= n_u
            units_done += n_u
            g01, g12, g23 = v1 - w0, v2 - v1, wi - v2
            gw = w0 - (wi - TWO_PI)
            st = 0
            if g12 <= 0.0 or g23 <= 0.0:
                st = 4
            elif gw <= 0.0:
                st = 1
            elif g01 <= 0.0:
                st = 2
            else:
                oth = min(g12, g23)
                ref_c = min(oth, g01)
                ref_f = min(oth, gw)
                if gw < eps_kill * ref_c:
                    if _rng.uniform(sid, 4 * off + 2) < p_ret:
                        w0 = (wi - TWO_PI) + eps_ret * ref_c
                    else:
                        st = 1
                elif g01 < eps_kill * ref_f:
                    w0 = v1 - eps_ret * ref_f
                elif min(gw, g01) < floor_gap:
                    st = 3
            if st != 0:
                return (w0, v1, v2, wi), snaps, st, units_done
        snaps.extend([(w0, v1, v2, wi)] * thr.count(m + 1))
    return (w0, v1, v2, wi), snaps, 0, -1


class TestAgainstReference:
    @pytest.mark.parametrize("kappa", [3.0, 6.0, 7.5])
    def test_bitwise_equal_to_plain_loop(self, kappa):
        # same doubles, same functions, same order: not one bit may move
        rows = make_rows(24)
        n_macros = 150
        thr = list(range(15, n_macros + 1, 15))
        out = run(kappa, rows, 0, n_macros, thr)
        umax, gt_vals, gt_du = mc._gt_table(KappaContext(kappa))
        streams = _rng.derive_stream_array(7, np.arange(24, dtype=np.uint64))
        for p in range(24):
            state, snaps, st, du = reference_path(
                rows[p], int(streams[p]), n_macros, kappa, thr,
                gt_vals.tolist(), gt_du, umax)
            assert out["state"][p].tolist() == list(state)
            assert out["status"][p] == st
            assert out["death_units"][p] == du
            assert out["reached"][p].sum() == len(snaps)
            assert out["snap"][p, :len(snaps)].tolist() == [
                list(s) for s in snaps]


class TestStopCodes:
    @pytest.mark.parametrize("kappa", [3.0, 6.0, 7.5])
    def test_death_units_and_prefix_snapshots(self, kappa):
        out = run(kappa, make_rows(120), 0, 200, THR)
        status, death, reached = (out["status"], out["death_units"],
                                  out["reached"])
        assert set(status.tolist()) <= {0, 1, 2, 3, 4}
        np.testing.assert_array_equal(death == -1, status == 0)
        assert (death[status != 0] >= 0).all()
        assert (death <= 200 * BMAX).all()
        counts = reached.sum(axis=1)
        for row, c in zip(reached, counts):
            assert (row[:c] == 1).all() and (row[c:] == 0).all()
        # survivors pass every threshold; a stopped path exactly those
        # whose macro steps it completed before its stop
        assert (counts[status == 0] == THR.size).all()
        stopped = status != 0
        np.testing.assert_array_equal(
            counts[stopped],
            np.searchsorted(THR * BMAX, death[stopped], side="left"))


# Stop codes of 40 paths from make_rows(40), streams derive_stream(7, i),
# 400 macro steps of dt 1e-3 at bmax 4096, thresholds every 40 macros.
RECORDED = {
    6.0: dict(
        status=[
            0, 1, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 1, 0, 3, 0, 3, 0, 0, 0, 0, 0,
            3, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 1, 3, 1, 0, 3
        ],
        death_units=[
            -1, 218937, -1, -1, -1, 308, -1, -1, -1, -1, -1, -1, 71554, -1,
            474579, -1, 486048, -1, -1, -1, -1, -1, 661910, -1, -1, -1, -1,
            -1, 10429, 166062, -1, -1, -1, 697428, 7, 94018, 1496959, 215, -1,
            6945
        ],
        reached=[
            10, 1, 10, 10, 10, 0, 10, 10, 10, 10, 10, 10, 0, 10, 2, 10, 2, 10,
            10, 10, 10, 10, 4, 10, 10, 10, 10, 10, 0, 1, 10, 10, 10, 4, 0, 0,
            9, 0, 10, 0
        ]),
    7.5: dict(
        status=[
            0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 1, 0, 3, 0, 0, 0, 0, 0, 0, 0,
            1, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 3
        ],
        death_units=[
            -1, 283104, -1, -1, -1, 37138, -1, -1, -1, -1, -1, -1, 1265701,
            -1, 1313631, -1, -1, -1, -1, -1, -1, -1, 642416, -1, -1, -1,
            544399, -1, -1, -1, -1, -1, -1, -1, 310, -1, -1, 55149, -1, 329
        ],
        reached=[
            10, 1, 10, 10, 10, 0, 10, 10, 10, 10, 10, 10, 7, 10, 8, 10, 10,
            10, 10, 10, 10, 10, 3, 10, 10, 10, 3, 10, 10, 10, 10, 10, 10, 10,
            0, 10, 10, 0, 10, 0
        ]),
}


class TestRecordedStops:
    @pytest.mark.parametrize("kappa", [6.0, 7.5])
    def test_matches_recorded(self, kappa):
        thr = np.arange(40, 401, 40)
        out = run(kappa, make_rows(40), 0, 400, thr)
        rec = RECORDED[kappa]
        assert out["status"].tolist() == rec["status"]
        assert out["death_units"].tolist() == rec["death_units"]
        assert out["reached"].sum(axis=1).tolist() == rec["reached"]


class TestNonPositiveGapAtEntry:
    @pytest.mark.parametrize("row, code", [
        ((1.0, 1.0, 2.0, 3.0), 2),                  # w0 == v1
        ((3.0 - TWO_PI, 1.0, 2.0, 3.0), 1),         # w0 == winf - 2 pi
        ((0.5, 1.0, 1.0, 3.0), 4),                  # v1 == v2
        ((0.5, 1.0, 2.0, 2.0), 4),                  # v2 == winf
    ])
    def test_classified_without_a_step(self, row, code):
        rows = np.array([row, (0.0, 1.0, 2.0, 3.0)])
        out = run(6.0, rows, 0, 50, [10, 20])
        assert out["status"].tolist()[0] == code
        assert out["death_units"].tolist()[0] == 0
        assert not out["reached"][0].any()
        assert_same_bits(out["state"][0], rows[0])
        # the healthy row next to it runs as it would alone
        alone = run(6.0, rows[1:], 0, 50, [10, 20], ids=[1])
        for name, arr in alone.items():
            assert_same_bits(arr[0], out[name][1])

    def test_intersection_cli_run_exits_zero(self):
        # the second curve of path 390 (r = 0.05) enters with w0 == v1
        # exactly: the 2 pi shift of the conditional tuple erases a tiny
        # first-curve passive gap
        with tempfile.TemporaryDirectory() as out_dir:
            rc = cli.main(["simulate", "--method", "intersection",
                           "--kappa", "7.5", "--n-paths", "20",
                           "--path-start", "380", "--master-seed", "3",
                           "--out-dir", out_dir])
        assert rc == 0
