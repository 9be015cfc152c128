"""Tests of the adaptive hSLE kernel called directly.

The kernel's outputs are frozen bit for bit (see the note above
``_hsle_evolve_adaptive_np``), so besides its structural contract --
batch and macro-boundary invariance, consistent stop codes, prefix
snapshots -- every output bit is compared with a plain per-path loop
kept here as the reference, and the stop codes of two fixed inputs with
recorded values.  A small ``bmax`` keeps every run short.  The dispatcher
runs the compiled kernel where ``cc`` exists; ``TestCompiledKernel``
compares its bytes and exceptions with the Python kernel's, and
``TestCompiledBackwardFlow`` the compiled backward flow's bytes with the
numpy flow's.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from twocurve import _kernels, _rng, cli, montecarlo as mc
from twocurve.context import KappaContext
from twocurve.green import BoundaryConfig

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


def run(kappa, rows, start_macro, max_macros, thr, seed=7, ids=None,
        bmax=BMAX, kernel=None):
    """One kernel call on copies of ``rows``; returns all outputs.  The
    call goes through the dispatcher, or with ``kernel`` "c" or "python"
    straight to that kernel."""
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
    if kernel is None:
        _kernels.hsle_evolve_adaptive(
            state, streams, start_macro, max_macros, kappa, DT, thr, gt_vals,
            gt_du, umax, snap, reached, status, death, bmax=bmax)
    else:
        args = (state, streams, start_macro, max_macros, kappa, DT, thr,
                0.01, 0.1, 3.5, bmax, gt_vals, gt_du, umax, snap, reached,
                status, death)
        if kernel == "c":
            _kernels._hsle_evolve_adaptive_c(compiled_lib(), *args)
        else:
            _kernels._hsle_evolve_adaptive_np(*args)
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

    def test_intersection_cli_run_exits_zero(self, monkeypatch):
        # the second curve of path 390 (r = 0.05) enters with w0 == v1
        # exactly: the 2 pi shift of the conditional tuple erases a tiny
        # first-curve passive gap
        with tempfile.TemporaryDirectory() as out_dir:
            rc = cli.main(["simulate", "--method", "intersection",
                           "--kappa", "7.5", "--n-paths", "20",
                           "--path-start", "380", "--master-seed", "3",
                           "--out-dir", out_dir])
            rows = cli.read_records_csv(
                os.path.join(out_dir, "estimates.csv"))
            with open(os.path.join(out_dir, "estimates_meta.json"),
                      encoding="utf-8") as fh:
                counters = json.load(fh)["counters"]
        assert rc == 0
        # per radius 0.05, 0.1, 0.2: estimate, meets and two-curve hits
        assert [row["estimate"] for row in rows] == [0.05, 0.0, 0.0]
        assert [(c["r"], c["meet"], c["two_curve_hits"])
                for c in counters] == [(0.05, 1, 5), (0.1, 0, 7),
                                       (0.2, 0, 10)]
        # the same run through the estimator: per radius one probe pass
        # (coarse and refined rounds) and one polyline call
        calls = record_flow_calls(monkeypatch, mc.estimate_intersection_hit,
                                  7.5, n_paths=20, seed=3, path_start=380)
        assert len(calls) <= 3 * 3


# ---------------------------------------------------------------------------
# the compiled kernel against the Python kernel
# ---------------------------------------------------------------------------

HAS_CC = shutil.which("cc") is not None
OUTPUTS = ("state", "snap", "reached", "status", "death_units")
S8 = math.pi / 4.0
SYM_CFG = BoundaryConfig(w1=3 * S8, v1=S8, w2=-S8, v2=-3 * S8)


def compiled_lib():
    """The compiled kernel library; a build failure fails the test."""
    lib = _kernels._hsle_lib()
    assert lib is not None, "cc is on PATH but _hsle.c did not build"
    return lib


def assert_kernels_agree(kappa, rows, max_macros, thr, **kwargs):
    c = run(kappa, rows, 0, max_macros, thr, kernel="c", **kwargs)
    py = run(kappa, rows, 0, max_macros, thr, kernel="python", **kwargs)
    for name in OUTPUTS:
        assert_same_bits(c[name], py[name])
    return py


@pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")
class TestCompiledKernel:
    def test_dispatcher_runs_compiled_kernel(self):
        compiled_lib()
        assert _kernels.hsle_kernel() == "c"

    @pytest.mark.parametrize("kappa", [3.0, 6.0, 7.5])
    def test_bytes_equal_on_random_rows(self, kappa):
        out = assert_kernels_agree(kappa, make_rows(200), 200, THR)
        assert len(set(out["status"].tolist())) >= 3

    @pytest.mark.parametrize("kappa", [3.0, 6.0, 7.5])
    def test_bytes_equal_beyond_table_top(self, kappa):
        # a passive gap of 1e-9 puts u = -log(1 - R) above the drift-factor
        # table's u_max (18.4), where the kernels read its last value
        rows = make_rows(40)
        rows[:, 2] = rows[:, 1] + 1e-9
        assert_kernels_agree(kappa, rows, 200, THR)

    @pytest.mark.parametrize("row", [
        (1.0, 1.0, 2.0, 3.0), (3.0 - TWO_PI, 1.0, 2.0, 3.0),
        (0.5, 1.0, 1.0, 3.0), (0.5, 1.0, 2.0, 2.0)])
    def test_bytes_equal_on_entry_rule_rows(self, row):
        rows = np.array([row, (0.0, 1.0, 2.0, 3.0)])
        out = assert_kernels_agree(6.0, rows, 50, [10, 20])
        assert out["death_units"][0] == 0

    def test_bytes_equal_with_reinjections_and_pinches(self, monkeypatch):
        # first curves of the estimator's stage A at its bmax, grown to
        # capacity 3: the run reaches target-side returns and status-3
        # pinches, shown by the Python kernel's decision draws (counters
        # 2 mod 4) and the stop codes
        kappa, bmax = 6.0, 262144
        p_ret = (0.01 / 0.1) ** ((8.0 - kappa) / kappa)
        draws = []
        uniform = _rng.uniform

        def counted(stream, i):
            u = uniform(stream, i)
            if i % 4 == 2:
                draws.append(u)
            return u

        monkeypatch.setattr(_rng, "uniform", counted)
        rows = np.tile(mc._fresh_tuple(SYM_CFG, 1), (40, 1))
        out = assert_kernels_agree(kappa, rows, 3000,
                                   np.arange(250, 3001, 250), bmax=bmax,
                                   seed=3)
        assert any(u < p_ret for u in draws)      # a target-side return
        assert (out["status"] == 3).any()         # a pinch
        assert (out["status"] == 0).any()

    @pytest.mark.parametrize("row, exc", [
        # the half gap underflows to 0: -cos/sin divides by zero
        ((0.0, 5e-324, 2.0, 4.0), ZeroDivisionError),
        # the half of a 5e-324 passive gap underflows: log(sin(0))
        ((0.0, 5e-324, 1e-323, 4.0), ValueError),
        # NaN gap: int(nan) for the substep's unit count
        ((0.0, 1.0, 2.0, float("nan")), ValueError),
    ])
    def test_same_exception_on_degenerate_rows(self, row, exc):
        rows = np.array([(0.0, 1.0, 2.0, 3.0), row])
        for kernel in ("c", "python"):
            with pytest.raises(exc) as info:
                run(6.0, rows, 0, 20, [10], kernel=kernel)
            assert type(info.value) is exc

    def test_infinite_row_stops_at_entry_in_both(self):
        rows = np.array([(0.0, 1.0, 2.0, math.inf)])
        for kernel in ("c", "python"):
            out = run(6.0, rows, 0, 20, [10], kernel=kernel)
            assert out["status"].tolist() == [1]
            assert out["death_units"].tolist() == [0]


# ---------------------------------------------------------------------------
# the compiled backward flow against the numpy flow
# ---------------------------------------------------------------------------

# numpy's SIMD complex multiply rounds each part once, as a fused
# multiply-add; the real part of this product is ...c21p-4 fused and
# ...c22p-4 with two roundings
CANARY = (complex(-0.1321048632913019, -0.258572545473924),
          complex(-1.0298044380114637, -0.050604063111342405))
NUMPY_FUSES = (np.array([CANARY[0]]) * np.array([CANARY[1]])).real[0] \
    == float.fromhex("0x1.f7a2212534c21p-4")
needs_fused_numpy = pytest.mark.skipif(
    not NUMPY_FUSES, reason="numpy's complex multiply is not fused here, so "
    "the numpy flow rounds differently from the compiled one")


def record_flow_calls(monkeypatch, estimate, kappa, **kwargs):
    """Copies of the (drivers, lengths, du, y) of every backward_flow call
    of one estimator run."""
    calls = []
    flow = _kernels.backward_flow

    def recorded(drivers, lengths, du, y):
        calls.append((drivers.copy(), lengths.copy(), du, y.copy()))
        flow(drivers, lengths, du, y)

    monkeypatch.setattr(_kernels, "backward_flow", recorded)
    estimate(KappaContext(kappa), SYM_CFG, [0.2, 0.1, 0.05], dt=DT,
             **kwargs)
    monkeypatch.undo()
    assert calls
    return calls


def flows(drivers, lengths, du, y):
    """Outputs of the compiled flow (through the dispatcher) and of the
    numpy flow on copies of ``y``."""
    compiled_lib()
    c, py = y.copy(), y.copy()
    _kernels.backward_flow(drivers, lengths, du, c)
    _kernels._backward_flow_np(drivers, lengths, du, py)
    return c, py


# a 400-step walk, the reverse of its first 250 steps and one step
FLOW_DRIVERS = np.zeros((3, 400))
FLOW_DRIVERS[0] = 0.08 * np.cumsum(np.sin(1.7 * np.arange(400)))
FLOW_DRIVERS[1, :250] = FLOW_DRIVERS[0, ::-1][:250]
FLOW_DRIVERS[2, 0] = -1.0
FLOW_LENGTHS = np.array([400, 250, 1], dtype=np.int64)
FLOW_Y = np.array([0.9 * np.exp(0.3j), 0.5 - 0.2j, 0.999 * np.exp(-1j)])
FLOW_PINNED = [("0x1.33e665a2fca56p-8", "0x1.ec2bb6cc11569p-13"),
               ("0x1.49d11a80ce747p-6", "-0x1.00b6abe4b7448p-9"),
               ("0x1.c4e6f3e8faeeep-2", "-0x1.60ad39a26b3a7p-1")]


@pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")
class TestCompiledBackwardFlow:
    def test_pinned_outputs(self):
        y = FLOW_Y.copy()
        compiled_lib()
        _kernels.backward_flow(FLOW_DRIVERS, FLOW_LENGTHS, 0.01, y)
        assert [(v.real.hex(), v.imag.hex()) for v in y] == FLOW_PINNED

    @needs_fused_numpy
    @pytest.mark.parametrize("kappa, estimate, kwargs", [
        (3.0, mc.estimate_two_curve_hit, dict(n_paths=120, seed=4)),
        (6.0, mc.estimate_two_curve_hit, dict(n_paths=100, seed=1)),
        (7.5, mc.estimate_intersection_hit,
         dict(n_paths=20, seed=3, path_start=380)),
    ])
    def test_bytes_equal_on_recorded_probes(self, monkeypatch, kappa,
                                            estimate, kwargs):
        calls = record_flow_calls(monkeypatch, estimate, kappa,
                                  bmax=32768, **kwargs)
        rows = 0
        for drivers, lengths, du, y in calls:
            c, py = flows(drivers, lengths, du, y)
            assert_same_bits(c, py)
            rows += lengths.size
        assert rows >= 50

    @needs_fused_numpy
    def test_bytes_equal_on_degenerate_and_ragged_rows(self):
        drivers = np.tile(FLOW_DRIVERS[0, :60], (7, 1))
        lengths = np.array([60, 60, 60, 60, 37, 0, 1], dtype=np.int64)
        y = np.array([0.0, complex(-0.0, -0.0), np.exp(1j * drivers[2, 59]),
                      0.3 + 0.4j, 0.7j, 0.2, -0.999])
        c, py = flows(drivers, lengths, 0.01, y)
        assert_same_bits(c, py)
        # the origin is fixed (every step is non-finite and leaves the
        # point unchanged, either sign of zero); a row of length 0 takes no
        # step
        assert_same_bits(c[[0, 1, 5]], y[[0, 1, 5]])
        assert np.all(c[[3, 4, 6]] != y[[3, 4, 6]])

    @needs_fused_numpy
    def test_bytes_equal_on_pinned_rows(self):
        c, py = flows(FLOW_DRIVERS, FLOW_LENGTHS, 0.01, FLOW_Y)
        assert_same_bits(c, py)

    def test_builds_without_warnings(self, tmp_path):
        # the grown C file stays clean under the strictest common warnings
        out = tmp_path / "hsle.so"
        proc = subprocess.run(
            ["cc", *_kernels._CFLAGS, "-Wall", "-Wextra", "-Werror", "-o",
             str(out), _kernels._HSLE_SOURCE, "-lm"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


def test_build_flags_keep_roundings_separate():
    # the compiled kernels' bits assume no contraction beyond their explicit
    # fma() calls; on x86-64, whose baseline has no FMA instruction,
    # -ffp-contract=fast builds the same machine code, so the byte tests
    # above cannot see it, but an FMA target (aarch64, -march=native) fuses
    flags = _kernels._CFLAGS
    assert "-ffp-contract=off" in flags
    assert not [f for f in flags if f.startswith(("-march", "-mfma", "-mcpu",
                                                  "-ffast-math", "-Ofast"))]


class TestWithoutCompiler:
    @needs_fused_numpy
    def test_numpy_flow_runs_after_one_warning(self, tmp_path):
        # with no cc on PATH, both kernels fall back after one warning and
        # the numpy flow writes the compiled flow's bytes
        np.save(tmp_path / "drivers.npy", FLOW_DRIVERS)
        np.save(tmp_path / "lengths.npy", FLOW_LENGTHS)
        np.save(tmp_path / "y.npy", FLOW_Y)
        code = (
            "import sys, numpy as np, twocurve._kernels as k\n"
            "d, l, y = (np.load(sys.argv[1] + f'/{n}.npy')\n"
            "           for n in ('drivers', 'lengths', 'y'))\n"
            "k.backward_flow(d, l, 0.01, y)\n"
            "k.backward_flow(d, l, 0.01, y.copy())\n"
            "print(k.hsle_kernel())\n"
            "for v in y: print(v.real.hex(), v.imag.hex())\n")
        src = os.path.dirname(os.path.dirname(_kernels.__file__))
        env = dict(os.environ, PATH=str(tmp_path), PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                             check=True, capture_output=True, text=True,
                             timeout=120, env=env)
        lines = out.stdout.split("\n")
        assert lines[0] == "python"
        assert [tuple(line.split()) for line in lines[1:4]] == FLOW_PINNED
        assert out.stderr.count("no C compiler") == 1


class TestDispatcherArguments:
    @pytest.mark.parametrize("name, bad", [
        ("state", lambda a: np.asfortranarray(a)),
        ("state", lambda a: a[:, :3].copy()),
        ("streams", lambda a: a.astype(np.int64)),
        ("thr_macros", lambda a: a.astype(np.int32)),
        ("snap", lambda a: a[:, :1].copy()),
        ("status", lambda a: a.astype(np.int64)),
        ("death_units", lambda a: a[:-1].copy()),
    ])
    def test_rejects_bad_arrays(self, name, bad):
        umax, gt_vals, gt_du = mc._gt_table(KappaContext(6.0))
        n, thr = 3, np.array([5, 10], dtype=np.int64)
        args = dict(
            state=make_rows(n), streams=np.arange(n, dtype=np.uint64),
            thr_macros=thr, snap=np.zeros((n, 2, 4)),
            reached=np.zeros((n, 2), dtype=np.uint8),
            status=np.zeros(n, dtype=np.uint8),
            death_units=np.full(n, -1, dtype=np.int64))
        args[name] = bad(args[name])
        with pytest.raises(ValueError, match=name):
            _kernels.hsle_evolve_adaptive(
                args["state"], args["streams"], 0, 10, 6.0, DT,
                args["thr_macros"], gt_vals, gt_du, umax, args["snap"],
                args["reached"], args["status"], args["death_units"])

    @pytest.mark.parametrize("name, bad", [
        ("drivers", lambda a: np.asfortranarray(a)),
        ("drivers", lambda a: a.astype(np.float32)),
        ("drivers", lambda a: a[0].copy()),
        ("lengths", lambda a: a.astype(np.int32)),
        ("lengths", lambda a: a[:-1].copy()),
        ("lengths", lambda a: a.tolist()),
        ("y", lambda a: a.astype(np.complex64)),
        ("y", lambda a: np.repeat(a, 2)[::2]),
        ("y", lambda a: np.broadcast_to(a, a.shape)),
    ])
    def test_backward_flow_rejects_bad_arrays(self, name, bad):
        args = dict(drivers=np.zeros((4, 5)),
                    lengths=np.full(4, 5, dtype=np.int64),
                    y=np.full(4, 0.5 + 0.1j))
        args[name] = bad(args[name])
        with pytest.raises(ValueError, match=name):
            _kernels.backward_flow(args["drivers"], args["lengths"], 1e-3,
                                   args["y"])

    def test_import_compiles_nothing(self):
        # the library is built by the first kernel call, not at import
        code = ("import twocurve.cli, twocurve._kernels as k; "
                "print(k._hsle_lib.cache_info().currsize)")
        src = os.path.dirname(os.path.dirname(_kernels.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=120,
                             env=env)
        assert out.stdout.split() == ["0"]
