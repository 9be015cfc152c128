"""Tests of the adaptive hSLE kernel called directly.

The kernel's outputs are frozen bit for bit (see the note above
``_hsle_evolve_adaptive_np``), so besides its structural contract --
batch and macro-boundary invariance, consistent stop codes, prefix
snapshots -- every output bit is compared with a plain per-path loop
kept here as the reference, and the stop codes of two fixed inputs with
recorded values.  A small ``bmax`` keeps every run short.  The dispatcher
runs the compiled kernel where ``cc`` exists; ``TestCompiledKernel``
compares its bytes and exceptions with the Python kernel's,
``TestCompiledBackwardFlow`` the compiled backward flow's bytes with the
numpy flow's, and ``TestCompiledZEvolve`` the compiled two-angle
evolution's bytes with the numpy one's.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading

import numpy as np
import pytest

from twocurve import _kernels, _rng, cli, montecarlo as mc, special
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
            state, streams, start_macro, max_macros, kappa, DT, thr, snap,
            reached, status, death, bmax=bmax)
    else:
        args = (state, streams, start_macro, max_macros, kappa, DT, thr,
                bmax, snap, reached, status, death)
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
        umax, gt_vals, gt_du = special.gtilde_table(kappa)
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

    @pytest.mark.parametrize("first, second", [
        (ValueError, ZeroDivisionError), (ZeroDivisionError, ValueError)])
    def test_split_call_raises_at_the_lowest_failing_row(self, monkeypatch,
                                                         first, second):
        # degenerate rows in the second and fourth span of a call split
        # over two threads: the error is the one of the lower row, with
        # the Python kernel's type and message and the absolute row
        degenerate = {ZeroDivisionError: (0.0, 5e-324, 2.0, 4.0),
                      ValueError: (0.0, 5e-324, 1e-323, 4.0)}
        block = _kernels._ROW_BLOCK
        rows = make_rows(4 * block)
        low, high = block + 5, 3 * block + 10
        rows[low], rows[high] = degenerate[first], degenerate[second]
        with pytest.raises(first) as py:
            run(6.0, rows, 0, 20, [10], kernel="python")
        monkeypatch.setattr(_kernels, "_n_workers", lambda: 2)
        with pytest.raises(first) as c:
            run(6.0, rows, 0, 20, [10])
        assert type(c.value) is type(py.value) is first
        assert str(c.value) == (f"{py.value} (adaptive hSLE kernel, "
                                f"row {low})")

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
        monkeypatch.setitem(mc._SAMPLER, "bmax", 32768)
        calls = record_flow_calls(monkeypatch, estimate, kappa, **kwargs)
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


@pytest.mark.parametrize("flow", [
    pytest.param("compiled", marks=pytest.mark.skipif(
        not HAS_CC, reason="no C compiler on PATH")),
    "numpy"])
def test_flow_never_reads_past_a_row_length(flow):
    # montecarlo._batched_pullback leaves whatever follows a row's length
    # in its probe matrix, so NaN there must give the bytes that 0.0 gives
    if flow == "compiled":
        compiled_lib()
        run_flow = _kernels.backward_flow
    else:
        run_flow = _kernels._backward_flow_np
    past = np.arange(FLOW_DRIVERS.shape[1]) >= FLOW_LENGTHS[:, None]
    out = []
    for pad in (0.0, np.nan):
        y = FLOW_Y.copy()
        run_flow(np.where(past, pad, FLOW_DRIVERS), FLOW_LENGTHS, 0.01, y)
        out.append(y)
    assert_same_bits(*out)
    assert np.all(np.isfinite(out[1]))


Z_OUTPUTS =("z1", "z2", "alive", "absorb_step", "rec_z1", "rec_z2")


def z_run(fn, kappa, z0, dt, start_step, n_steps, rec, seed=5,
          alive=None, state=None):
    """Outputs of ``fn`` (``z_evolve`` or ``_z_evolve_np``) evolving the
    paths from the angle arrays ``z0`` or from the outputs ``state`` of an
    earlier run; ``alive`` marks the paths alive at entry."""
    if state is None:
        n = z0[0].size
        state = dict(z1=z0[0], z2=z0[1],
                     alive=np.ones(n, dtype=bool) if alive is None else alive,
                     absorb_step=np.full(n, -1, dtype=np.int64))
    out = {k: np.array(state[k]) for k in Z_OUTPUTS[:4]}
    n = out["z1"].size
    rec_steps = np.array(rec, dtype=np.int64)
    out["rec_z1"] = np.full((rec_steps.size, n), np.nan)
    out["rec_z2"] = np.full((rec_steps.size, n), np.nan)
    streams = _rng.derive_stream_array(seed, np.arange(n))
    fn(out["z1"], out["z2"], out["alive"], out["absorb_step"], streams,
       start_step, n_steps, kappa, dt, rec_steps, out["rec_z1"],
       out["rec_z2"])
    return out


def assert_z_kernels_agree(kappa, z0, dt, n_steps, rec, **kwargs):
    """Run the compiled evolution (through the dispatcher) and the numpy
    one from step 0 and compare every output's bytes."""
    compiled_lib()
    c = z_run(_kernels.z_evolve, kappa, z0, dt, 0, n_steps, rec, **kwargs)
    py = z_run(_kernels._z_evolve_np, kappa, z0, dt, 0, n_steps, rec,
               **kwargs)
    for name in Z_OUTPUTS:
        assert_same_bits(c[name], py[name])
    return c


Z_STARTS = tuple(np.random.default_rng(3).uniform(0.05, math.pi - 0.05,
                                                   size=(2, 300)))


def starts(n, z1, z2):
    """``n`` paths from the one start (z1, z2)."""
    return np.full(n, float(z1)), np.full(n, float(z2))


@pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")
class TestCompiledZEvolve:
    """The compiled two-angle evolution against ``_z_evolve_np``, byte for
    byte; ``tests/test_timecurve.py::TestZEvolvePin`` pins both."""

    @pytest.mark.parametrize("kappa", [3.0, 6.0, 7.5])
    def test_bytes_equal_across_block_edges(self, kappa):
        # 300 paths make ten spans of _ROW_BLOCK rows, the last one short;
        # snapshots at the first and the last step, at two neighbouring
        # steps, and twice at one step
        c = assert_z_kernels_agree(kappa, Z_STARTS, 1e-3, 700,
                                   [1, 436, 436, 437, 700])
        assert_same_bits(c["rec_z1"][1], c["rec_z1"][2])
        assert c["alive"].all()

    def test_bytes_equal_when_absorbing_near_the_corner(self):
        c = assert_z_kernels_agree(6.0, starts(3000, 0.12, 0.12), 0.1, 40,
                                   [1, 2, 40])
        dead = ~c["alive"]
        assert 0 < dead.sum() < 3000
        # absorbed paths sit on the boundary from their absorption step on
        assert np.all((c["z1"][dead] == 0.0) | (c["z1"][dead] == math.pi)
                      | (c["z2"][dead] == 0.0) | (c["z2"][dead] == math.pi))

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_length_does_not_move_bits(self, monkeypatch, block):
        # spans of 1 or 7 paths, split off the grid of _ROW_BLOCK, write
        # the bytes of the call on _ROW_BLOCK spans, in runs where paths
        # die inside the call and where whole spans, or parts of one, are
        # dead at entry
        compiled_lib()
        ids = np.arange(300)
        runs = [(starts(300, 0.12, 0.12), 0.1, 40, [1, 2, 40], None)]
        runs += [(Z_STARTS, 1e-3, 20, [1, 20], alive)
                 for alive in ((ids // 7) % 2 == 1, ids % 7 < 3)]
        whole = [z_run(_kernels.z_evolve, 6.0, z0, dt, 0, n_steps, rec,
                       alive=alive) for z0, dt, n_steps, rec, alive in runs]
        assert 0 < np.count_nonzero(~whole[0]["alive"]) < 300
        monkeypatch.setattr(_kernels, "_ROW_BLOCK", block)
        for (z0, dt, n_steps, rec, alive), want in zip(runs, whole):
            got = z_run(_kernels.z_evolve, 6.0, z0, dt, 0, n_steps, rec,
                        alive=alive)
            for name in Z_OUTPUTS:
                assert_same_bits(got[name], want[name])
            if alive is not None:
                assert_same_bits(got["z1"][~alive], Z_STARTS[0][~alive])
                assert_same_bits(got["rec_z1"][0][~alive],
                                 Z_STARTS[0][~alive])

    @pytest.mark.parametrize("block", [1, 7])
    def test_path_spans_do_not_move_bits(self, monkeypatch, block):
        # spans of 1 or 7 paths on 1 and on 2 workers: every output, dead
        # paths' snapshots included, is the numpy evolution's at either
        # worker count
        monkeypatch.setattr(_kernels, "_ROW_BLOCK", block)
        for workers in (1, 2):
            monkeypatch.setattr(_kernels, "_n_workers",
                                lambda w=workers: w)
            c = assert_z_kernels_agree(6.0, starts(300, 0.12, 0.12), 0.1,
                                       40, [1, 2, 40])
            assert 0 < np.count_nonzero(~c["alive"]) < 300
            assert_z_kernels_agree(6.0, Z_STARTS, 1e-3, 20, [1, 20],
                                   alive=np.arange(300) % 7 < 3)

    def test_split_at_a_step_reproduces_the_whole_run(self):
        compiled_lib()
        z0 = starts(300, 0.12, 0.12)
        whole = z_run(_kernels.z_evolve, 6.0, z0, 0.1, 0, 30, [12, 30])
        first = z_run(_kernels.z_evolve, 6.0, z0, 0.1, 0, 12, [12])
        second = z_run(_kernels.z_evolve, 6.0, None, 0.1, 12, 18, [30],
                       state=first)
        second_np = z_run(_kernels._z_evolve_np, 6.0, None, 0.1, 12, 18,
                          [30], state=first)
        for name in Z_OUTPUTS:
            assert_same_bits(second[name], second_np[name])
        for name in Z_OUTPUTS[:4]:
            assert_same_bits(second[name], whole[name])
        assert_same_bits(first["rec_z1"][0], whole["rec_z1"][0])
        assert_same_bits(second["rec_z2"][0], whole["rec_z2"][1])
        steps = whole["absorb_step"]
        assert np.any((steps > 0) & (steps <= 12)) and np.any(steps > 12)

    def test_paths_dead_at_entry_are_snapshotted_unchanged(self):
        dead = np.zeros(300, dtype=bool)
        c = assert_z_kernels_agree(6.0, Z_STARTS, 1e-3, 20, [1, 20],
                                   alive=dead)
        for rec in (c["rec_z1"], c["rec_z2"]):
            assert_same_bits(rec[0], rec[1])
        assert_same_bits(c["z1"], Z_STARTS[0])
        assert (c["absorb_step"] == -1).all()
        some = np.arange(300) % 3 > 0
        c = assert_z_kernels_agree(6.0, Z_STARTS, 1e-3, 20, [20], alive=some)
        assert_same_bits(c["z1"][~some], Z_STARTS[0][~some])
        assert_same_bits(c["rec_z1"][0], c["z1"])


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
        # with no cc on PATH, all kernels fall back after one warning and
        # the numpy flow writes the compiled flow's bytes; 66 rows, three
        # spans of a compiled call, start no pool and no thread
        np.save(tmp_path / "drivers.npy", FLOW_DRIVERS)
        np.save(tmp_path / "lengths.npy", FLOW_LENGTHS)
        np.save(tmp_path / "y.npy", FLOW_Y)
        code = (
            "import sys, threading, numpy as np, twocurve._kernels as k\n"
            "d, l, y = (np.load(sys.argv[1] + f'/{n}.npy')\n"
            "           for n in ('drivers', 'lengths', 'y'))\n"
            "k.backward_flow(d, l, 0.01, y)\n"
            "k.backward_flow(d, l, 0.01, y.copy())\n"
            "k.backward_flow(np.tile(d, (22, 1)), np.tile(l, 22), 0.01,\n"
            "                np.tile(y, 22))\n"
            "print(k.hsle_kernel())\n"
            "for v in y: print(v.real.hex(), v.imag.hex())\n"
            "print(k._pool.cache_info().currsize, threading.active_count())\n")
        src = os.path.dirname(os.path.dirname(_kernels.__file__))
        env = dict(os.environ, PATH=str(tmp_path), PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                             check=True, capture_output=True, text=True,
                             timeout=120, env=env)
        lines = out.stdout.split("\n")
        assert lines[0] == "python"
        assert [tuple(line.split()) for line in lines[1:4]] == FLOW_PINNED
        assert lines[4].split() == ["0", "1"]
        assert out.stderr.count("no C compiler") == 1

    def test_numpy_z_evolve_runs_after_one_warning(self, tmp_path):
        # with no cc on PATH, z_evolve runs _z_evolve_np after the one
        # warning, and the k6 case of TestZEvolvePin, split after step 100,
        # writes its pinned bytes; its 64 paths, two spans of a compiled
        # call, start no pool and no thread
        code = (
            "import hashlib, threading, numpy as np, twocurve._kernels as k\n"
            "from twocurve import _rng\n"
            "n = 64\n"
            "streams = _rng.derive_stream_array(41, np.arange(n))\n"
            "z1, z2 = np.full(n, 1.2), np.full(n, 1.9)\n"
            "alive = np.ones(n, dtype=bool)\n"
            "absorb = np.full(n, -1, dtype=np.int64)\n"
            "rec = np.array([100, 300], dtype=np.int64)\n"
            "r1, r2 = np.empty((2, n)), np.empty((2, n))\n"
            "k.z_evolve(z1, z2, alive, absorb, streams, 0, 100, 6.0, 1e-3,\n"
            "           rec[:1], r1[:1], r2[:1])\n"
            "k.z_evolve(z1, z2, alive, absorb, streams, 100, 200, 6.0,\n"
            "           1e-3, rec[1:], r1[1:], r2[1:])\n"
            "print(k.hsle_kernel())\n"
            "h = hashlib.sha256()\n"
            "for a in (z1, z2, absorb, r1, r2):\n"
            "    h.update(a.tobytes())\n"
            "print(h.hexdigest())\n"
            "print(k._pool.cache_info().currsize, threading.active_count(),\n"
            "      k.kernel_workers())\n")
        src = os.path.dirname(os.path.dirname(_kernels.__file__))
        env = dict(os.environ, PATH=str(tmp_path), PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=120,
                             env=env)
        assert out.stdout.split() == [
            "python", "13c4e5b20ffdb50c27a1d8cb6d240bd8"
                      "7269fd12950f4c9789266543b608053c", "0", "1", "1"]
        warning, = out.stderr.splitlines()
        assert "no C compiler" in warning
        assert "two-angle diffusion" in warning


class TestRunSpans:
    """The one helper that splits the compiled calls into row spans."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_spans_depend_on_the_row_count_only(self, monkeypatch,
                                                workers):
        monkeypatch.setattr(_kernels, "_n_workers",
                                lambda w=workers: w)
        block = _kernels._ROW_BLOCK
        for n, last in ((0, (0, 0)), (1, (0, 1)), (block, (0, block)),
                        (3 * block + 1, (3 * block, 3 * block + 1))):
            spans = _kernels._run_spans(lambda lo, hi: (lo, hi), n)
            assert spans[-1] == last
            assert spans == [(lo, min(lo + block, n))
                             for lo in range(0, max(n, 1), block)]

    def test_single_span_runs_inline(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_n_workers", lambda: 2)
        threads = _kernels._run_spans(
            lambda lo, hi: threading.current_thread(), _kernels._ROW_BLOCK)
        assert threads == [threading.current_thread()]

    def test_every_span_runs_once_under_contention(self, monkeypatch):
        # more workers than cores and a short switch interval: the shared
        # queue must hand out each span exactly once, and the results land
        # in span order
        monkeypatch.setattr(_kernels, "_n_workers", lambda: 4)
        ran, results = [], []

        def fn(lo, hi):
            ran.append(lo)
            return lo, hi

        def many():
            for _ in range(50):
                del ran[:]
                results.append(_kernels._run_spans(fn, 997))
                results.append(sorted(ran))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=many)
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        block = _kernels._ROW_BLOCK
        spans = [(lo, min(lo + block, 997)) for lo in range(0, 997, block)]
        assert results == [spans, [lo for lo, _ in spans]] * 50

    def test_exception_of_a_span_propagates(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_n_workers", lambda: 2)

        def fn(lo, hi):
            if lo == _kernels._ROW_BLOCK:
                raise KeyError(lo)
            return lo

        with pytest.raises(KeyError):
            _kernels._run_spans(fn, 4 * _kernels._ROW_BLOCK)


def read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


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
                args["thr_macros"], args["snap"], args["reached"],
                args["status"], args["death_units"], BMAX)

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

    @pytest.mark.parametrize("name, bad", [
        ("rec_z1", lambda a: np.asfortranarray(a)),
        ("z1", lambda a: np.repeat(a, 2)[::2]),
        ("z2", lambda a: a.astype(np.float32)),
        ("alive", lambda a: a.astype(np.uint8)),
        ("absorb_step", lambda a: a.astype(np.int32)),
        ("streams", lambda a: a.astype(np.int64)),
        ("rec_steps", lambda a: a.astype(np.int32)),
        ("z2", lambda a: a[:-1].copy()),
        ("streams", lambda a: a[:-1].copy()),
        ("rec_z2", lambda a: a[:, :-1].copy()),
        ("rec_z1", lambda a: a[:1].copy()),
        ("z2", lambda a: read_only(a)),
        ("alive", lambda a: read_only(a)),
        ("absorb_step", lambda a: read_only(a)),
        ("rec_z2", lambda a: read_only(a)),
        ("rec_steps", lambda a: a[::-1].copy()),
        ("rec_steps", lambda a: a - 1),
        ("rec_steps", lambda a: a + 1),
    ])
    def test_z_evolve_rejects_bad_arrays(self, name, bad):
        # 3 paths, 4 steps from step 2, snapshots after steps 3 and 6
        n = 3
        args = dict(z1=np.full(n, 1.0), z2=np.full(n, 2.0),
                    alive=np.ones(n, dtype=bool),
                    absorb_step=np.full(n, -1, dtype=np.int64),
                    streams=np.arange(n, dtype=np.uint64),
                    rec_steps=np.array([3, 6], dtype=np.int64),
                    rec_z1=np.zeros((2, n)), rec_z2=np.zeros((2, n)))
        args[name] = bad(args[name])
        with pytest.raises(ValueError, match=name):
            _kernels.z_evolve(args["z1"], args["z2"], args["alive"],
                              args["absorb_step"], args["streams"], 2, 4,
                              6.0, DT, args["rec_steps"], args["rec_z1"],
                              args["rec_z2"])

    @pytest.mark.parametrize("start, n_steps", [(-1, 2), (0, -1)])
    def test_z_evolve_rejects_negative_steps(self, start, n_steps):
        with pytest.raises(ValueError, match="start_step"):
            _kernels.z_evolve(np.ones(1), np.ones(1), np.ones(1, dtype=bool),
                              np.full(1, -1, dtype=np.int64),
                              np.zeros(1, dtype=np.uint64), start, n_steps,
                              6.0, DT, np.zeros(0, dtype=np.int64),
                              np.zeros((0, 1)), np.zeros((0, 1)))

    def test_import_compiles_nothing(self):
        # the library is built by the first kernel call, not at import,
        # and importing starts no thread
        code = ("import threading, twocurve.cli, twocurve._kernels as k; "
                "print(k._hsle_lib.cache_info().currsize, "
                "k._pool.cache_info().currsize, threading.active_count())")
        src = os.path.dirname(os.path.dirname(_kernels.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=120,
                             env=env)
        assert out.stdout.split() == ["0", "0", "1"]
