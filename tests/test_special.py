"""Tests for the hypergeometric/Jacobi special-function layer and the
Gauss-Jacobi rule built on it.

Reference values were computed independently with mpmath (40-digit
arithmetic) and are frozen here, or, for F and F' next to every Taylor
centre boundary up to the table's end at the last double below 1, in
``data/hyp2f1_mpmath40.json``.  The connection coefficient B of F at
x = 1, which only the ``check`` battery's value-at-one oracle uses, is
pinned here too.  scipy is the independent oracle of the Jacobi
polynomials (``eval_jacobi``) and of the Gauss-Jacobi nodes and weights
(``roots_jacobi``); the package itself imports no scipy.
"""
import hashlib
import json
import math
import pathlib
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_jacobi, roots_jacobi

from twocurve import KappaContext
from twocurve.checks import _connection_B
from twocurve.quadrature import _gauss_jacobi, disc_rule
from twocurve.special import (
    _GATHER_BYTES, _GT_TABLE_N, _GT_TABLE_XMAX, _horner, _series_F_and_dF,
    _taylor_table, gtilde_table, h_const, hyp_dF, hyp_F, hyp_F_and_dF,
    hyp_F_at_1, hyp_G, hyp_tilde_G, log_gamma,
)

from references import jacobi, jacobi_sup_norm, series_F_and_dF

# mpmath hyp2f1(4/k, 1-4/k, 8/k, x), 40 digits
F_TABLE = {
    (2, 0.1): 0.95, (2, 0.3): 0.85, (2, 0.5): 0.75,
    (2, 0.7): 0.65, (2, 0.9): 0.55, (2, 0.99): 0.505,
    (3, 0.1): 0.98296500873186719, (3, 0.3): 0.94636878402176561,
    (3, 0.5): 0.90543160890496118, (3, 0.7): 0.8581409534080016,
    (3, 0.9): 0.79967697169908938, (3, 0.99): 0.76523374987992214,
    (4, 0.1): 1.0, (4, 0.3): 1.0, (4, 0.5): 1.0,
    (4, 0.7): 1.0, (4, 0.9): 1.0, (4, 0.99): 1.0,
    (6, 0.1): 1.0175134692393876, (6, 0.3): 1.0588427864528826,
    (6, 0.5): 1.1129126745223054, (6, 0.7): 1.1913613386143153,
    (6, 0.9): 1.3406163291240483, (6, 0.99): 1.5560386698318517,
    (7.5, 0.1): 1.0246961569150973, (7.5, 0.3): 1.084448456311806,
    (7.5, 0.5): 1.1660522537514294, (7.5, 0.7): 1.2925460773144268,
    (7.5, 0.9): 1.5690582733164427, (7.5, 0.99): 2.128457009254341,
}

F_AT_1 = {2: 0.5, 3: 0.76051489553302859, 4: 1.0,
          6: 1.76663875028545, 7.5: 5.6428020336243076}

GTILDE_TABLE = {
    (3, 1e-6): 1.9999994999997045, (3, 0.25): 1.8528652132400488,
    (3, 0.5): 1.6383810678557135, (3, 0.9): 0.8539182490797764,
    (3, 0.999): 0.059764598316434208,
    (6, 1e-6): 2.0000010000007857, (6, 0.25): 2.3128141472403003,
    (6, 0.5): 2.8526965112506394, (6, 0.9): 6.9245595966230975,
    (6, 0.999): 119.96319622581628,
    (7.5, 1e-6): 2.000001750001496, (7.5, 0.25): 2.5590003847543218,
    (7.5, 0.5): 3.575051085974693, (7.5, 0.9): 12.824882662501078,
    (7.5, 0.999): 574.70049404894131,
}

KAPPAS = [2.0, 3.0, 4.0, 6.0, 7.5]


def ode_residual_grid(ctx, n_grid=200, x_max=0.99):
    """Max absolute ODE residual on a grid, 4th-order central differences.

    The FD step shrinks toward x = 1 where higher derivatives grow.
    """
    a, b, c = ctx.hyp_a, ctx.hyp_b, ctx.hyp_c
    xs = np.linspace(0.0, x_max, n_grid)
    res = np.empty_like(xs)
    for i, x in enumerate(xs):
        h = float(np.clip(0.0067 * (1.0 - x), 4e-5, 1.5e-3))
        pts = x + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        f = hyp_F(ctx, pts)
        d1 = (-f[4] + 8.0 * f[3] - 8.0 * f[1] + f[0]) / (12.0 * h)
        d2 = (-f[4] + 16.0 * f[3] - 30.0 * f[2] + 16.0 * f[1] - f[0]) / (12.0 * h * h)
        res[i] = x * (1.0 - x) * d2 + (c - 2.0 * x) * d1 - a * b * f[2]
    return float(np.max(np.abs(res)))


# mpmath loggamma, 40 digits, rounded to the nearest double
LOG_GAMMA = {
    0.1: "0x1.2058e35f3deeep+1", 0.5: "0x1.250d048e7a1bdp-1", 1.0: "0x0.0p+0",
    1.5: "-0x1.eeb95b094c191p-4", 2.0: "0x0.0p+0", 2.5: "0x1.2383e809a67e8p-2",
    10.0 / 3.0: "0x1.0593eaddb4534p+0", 10.0: "0x1.99a8921a7f7cfp+3",
    40.5: "0x1.b1e46dca78c15p+6", 171.5: "0x1.6292532a8beaap+9",
}
# mpmath F(1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)), and the
# connection coefficient B = Gamma(c) Gamma(a+b-c) / (Gamma(a) Gamma(b)) of
# (1-x)^(c-a-b), at the double kappa
F_AT_1_EXACT = {
    2.0: "0x1.0000000000000p-1", 2.5: "0x1.460418e8c2a65p-1",
    3.0: "0x1.85623558ded46p-1", 4.0: "0x1.0000000000000p+0",
    6.0: "0x1.c4426fe852837p+0", 7.5: "0x1.6923ab240dff1p+2",
}
CONNECTION_B = {
    2.5: "0x1.9e3779b97f4a8p+0", 3.0: "-0x1.0000000000000p+0",
    6.0: "-0x1.0000000000000p+0", 7.5: "-0x1.3222ff85e6005p+2",
}


class TestLogGamma:
    def test_values(self):
        npt.assert_allclose(log_gamma(5.0), math.log(24.0), rtol=1e-14)
        xs = np.array(sorted(LOG_GAMMA))
        ref = np.array([float.fromhex(LOG_GAMMA[x]) for x in xs])
        # math.lgamma: a few ulp of max(1, |lgamma|) near its zeros at 1, 2
        npt.assert_allclose(log_gamma(xs), ref, rtol=2e-15, atol=1e-15)
        assert [log_gamma(x) for x in xs] == list(log_gamma(xs))

    def test_gamma_ratios_match_mpmath(self):
        for kappa, value in F_AT_1_EXACT.items():
            npt.assert_allclose(hyp_F_at_1(KappaContext(kappa)),
                                float.fromhex(value), rtol=2e-15)
        for kappa, b in CONNECTION_B.items():
            npt.assert_allclose(_connection_B(KappaContext(kappa))[0],
                                float.fromhex(b), rtol=2e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(np.array([1.0, -2.0]))


class TestHypF:
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_frozen_values(self, kappa):
        ctx = KappaContext(kappa)
        for (k, x), val in F_TABLE.items():
            if k == kappa:
                npt.assert_allclose(hyp_F(ctx, x), val, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_value_at_one(self, kappa):
        ctx = KappaContext(kappa)
        npt.assert_allclose(hyp_F(ctx, 1.0), F_AT_1[kappa], rtol=1e-10)
        npt.assert_allclose(hyp_F_at_1(ctx), F_AT_1[kappa], rtol=1e-10)

    def test_terminating_cases(self):
        # kappa=2: the series terminates, F(x) = 1 - x/2 exactly.
        ctx = KappaContext(2.0)
        xs = np.linspace(0.0, 1.0, 17)
        npt.assert_allclose(hyp_F(ctx, xs), 1.0 - xs / 2.0, rtol=0, atol=1e-15)
        # kappa=4: F is identically 1.
        ctx4 = KappaContext(4.0)
        npt.assert_allclose(hyp_F(ctx4, xs), np.ones_like(xs), rtol=0, atol=0)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_positive(self, kappa):
        ctx = KappaContext(kappa)
        xs = np.linspace(0.0, 1.0, 301)
        assert np.all(hyp_F(ctx, xs) > 0.0)

    def test_ode_residual_sample(self):
        # Full five-kappa battery runs in the acceptance suite.
        assert ode_residual_grid(KappaContext(6.0), n_grid=60) < 1e-7

    def test_branch_consistency(self):
        # Values on both sides of the switch from the power series to the
        # Taylor table (1/2) and of a centre boundary (1 - 2^-4) agree to
        # the local slope; direct cross-check at the switch point itself.
        for kappa in (3.0, 6.0, 7.5):
            ctx = KappaContext(kappa)
            for x0 in (0.5, 0.9375):
                f = hyp_F(ctx, np.array([x0 - 1e-7, x0, x0 + 1e-7]))
                d = hyp_dF(ctx, x0)
                npt.assert_allclose(f[2] - f[0], 2e-7 * d, rtol=1e-4, atol=1e-13)

    def test_domain(self):
        ctx = KappaContext(6.0)
        with pytest.raises(ValueError):
            hyp_F(ctx, 1.0 + 1e-12)
        with pytest.raises(ValueError):
            hyp_F(ctx, -0.51)

    @pytest.mark.parametrize("kappa", [2.0, 6.0])
    def test_nan_is_outside_the_domain(self, kappa):
        # kappa 2 terminates; NaN fails every comparison, so the range
        # test must ask for x inside [-1/2, 1], not for x outside it
        ctx = KappaContext(kappa)
        for f in (hyp_F, hyp_dF, hyp_G):
            for x in (np.nan, np.array([0.3, np.nan, 0.7, 0.999])):
                with pytest.raises(ValueError):
                    f(ctx, x)


# (F(x), F'(x)) as hex floats; the series values are those of the full
# 400-term sum, the others those of the Taylor table.
F_DF_BITS = {
    3.0: {-0.5: ("0x1.136e435776d57p+0", "-0x1.1d192a6658c29p-3"),
          -0.2: ("0x1.08328a21e8705p+0", "-0x1.3b69107907629p-3"),
          0.1: ("0x1.f747308b3b404p-1", "-0x1.64bd45784df9ep-3"),
          0.3: ("0x1.e48a7302a854bp-1", "-0x1.8a91c80f2a7fcp-3"),
          0.5: ("0x1.cf94bb5a05df9p-1", "-0x1.bf0a0213245e9p-3"),
          0.7: ("0x1.b75e40447dc2ep-1", "-0x1.0840010321ac1p-2"),
          0.995: ("0x1.869f141bd28c2p-1", "-0x1.e0e98692041e6p-2")},
    6.0: {-0.5: ("0x1.dd2486106c41dp-1", "0x1.ccdf4a420729ep-4"),
          -0.2: ("0x1.f0619987b8fdcp-1", "0x1.1e88f9dfc7698p-3"),
          0.1: ("0x1.047bc3419f678p+0", "0x1.7930c429f42cep-3"),
          0.3: ("0x1.0f1052236baf3p+0", "0x1.dcefe6313d1b3p-3"),
          0.5: ("0x1.1ce7d854608fap+0", "0x1.43eadaa93b8abp-2"),
          0.7: ("0x1.30fd0e8311383p+0", "0x1.fb29e8efaababp-2"),
          0.995: ("0x1.99216e8e1d4a0p+0", "0x1.5d7ec7d6124b7p+3")},
    7.5: {-0.5: ("0x1.d07cd663665b6p-1", "0x1.31fcd3a56142cp-3"),
          -0.2: ("0x1.ea663d1d46457p-1", "0x1.87830ce745587p-3"),
          0.1: ("0x1.06527cc24987bp+0", "0x1.0be0bb56afe40p-2"),
          0.3: ("0x1.159e69fe0e908p+0", "0x1.5f06b54df9d92p-2"),
          0.5: ("0x1.2a8266874a1bap+0", "0x1.f58313b71187cp-2"),
          0.7: ("0x1.4ae44cbaa3783p+0", "0x1.aa793ff3a73aap-1"),
          0.995: ("0x1.2485f43cfb0afp+1", "0x1.62f0223cc5880p+5")},
}
BIT_CTX = {k: KappaContext(k) for k in F_DF_BITS}
BRANCH_X = st.one_of(st.floats(-0.5, 0.5), st.floats(0.5, 0.99),
                     st.floats(0.99, 1.0),
                     st.floats(1.0 - 2.0 ** -30, 1.0, exclude_min=True))


def _hex(values):
    return [float(v).hex() for v in values]


def gather_limit(ctx):
    """The most points in (1/2, 1) whose coefficients ``_horner`` gathers
    in one ``np.take``."""
    return _GATHER_BYTES // _taylor_table(ctx)[2][:, :, 0].nbytes


class TestHypFBits:
    @pytest.mark.parametrize("kappa", sorted(F_DF_BITS))
    def test_pinned_bits(self, kappa):
        ctx = BIT_CTX[kappa]
        for x, (f_hex, df_hex) in F_DF_BITS[kappa].items():
            assert (hyp_F(ctx, x).hex(), hyp_dF(ctx, x).hex()) \
                == (f_hex, df_hex), x
        xs = np.array(sorted(F_DF_BITS[kappa]))
        f, df = hyp_F_and_dF(ctx, xs)
        assert _hex(f) == [F_DF_BITS[kappa][x][0] for x in xs]
        assert _hex(df) == [F_DF_BITS[kappa][x][1] for x in xs]

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(kappa=st.sampled_from(sorted(F_DF_BITS)),
           xs=st.lists(BRANCH_X, min_size=1, max_size=12),
           side=st.sampled_from([None, 0, 1]))
    def test_vector_matches_scalar(self, kappa, xs, side):
        # A point's value must not depend on the rest of its batch; with
        # side 0 or 1 the batch is padded to hold gather_limit + side
        # points in (1/2, 1), the most that _horner gathers at once and
        # one more, so its points run on either side of that limit.
        ctx = BIT_CTX[kappa]
        arr = np.array(xs)
        if side is not None:
            taylor = np.count_nonzero((arr > 0.5) & (arr < 1.0))
            pad = np.linspace(0.51, 0.99, gather_limit(ctx) + side - taylor)
            arr = np.concatenate([arr, pad])
        f, df = hyp_F_and_dF(ctx, arr)
        assert _hex(f[:len(xs)]) == _hex(hyp_F(ctx, x) for x in xs)
        assert _hex(df[:len(xs)]) == _hex(hyp_dF(ctx, x) for x in xs)
        assert (_hex(f), _hex(df)) == (_hex(hyp_F(ctx, arr)),
                                       _hex(hyp_dF(ctx, arr)))

    @pytest.mark.parametrize("kappa", [0.3, 0.5, 1.0, 2.0, 8.0 / 3.0, 3.0,
                                       4.0, 6.0, 7.5, 7.9])
    def test_series_matches_the_every_step_stop_test(self, kappa):
        # the stop test asked at every eighth step returns the bits of the
        # test asked at every step (tests/references.py), on batches and
        # on single points (whose stop step is their own); kappa 2 and 4
        # terminate, and their series serves all of [-1/2, 1]
        ctx = KappaContext(kappa)
        top = 1.0 if kappa in (2.0, 4.0) else 0.5
        xs = np.linspace(-0.5, top, 61)
        batches = [xs, xs[xs >= 0.0], np.array(0.5)] + list(xs[::4, None])
        for x in batches:
            got, want = _series_F_and_dF(ctx, x), series_F_and_dF(ctx, x)
            assert [np.asarray(v).tobytes() for v in got] \
                == [v.tobytes() for v in want], x


# 40-digit F and F' next to every Taylor centre boundary, and at 0.99,
# 0.995, 1 - 1e-6 and 1 - 2^-53
F_REFERENCE = json.loads(
    (pathlib.Path(__file__).parent / "data" / "hyp2f1_mpmath40.json")
    .read_text(encoding="utf-8"))


def _named_x(term):
    """The double named by "0.99", "1 - 1e-6" or "1 - 2^-53"."""
    head, _, tail = term.partition(" - ")
    base, _, power = tail.partition("^")
    drop = float(base) ** int(power) if power else float(tail or 0.0)
    return float(head) - drop


TABLE_SHA256 = {
    0.3: "c42e9f2b48f53ad819692873fa83c8fd38cca99a3c730ae6f8079f0f9d46ed28",
    0.5: "ffa9e60b525dce60d4bf5084fceff0e449c7947fbf16be675f6193737a003e9a",
    3.0: "16ca8841f6236344268d99b7c915c8a3731f642664d7696c149c7064ac4f7eb3",
    6.0: "56ee0d46ab3017bd14ac5773a5bbb897d3928be042e4c0917d46b29bcbaddc35",
    7.5: "d2cb29b322d4545f332f65a84cff3f3535fd6294b7534bde1ef694f8106e691f",
    7.9: "ff547a2ef89d48e8524805318f282576f47268696fc513cfb07e93e128ec1484",
}


class TestTaylorTable:
    def test_reference_x_are_those_described(self):
        # "... boundary 1 - 2^-(k+1), k = 1..52, and 0.99, ... . Rows: ..."
        lo, hi, rest = re.search(r"k = (\d+)\.\.(\d+), and (.+?)\. Rows:",
                                 F_REFERENCE["description"]).groups()
        named = [np.nextafter(1.0 - 2.0 ** -(k + 1), 0.0)
                 for k in range(int(lo), int(hi) + 1)]
        named += [_named_x(term) for term in rest.split(", ")]
        assert (lo, hi) == ("1", "52") and 1.0 - 2.0 ** -53 in named
        for rows in F_REFERENCE["values"].values():
            assert [float.fromhex(row[0]) for row in rows] == sorted(named)

    @pytest.mark.parametrize("kappa", sorted(F_REFERENCE["values"], key=float))
    def test_within_2e_15_of_mpmath(self, kappa):
        x, f_ref, df_ref = np.array(
            [[float.fromhex(v) for v in row]
             for row in F_REFERENCE["values"][kappa]]).T
        f, df = hyp_F_and_dF(KappaContext(float(kappa)), x)
        assert np.all(np.abs(f - f_ref) <= 2e-15 * np.abs(f_ref))
        # F' within 4e-15 on the centres past 1 - 2^-29, 2e-15 below
        df_tol = np.where(x > 1.0 - 2.0 ** -29, 4e-15, 2e-15)
        assert np.all(np.abs(df - df_ref) <= df_tol * np.abs(df_ref))

    @pytest.mark.parametrize("kappa", [1.6, 2.5, 8.0 / 3.0, 6.0, 7.5, 7.9])
    def test_neighbouring_centres_agree_within_4_ulp(self, kappa):
        centres, steps, series = _taylor_table(KappaContext(kappa))
        # x_{k+1} = x_k + (1 - x_k)/2 from 1/2 while x_k < 1: 53 centres,
        # the last at the last double below 1
        assert np.array_equal(centres, 1.0 - 0.5 ** np.arange(1, 54))
        assert np.array_equal(steps, (1.0 - centres) / 2.0)
        assert centres[-1] == np.nextafter(1.0, 0.0)
        for k in range(1, centres.size):
            end = _horner(series, np.array([k - 1]), np.array([1.0]))[:, 0]
            start = _horner(series, np.array([k]), np.array([0.0]))[:, 0]
            assert np.all(np.abs(end - start)
                          <= 4 * np.spacing(np.abs(start))), k

    @pytest.mark.parametrize("kappa", sorted(TABLE_SHA256))
    def test_table_bytes_are_pinned(self, kappa):
        # sha256 of the bytes of (centres, steps, series) as a loop of
        # scalar expressions builds them: the coefficient arrays must keep
        # every bit of it
        digest = hashlib.sha256()
        for part in _taylor_table(KappaContext(kappa)):
            digest.update(np.ascontiguousarray(part).tobytes())
        assert digest.hexdigest() == TABLE_SHA256[kappa]

    @pytest.mark.parametrize("kappa, degree", [
        (0.3, 100), (0.35, 86), (0.5, 60), (0.75, 60), (6.0, 60)])
    def test_degree_is_60_from_kappa_one_half(self, kappa, degree):
        # max(60, ceil(30 / kappa)): the tables of kappa >= 1/2 keep their
        # coefficients
        series = _taylor_table(KappaContext(kappa))[2]
        assert series.shape == (degree + 1, 2, 53)


class TestHypG:
    def test_frozen_values(self):
        for (k, x), val in GTILDE_TABLE.items():
            ctx = KappaContext(k)
            npt.assert_allclose(hyp_tilde_G(ctx, x), val, rtol=1e-10)

    def test_limit_at_zero(self):
        for kappa in KAPPAS:
            ctx = KappaContext(kappa)
            assert hyp_tilde_G(ctx, 0.0) == 2.0
            assert hyp_G(ctx, 0.0) == 0.0
            npt.assert_allclose(hyp_tilde_G(ctx, 1e-9), 2.0, atol=1e-7)

    def test_kappa4_constant(self):
        ctx = KappaContext(4.0)
        xs = np.linspace(0.0, 1.0, 41)
        npt.assert_allclose(hyp_tilde_G(ctx, xs), 2.0 * np.ones_like(xs),
                            rtol=0, atol=1e-14)

    def test_value_at_one(self):
        # kappa < 4: G(1) = kappa*F'(1)/F(1) = -2 identically, so
        # G-tilde(1) = 0; kappa > 4: F' diverges and G(1) = +inf.
        for kappa in (2.0, 3.0):
            npt.assert_allclose(hyp_tilde_G(KappaContext(kappa), 1.0),
                                0.0, atol=1e-12)
        for kappa in (6.0, 7.5):
            assert hyp_G(KappaContext(kappa), 1.0) == np.inf

    def test_dF_at_one_closed_form(self):
        # mpmath: F'(1; kappa=3) = -0.50700993035535239
        npt.assert_allclose(hyp_dF(KappaContext(3.0), 1.0),
                            -0.50700993035535239, rtol=1e-12)

    def test_domain(self):
        ctx = KappaContext(6.0)
        with pytest.raises(ValueError):
            hyp_G(ctx, -0.1)
        with pytest.raises(ValueError):
            hyp_G(ctx, 1.5)

    def test_table_matches_direct(self):
        ctx = KappaContext(6.0)
        u_max, vals, du = gtilde_table(6.0)
        assert du == u_max / (vals.size - 1)
        u = np.linspace(0.0, u_max, vals.size)
        x = -np.expm1(-u)
        npt.assert_allclose(vals, hyp_tilde_G(ctx, x), rtol=1e-12)


# Peak bytes traced by tracemalloc in hyp_F_and_dF at kappa 6 on the
# points of gtilde_table (the table of F already built) when _horner takes
# every degree's coefficients from the table as it goes.
F_BATCH_PEAK = 1_442_901


class TestMemory:
    def test_table_sized_batch_peak_stays_within_1_mib(self):
        # a gather of every point's coefficients at once would trace about
        # 19 MB more here (976 B a point), and raise the peak RSS of every
        # process that builds gtilde_table
        ctx = KappaContext(6.0)
        _taylor_table(ctx)
        u = np.linspace(0.0, -np.log1p(-_GT_TABLE_XMAX), _GT_TABLE_N)
        x = -np.expm1(-u)
        tracemalloc.start()
        try:
            hyp_F_and_dF(ctx, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= F_BATCH_PEAK + 2 ** 20


class TestJacobi:
    def test_frozen_values(self):
        npt.assert_allclose(jacobi(3, 0.0, 0.0, 0.3), -0.3825, rtol=1e-13)
        npt.assert_allclose(jacobi(4, 1.0 / 3.0, 2.0, -0.5),
                            -0.97358860596707817, rtol=1e-12)
        npt.assert_allclose(jacobi(5, 1.5, 0.5, 0.9), 4.5042525, rtol=1e-12)
        npt.assert_allclose(jacobi(2, 0.25, 3.0, 0.1), -0.333984375, rtol=1e-12)

    def test_against_scipy(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-1.0, 1.0, size=50)
        for n in range(0, 13):
            al, be = rng.uniform(-0.5, 3.0, size=2)
            npt.assert_allclose(jacobi(n, al, be, xs),
                                eval_jacobi(n, al, be, xs),
                                rtol=1e-11, atol=1e-11)

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(-1.0, 1.0, size=30)
        for n in range(0, 10):
            al, be = rng.uniform(-0.9, 2.5, size=2)
            npt.assert_allclose(jacobi(n, al, be, -xs),
                                (-1.0) ** n * jacobi(n, be, al, xs),
                                rtol=1e-12, atol=1e-12)

    def test_sup_norm(self):
        xs = np.linspace(-1.0, 1.0, 20001)
        for (n, al, be) in [(4, 0.5, 0.0), (6, 2.0, 1.0), (3, -0.3, 1.5),
                            (5, 1.0 / 3.0, 0.0)]:
            formula = jacobi_sup_norm(n, al, be)
            grid = float(np.max(np.abs(jacobi(n, al, be, xs))))
            assert grid <= formula * (1.0 + 1e-12)
            npt.assert_allclose(grid, formula, rtol=1e-6)

    def test_sup_norm_domain(self):
        with pytest.raises(ValueError):
            jacobi_sup_norm(3, -0.6, -0.7)
        with pytest.raises(ValueError):
            jacobi_sup_norm(3, 0.5, -1.0)


class TestHConst:
    def test_frozen_values(self):
        ctx = KappaContext(6.0)
        frozen = {(0, 0): 0.6514700158705599, (1, 0): 1.407336081881584,
                  (2, 0): 1.8168630692147242, (2, 1): 1.0300645387285055,
                  (3, 1): 1.7940085359243526, (4, 2): 1.3029400317411198,
                  (6, 2): 2.3705579310011291}
        for (n, j), val in frozen.items():
            npt.assert_allclose(h_const(ctx, n, j), val, rtol=1e-12)

    def test_h00_closed_form(self):
        for kappa in KAPPAS:
            ctx = KappaContext(kappa)
            npt.assert_allclose(h_const(ctx, 0, 0),
                                math.sqrt(8.0 / (math.pi * kappa)), rtol=1e-13)

    def test_finite_through_n40(self):
        ctx = KappaContext(6.0)
        for n in range(41):
            for j in range(n // 2 + 1):
                assert np.isfinite(h_const(ctx, n, j))

    def test_domain(self):
        ctx = KappaContext(6.0)
        with pytest.raises(ValueError):
            h_const(ctx, 3, 2)
        with pytest.raises(ValueError):
            h_const(ctx, 2, -1)
        with pytest.raises(ValueError):
            h_const(ctx, np.array([2, 3]), np.array([1, 2]))
        with pytest.raises(ValueError):
            h_const(ctx, np.array([2, 2]), np.array([0, -1]))


class TestContext:
    def test_validation(self):
        for bad in (0.0, 8.0, -1.0, 9.0):
            with pytest.raises(ValueError):
                KappaContext(bad)

    def test_derived_constants(self):
        ctx = KappaContext(6.0)
        npt.assert_allclose(ctx.alpha0, 1.25, rtol=0)
        npt.assert_allclose(ctx.beta0, 11.0 / 15.0, rtol=1e-15)
        npt.assert_allclose(ctx.sle_b, 0.0, atol=0)
        npt.assert_allclose(ctx.sle_c, 0.0, atol=0)
        ctx4 = KappaContext(4.0)
        npt.assert_allclose(ctx4.alpha0, 2.0, rtol=0)
        npt.assert_allclose(ctx4.sle_b, 0.25, rtol=0)
        npt.assert_allclose(ctx4.sle_c, 1.0, rtol=0)
        ctx3 = KappaContext(3.0)
        npt.assert_allclose(ctx3.sle_b, 0.5, rtol=0)
        npt.assert_allclose(ctx3.sle_c, 0.5, rtol=0)


# the Gauss-Jacobi rule of the disc, at the weight exponents 8/kappa - 1
GJ_KAPPAS = [2.0, 3.0, 6.0, 7.5]
GJ_SIZES = [1, 2, 24, 26, 30, 64]


class TestDiscRule:
    @pytest.mark.parametrize("kappa", GJ_KAPPAS)
    @pytest.mark.parametrize("n", GJ_SIZES)
    def test_matches_scipy(self, kappa, n):
        e = KappaContext(kappa).weight_exponent
        t, w = _gauss_jacobi(n, e)
        t_ref, w_ref = roots_jacobi(n, e, 0.0)
        # nodes live on [-1, 1]: relative, and absolute at one ulp of 1
        npt.assert_allclose(t, t_ref, rtol=1e-14, atol=np.finfo(float).eps)
        # scipy's weights are off the 40-digit values by up to 1.9e-12
        # (kappa 6, n 64; these by 7.8e-14): the tight bound is the
        # exactness test below
        npt.assert_allclose(w, w_ref, rtol=1e-11)

    @pytest.mark.parametrize("kappa", GJ_KAPPAS)
    @pytest.mark.parametrize("n", GJ_SIZES)
    def test_integrates_radial_powers_exactly(self, kappa, n):
        # (x^2 + y^2)^k has degree k in the Gauss variable t = 2 r^2 - 1;
        # for every k < 2 n the rule gives pi B(k + 1, 8/kappa) exactly
        ctx = KappaContext(kappa)
        x, y, w = disc_rule(ctx, n, 3)
        s = x * x + y * y
        e = Fraction(ctx.weight_exponent)
        beta = 1 / (e + 1)
        for k in range(2 * n):
            exact = math.pi * float(beta)
            assert abs(float(np.sum(w * s ** k)) - exact) <= 1e-13 * exact, k
            beta *= (k + 1) / (e + k + 2)

    def test_built_once_per_context_read_only(self):
        ctx = KappaContext(6.0)
        rule = disc_rule(ctx, 30, 64)
        assert disc_rule(ctx, 30, 64) is rule
        for arr in rule:
            with pytest.raises(ValueError):
                arr[0] = 0.0
        # built once per kappa: an equal context gets the same rule
        assert disc_rule(KappaContext(6.0), 30, 64) is rule
