/*
 * The compiled kernels of _kernels, loaded through ctypes from one library:
 *
 * hsle_evolve_adaptive, a port of _kernels._hsle_evolve_adaptive_np called
 * by _kernels.hsle_evolve_adaptive.  Every output is the Python kernel's
 * bit for bit, because both evaluate the same libm functions on the same
 * doubles in the same order and draw the same splitmix64 counters: those
 * of the map of draws in _rng's docstring, here with _rng.UNIT_DRAWS (4)
 * and _rng.RETURN_SLOT (2) written out.
 *
 * backward_flow, a port of _kernels._backward_flow_np called by
 * _kernels.backward_flow.  Its outputs are the numpy flow's bit for bit
 * where numpy's complex multiply is fused (the _kernels docstring): the
 * fused roundings are explicit fma() calls, everything else is plain.
 *
 * z_evolve, a port of _kernels._z_evolve_np called by _kernels.z_evolve.
 * Its draws are _rng.normal_pair_array's, whose Box-Muller log is libm's
 * as here; the step's bits are z_update's: numpy's sin, cos and sqrt of
 * float64 are libm's, and each expression is evaluated in numpy's
 * operation order.
 *
 * Each takes its rows (paths) one at a time, until n, from the counter
 * *next that _kernels gives the call of every worker thread, and keeps no
 * other state outside its arguments: each row runs once, on any worker.
 *
 * All three hold only for the build flags in _kernels._CFLAGS:
 * -ffp-contract=off keeps every other a*b + c as two roundings, and
 * neither -ffast-math nor -march=native (nor -mfma) may be added.
 *
 * The per-call constants of the adaptive kernel (unit, res_units,
 * floor_gap, p_ret, half_k6, g_top) arrive already computed by
 * _kernels._adaptive_constants.  Where the Python kernel raises, this one
 * stops, stores the row in *err_row, sets *next to n (no worker takes a
 * further row) and returns the code of the exception:
 * HSLE_ZERO_DIV (ZeroDivisionError), HSLE_DOMAIN (ValueError from math.sin,
 * math.log or math.sqrt), HSLE_NAN_INT (ValueError from int(nan)) or
 * HSLE_INF_INT (OverflowError from int(inf)).  The checks sit where Python
 * evaluates the operation that raises, so the first failing operation
 * names the error.  Rows are handed out in increasing order, so every row
 * below a failing one was taken before it and still finishes.
 */
#include <complex.h>
#include <math.h>
#include <stdint.h>

#define PI 3.141592653589793
#define TWO_PI (2.0 * PI)
#define NEXT_ROW(next) __atomic_fetch_add((next), 1, __ATOMIC_RELAXED)

enum {
    HSLE_OK = 0, HSLE_ZERO_DIV = 1, HSLE_DOMAIN = 2, HSLE_NAN_INT = 3,
    HSLE_INF_INT = 4
};

/* _rng.uniform: top 53 bits of the splitmix64 word at counter i */
static double uniform(uint64_t stream, uint64_t i)
{
    uint64_t z = stream + 0x9E3779B97F4A7C15ULL * (i + 1);
    z ^= z >> 30;
    z *= 0xBF58476D1CE4E5B9ULL;
    z ^= z >> 27;
    z *= 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return ((double)(z >> 11) + 0.5) * 0x1p-53;
}

/* _kernels._gap_status */
static int gap_status(double g01, double g12, double g23, double gw)
{
    if (g12 <= 0.0 || g23 <= 0.0)
        return 4;
    if (gw <= 0.0)
        return 1;
    if (g01 <= 0.0)
        return 2;
    return 0;
}

/* math.sin raises on an infinite argument, math.log on a non-positive one,
 * math.sqrt on a negative one */
#define CHECK(cond, code) \
    do { if (cond) { err = (code); goto fail; } } while (0)

int hsle_evolve_adaptive(
    int64_t n, int64_t k, int64_t nt, double *state, const uint64_t *streams,
    int64_t start_macro, int64_t max_macros, double kappa,
    const int64_t *thr, double eps_kill, double eps_ret, int64_t bmax,
    const double *gt, double gt_du, double gt_umax,
    double unit, double res_units, double floor_gap, double p_ret,
    double half_k6, double g_top,
    double *snap, uint8_t *reached, uint8_t *status, int64_t *death_units,
    int64_t *next, int64_t *err_row)
{
    const uint64_t stride = 4 * (uint64_t)bmax; /* counters per macro step */
    const int64_t end_macro = start_macro + max_macros;
    int err;
    int64_t p;

    while ((p = NEXT_ROW(next)) < n) {
        double *row = state + 4 * p;
        double w0 = row[0], v1 = row[1], v2 = row[2], wi = row[3];
        const uint64_t sid = streams[p];
        int64_t ti = 0, units_done = 0, m;
        double g01 = v1 - w0;
        double g12 = v2 - v1;
        double g23 = wi - v2;
        double gw = w0 - (wi - TWO_PI);
        int st = gap_status(g01, g12, g23, gw);

        if (st != 0) {
            status[p] = (uint8_t)st;
            death_units[p] = 0;
            continue;
        }
        for (m = start_macro; m < end_macro; m++) {
            int64_t left = bmax;
            while (left > 0) {
                double gmin = g01 < gw ? g01 : gw;
                double want = res_units * gmin * gmin;
                int64_t n_u;
                uint64_t ctr;
                double uu0, uu1, g, dts, ha, hb, hc, sa, sb, sc, ca, cb, cc;
                double s_wv, s_12, u, G, drift, kd;

                if (want >= (double)left)
                    n_u = left;
                else if (want < 1.0)
                    n_u = 1;
                else {
                    CHECK(isnan(want), HSLE_NAN_INT);
                    n_u = (int64_t)want;
                }
                ctr = stride * (uint64_t)m + 4 * (uint64_t)(bmax - left);
                uu0 = uniform(sid, ctr);
                uu1 = uniform(sid, ctr + 1);
                g = sqrt(-2.0 * log(uu0)) * cos(TWO_PI * uu1);
                dts = (double)n_u * unit;
                ha = 0.5 * g01;
                hb = 0.5 * (v2 - w0);
                hc = 0.5 * (wi - w0);
                CHECK(isinf(hb) || isinf(hc), HSLE_DOMAIN);
                sb = sin(hb);
                sc = sin(hc);
                CHECK(sb <= 0.0, HSLE_DOMAIN);
                s_wv = 0.5 * (wi - v1);
                CHECK(isinf(s_wv), HSLE_DOMAIN);
                s_wv = sin(s_wv);
                CHECK(s_wv <= 0.0 || sc <= 0.0, HSLE_DOMAIN);
                s_12 = 0.5 * g12;
                CHECK(isinf(s_12), HSLE_DOMAIN);
                s_12 = sin(s_12);
                CHECK(s_12 <= 0.0, HSLE_DOMAIN);
                u = (log(sb)
                     + log(s_wv)
                     - log(sc)
                     - log(s_12));
                if (u < 0.0)
                    u = 0.0;
                if (u >= gt_umax)
                    G = g_top;
                else {
                    double x = u / gt_du, frac;
                    int64_t i0;
                    CHECK(isnan(x), HSLE_NAN_INT);
                    CHECK(isinf(x), HSLE_INF_INT);
                    /* int(x) clamped to nt - 2, never an out-of-range cast */
                    i0 = x >= (double)(nt - 1) ? nt - 2 : (int64_t)x;
                    frac = x - (double)i0;
                    G = gt[i0] * (1.0 - frac) + gt[i0 + 1] * frac;
                }
                CHECK(isinf(ha), HSLE_DOMAIN);
                sa = sin(ha);
                ca = cos(ha);
                cb = cos(hb);
                cc = cos(hc);
                CHECK(sa == 0.0, HSLE_ZERO_DIV);
                drift = (half_k6 * (-cc / sc)
                         + 0.5 * (-ca / sa + cb / sb) * G);
                v1 = v1 + (ca / sa) * dts;
                v2 = v2 + (cb / sb) * dts;
                wi = wi + (cc / sc) * dts;
                kd = kappa * dts;
                CHECK(kd < 0.0, HSLE_DOMAIN);
                w0 = w0 + drift * dts + sqrt(kd) * g;
                left -= n_u;
                units_done += n_u;
                g01 = v1 - w0;
                g12 = v2 - v1;
                g23 = wi - v2;
                gw = w0 - (wi - TWO_PI);
                st = gap_status(g01, g12, g23, gw);
                if (st == 0) {
                    double oth = g12 < g23 ? g12 : g23;
                    double ref_c = oth < g01 ? oth : g01;
                    double ref_f = oth < gw ? oth : gw;
                    if (gw < eps_kill * ref_c) {
                        /* target side: absorb or reinject */
                        if (uniform(sid, ctr + 2) < p_ret) {
                            w0 = (wi - TWO_PI) + eps_ret * ref_c;
                            g01 = v1 - w0;
                            gw = w0 - (wi - TWO_PI);
                            st = gap_status(g01, g12, g23, gw);
                        } else
                            st = 1;
                    } else if (g01 < eps_kill * ref_f) {
                        /* protected side: always returns */
                        w0 = v1 - eps_ret * ref_f;
                        g01 = v1 - w0;
                        gw = w0 - (wi - TWO_PI);
                        st = gap_status(g01, g12, g23, gw);
                    } else if ((gw < g01 ? gw : g01) < floor_gap)
                        st = 3;
                }
                if (st != 0)
                    break;
            }
            if (st != 0)
                break;
            while (ti < k && thr[ti] == m - start_macro + 1) {
                double *s = snap + 4 * (p * k + ti);
                s[0] = w0;
                s[1] = v1;
                s[2] = v2;
                s[3] = wi;
                reached[p * k + ti] = 1;
                ti++;
            }
        }
        row[0] = w0;
        row[1] = v1;
        row[2] = v2;
        row[3] = wi;
        status[p] = (uint8_t)st;
        death_units[p] = st != 0 ? units_done : -1;
    }
    return HSLE_OK;

fail:
    *err_row = p;
    __atomic_store_n(next, n, __ATOMIC_RELAXED);
    return err;
}

/*
 * Backward radial Loewner flow.  Complex values are (re, im) pairs and
 * every operation is numpy's, spelled out: cexp and csqrt are the functions
 * numpy's complex exp and sqrt call, division is numpy's Smith division
 * with a reciprocal, and each product is numpy's SIMD complex multiply,
 * which rounds each part once, as a fused multiply-add.
 */
typedef struct { double re, im; } cplx;

/* numpy's complex multiply (AVX2/AVX-512 loops) */
static cplx cmul(cplx a, cplx b)
{
    cplx r = {fma(a.re, b.re, -(a.im * b.im)), fma(a.re, b.im, a.im * b.re)};
    return r;
}

/* numpy's complex square (z**2) */
static cplx csquare(cplx a)
{
    cplx r = {fma(a.re, a.re, -(a.im * a.im)), a.re * a.im + a.im * a.re};
    return r;
}

/* numpy's complex divide */
static cplx cdiv(cplx a, cplx b)
{
    const double br_abs = fabs(b.re), bi_abs = fabs(b.im);
    cplx r;
    if (br_abs >= bi_abs) {
        if (br_abs == 0.0 && bi_abs == 0.0) {
            r.re = a.re / br_abs;
            r.im = a.im / br_abs;
        } else {
            const double rat = b.im / b.re;
            const double scl = 1.0 / (b.re + b.im * rat);
            r.re = (a.re + a.im * rat) * scl;
            r.im = (a.im - a.re * rat) * scl;
        }
    } else {
        const double rat = b.re / b.im;
        const double scl = 1.0 / (b.im + b.re * rat);
        r.re = (a.re * rat + a.im) * scl;
        r.im = (a.im * rat - a.re) * scl;
    }
    return r;
}

static cplx from_c99(double complex z)
{
    cplx r = {creal(z), cimag(z)};
    return r;
}

/* one row's steps k = len-1, ..., 0 of the numpy flow, on y = (re, im);
 * a real scalar s enters numpy's complex arithmetic as s + 0i, hence the
 * additions of 0.0 (which turn -0.0 into +0.0) */
static void backward_row(const double *drv, int64_t len, double exp_du,
                         double *y)
{
    const cplx i_unit = {0.0, 1.0}, e = {exp_du, 0.0}, half = {0.5, 0.0};
    cplx z = {y[0], y[1]};
    int64_t k;

    for (k = len - 1; k >= 0; k--) {
        const cplx d = {drv[k], 0.0};
        const cplx arg = cmul(i_unit, d);                   /* 1j * w */
        const cplx rot = from_c99(cexp(CMPLX(arg.re, arg.im)));
        const cplx zeta = cdiv(z, rot);
        const cplx zp1 = {1.0 + zeta.re, 0.0 + zeta.im};
        const cplx c = cdiv(cmul(e, csquare(zp1)), zeta);
        const cplx bp = {c.re - 2.0, c.im - 0.0};
        const cplx cm4 = {c.re - 4.0, c.im - 0.0};
        const cplx prod = cmul(c, cm4);
        const cplx bp_conj = {bp.re, -bp.im};
        cplx disc = from_c99(csqrt(CMPLX(prod.re, prod.im)));
        cplx sum, yn;

        if (cmul(bp_conj, disc).re < 0.0) {
            disc.re = -disc.re;
            disc.im = -disc.im;
        }
        sum.re = bp.re + disc.re;
        sum.im = bp.im + disc.im;
        yn = cdiv(rot, cmul(half, sum));
        /* a step whose inverse degenerates leaves the point unchanged */
        if (isfinite(yn.re) && isfinite(yn.im))
            z = yn;
    }
    y[0] = z.re;
    y[1] = z.im;
}

/* point i is pulled back through drivers[rows[i]][0 .. lengths[i] - 1] */
void backward_flow(int64_t n, int64_t width, const double *drivers,
                   const int64_t *lengths, const int64_t *rows,
                   double exp_du, double *y, int64_t *next)
{
    int64_t i;

    while ((i = NEXT_ROW(next)) < n)
        backward_row(drivers + rows[i] * width, lengths[i], exp_du,
                     y + 2 * i);
}

/*
 * The two-angle diffusion of _kernels._z_evolve_np, path by path: steps
 * start_step, ..., start_step + n_steps - 1 while the path lives, each
 * drawing the uniforms at counters (2s, 2s+1) of _rng.normal_pair_array,
 * forming its Box-Muller normals, applying _kernels.z_update, the clamp
 * (np.clip keeps -0.0 and NaN) and absorption, and snapshotting at the
 * record steps rec_steps[ri] equal to the step's end; a path dead at entry
 * or absorbed keeps its frozen angles in its later snapshots.  rec_z1 and
 * rec_z2 are [m][n].
 */
void z_evolve(int64_t n, const uint64_t *streams, int64_t start_step,
              int64_t n_steps, double kappa, double dt, double *z1,
              double *z2, uint8_t *alive, int64_t *absorb_step, int64_t m,
              const int64_t *rec_steps, double *rec_z1, double *rec_z2,
              int64_t *next)
{
    const double mil_k = 0.25 * kappa;
    const int64_t end = start_step + n_steps;
    int64_t p;

    while ((p = NEXT_ROW(next)) < n) {
        const uint64_t sid = streams[p];
        double a = z1[p], b = z2[p];
        int64_t s, ri = 0;

        for (s = start_step; s < end && alive[p]; s++) {
            const uint64_t two_s = 2 * (uint64_t)s;
            const double r = sqrt(-2.0 * log(uniform(sid, two_s)));
            const double ang = TWO_PI * uniform(sid, two_s + 1);
            const double g1 = r * cos(ang), g2 = r * sin(ang);
            const double sa = sin(a), sb = sin(b), ca = cos(a), cb = cos(b);
            const double S = sa + sb;
            const double mil = mil_k / S * dt;
            double an = (a + 4.0 * ca / S * dt + sqrt(kappa * sa / S * dt) * g1
                         + mil * ca * (g1 * g1 - 1.0));
            double bn = (b + 4.0 * cb / S * dt + sqrt(kappa * sb / S * dt) * g2
                         + mil * cb * (g2 * g2 - 1.0));

            if (an <= 0.0 || an >= PI || bn <= 0.0 || bn >= PI) {
                alive[p] = 0;
                absorb_step[p] = s + 1;
            }
            an = an < 0.0 ? 0.0 : an;
            bn = bn < 0.0 ? 0.0 : bn;
            a = an > PI ? PI : an;
            b = bn > PI ? PI : bn;
            for (; ri < m && rec_steps[ri] == s + 1; ri++) {
                rec_z1[ri * n + p] = a;
                rec_z2[ri * n + p] = b;
            }
        }
        for (; ri < m; ri++) {
            rec_z1[ri * n + p] = a;
            rec_z2[ri * n + p] = b;
        }
        z1[p] = a;
        z2[p] = b;
    }
}
