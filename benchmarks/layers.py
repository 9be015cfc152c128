"""Per-layer tracing of the twocurve program, applied from outside it.

``Tracer.install()`` replaces the public functions of each layer by timing
wrappers and ``Tracer.uninstall()`` puts the originals back.  A function is
wrapped wherever a ``twocurve`` module binds it, so a by-value import such
as ``from .special import hyp_F`` in ``density`` is wrapped as well as the
defining module's attribute.

Every wrapped call opens a span.  A span's self time is its duration minus
the durations of the spans opened directly inside it, so the self times of
all layers add up to the traced wall time.  Counts of the work done are read
from the kernels' arguments and output arrays after each call.
"""
from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

CHECK_NAMES = ("hyp_ode", "hyp_value_at_one", "orthonormality",
               "eigenfunctions", "chapman_kolmogorov", "stationarity",
               "quasi_invariance", "drift_residual")

# (metric name, unit) in the order the traced run reports them
METRICS = (
    [("hsle.self_s", "s"), ("hsle.share", "frac"), ("hsle.calls", "count"),
     ("hsle.paths", "count"), ("hsle.capacity_per_s", "1/s")]
    + [(f"hsle.status.{k}", "count") for k in range(5)]
    + [("hsle.excluded_frac", "frac"),
       ("bflow.self_s", "s"), ("bflow.share", "frac"),
       ("bflow.calls", "count"), ("bflow.rows", "count"),
       ("bflow.steps", "count"), ("bflow.steps_per_s", "1/s"),
       ("bflow.pad_frac", "frac"),
       ("zevolve.self_s", "s"), ("zevolve.path_steps", "count"),
       ("zevolve.path_steps_per_s", "1/s"), ("zevolve.absorbed_frac", "frac"),
       ("mc.self_s", "s"), ("mc.probe_rows_per_path", "count"),
       ("timecurve.self_s", "s"),
       ("special.vector.points", "count"),
       ("special.vector.points_per_s", "1/s"),
       ("special.scalar.calls", "count"),
       ("special.scalar.us_per_call", "us"),
       ("special.gtilde_table_s", "s"),
       ("green.G_u.points", "count"), ("green.G_u.self_s", "s"),
       ("density.basis_s", "s"), ("density.tilde_pZ_t_s", "s"),
       ("density.tilde_pZ_infty_s", "s"), ("density.survival_cold_s", "s"),
       ("density.survival_warm_us", "us"), ("density.Z_constant_s", "s"),
       ("quadrature.calls", "count"), ("quadrature.self_s", "s"),
       ("ensemble.calls", "count"), ("ensemble.self_s", "s")]
    + [(f"checks.{name}_s", "s") for name in CHECK_NAMES]
    + [("cli.self_s", "s"), ("cli.bytes_written", "count"),
       ("trace.overhead_frac", "frac")])


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Timing wrappers around the layer functions of a loaded twocurve."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.span_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.violations: list[str] = []
        self._open: list[float] = []     # child time of each open span
        self._patches: list[tuple] = []  # (module, attribute, original)

    # -- spans ---------------------------------------------------------------

    def call(self, label, fn, *args, before=None, after=None, **kwargs):
        """Run ``fn`` inside a span.

        ``before(args, kwargs)`` runs first and returns a token;
        ``after(token, args, kwargs, result)`` runs on success and may
        return a label that replaces ``label``.
        """
        token = before(args, kwargs) if before is not None else None
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(label, time.perf_counter() - t0)
            raise
        span = time.perf_counter() - t0
        if after is not None:
            label = after(token, args, kwargs, result) or label
        self._close(label, span)
        return result

    def _close(self, label: str, span: float) -> None:
        child = self._open.pop()
        if self._open:
            self._open[-1] += span
        self.calls[label] += 1
        self.span_s[label] += span
        self.self_s[label] += span - child

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function wherever a twocurve module binds it."""
        from twocurve import (_kernels, checks, density, ensemble, green,
                              montecarlo, quadrature, special, timecurve)
        targets = [
            (_kernels.hsle_evolve_adaptive, "hsle", None, self._after_hsle),
            (_kernels.backward_flow, "bflow", None, self._after_bflow),
            (_kernels.z_evolve, "zevolve", self._before_zevolve,
             self._after_zevolve),
            (montecarlo.estimate_two_curve_hit, "mc", None, self._after_mc),
            (montecarlo.estimate_intersection_hit, "mc", None,
             self._after_mc),
            (montecarlo.estimate_survival_weighted, "mc", None,
             self._after_mc),
            (timecurve.simulate_z_ensemble, "timecurve", None, None),
            (special.hyp_F, "special", self._before_special, _token_label),
            (special.hyp_dF, "special", self._before_special, _token_label),
            (special.gtilde_table, "special.gtilde_table", None, None),
            (green.G_u, "green.G_u", self._before_gu, None),
            (density.SpectralBasis, "density.basis", None, None),
            (density.tilde_pZ_t, "density.tilde_pZ_t", None, None),
            (density.tilde_pZ_infty, "density.tilde_pZ_infty", None, None),
            (density.survival_P2, "density.survival", self._before_survival,
             self._after_survival),
            (density.Z_constant, "density.Z_constant", None, None),
            (quadrature.square_integrate, "quadrature", None, None),
            (ensemble.drift_residual, "ensemble", None, None),
        ]
        targets += [(getattr(checks, f"check_{name}"), f"checks.{name}",
                     None, None) for name in CHECK_NAMES]
        self._hsle_signature = inspect.signature(
            _kernels.hsle_evolve_adaptive)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("twocurve.") and m is not None]
        for original, label, before, after in targets:
            wrapper = self._wrapper(original, label, before, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every attribute ``install`` replaced."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrapper(self, fn, label, before, after):
        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            return self.call(label, fn, *args, before=before, after=after,
                             **kwargs)
        return wrapper

    # -- counters read at the layer boundaries -------------------------------

    def _after_hsle(self, _, args, kwargs, result):
        bound = self._hsle_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        p = bound.arguments
        status = np.asarray(p["status"])
        death = np.asarray(p["death_units"])
        unit = float(p["dt"]) / int(p["bmax"])
        horizon = int(p["max_macros"]) * float(p["dt"])
        capacity = np.where(death >= 0, death * unit, horizon)
        self.counts["hsle.paths"] += status.size
        self.counts["hsle.capacity"] += float(capacity.sum())
        for k, n in enumerate(np.bincount(status, minlength=5)[:5]):
            self.counts[f"hsle.status.{k}"] += int(n)

    def _after_bflow(self, _, args, kwargs, result):
        drivers = np.asarray(_arg(args, kwargs, 0, "drivers"))
        lengths = np.asarray(_arg(args, kwargs, 1, "lengths"))
        self.counts["bflow.rows"] += lengths.size
        self.counts["bflow.steps"] += int(lengths.sum())
        self.counts["bflow.padded"] += drivers.size

    def _before_zevolve(self, args, kwargs):
        return np.array(_arg(args, kwargs, 2, "alive"), dtype=bool)

    def _after_zevolve(self, alive_before, args, kwargs, result):
        alive = np.asarray(_arg(args, kwargs, 2, "alive"))
        absorb = np.asarray(_arg(args, kwargs, 3, "absorb_step"))
        start = int(_arg(args, kwargs, 5, "start_step"))
        n_steps = int(_arg(args, kwargs, 6, "n_steps"))
        lost = alive_before & ~alive
        steps = np.where(lost, absorb - start, n_steps)[alive_before]
        self.counts["zevolve.path_steps"] += int(steps.sum())
        self.counts["zevolve.entered"] += int(alive_before.sum())
        self.counts["zevolve.absorbed"] += int(lost.sum())

    def _after_mc(self, _, args, kwargs, records):
        """Count paths and check the per-class counts of each record."""
        if records:
            self.counts["mc.paths"] += records[0].n_paths
        for rec in records:
            c, n = rec.config, rec.n_paths
            k = round(rec.estimate * n)
            if rec.method == "two_curve_hit" and "certified" in c:
                ok = (k == c["hit_swallow"] + c["hit_alive"] + c["hit_probe"]
                      and k <= c["certified"] <= n)
            elif rec.method == "intersection_hit":
                ok = k <= c["two_curve_hits"] <= c["certified"] <= n
            else:
                ok = True
            if not ok:
                self.violations.append(
                    f"{rec.method} r={rec.r_or_t}: class counts {c} do not "
                    f"add up to {k} of {n}")

    def _before_special(self, args, kwargs):
        x = _arg(args, kwargs, 1, "x")
        if np.ndim(x) == 0:
            return "special.scalar"
        self.counts["special.vector.points"] += np.size(x)
        return "special.vector"

    def _before_gu(self, args, kwargs):
        z = _arg(args, kwargs, 1, "z")
        z1 = getattr(z, "z1", None)
        self.counts["green.G_u.points"] += np.size(z[0] if z1 is None
                                                   else z1)

    def _before_survival(self, args, kwargs):
        return _arg(args, kwargs, 1, "basis")._survival_cache

    def _after_survival(self, cache_before, args, kwargs, result):
        basis = _arg(args, kwargs, 1, "basis")
        cold = basis._survival_cache is not cache_before
        return "density.survival_cold" if cold else "density.survival_warm"

    # -- report --------------------------------------------------------------

    def metrics(self, traced_s: float, overhead_frac: float) -> dict:
        """Per-layer metrics for a traced pass whose calls took ``traced_s``
        wall seconds; ``overhead_frac`` is its time over its untraced
        twin's, minus one."""
        s, n, c = self.self_s, self.calls, self.counts
        values = {
            "hsle.self_s": s["hsle"],
            "hsle.share": _ratio(s["hsle"], traced_s),
            "hsle.calls": n["hsle"],
            "hsle.paths": c["hsle.paths"],
            "hsle.capacity_per_s": _ratio(c["hsle.capacity"], s["hsle"]),
            "hsle.excluded_frac": _ratio(
                c["hsle.status.2"] + c["hsle.status.4"], c["hsle.paths"]),
            "bflow.self_s": s["bflow"],
            "bflow.share": _ratio(s["bflow"], traced_s),
            "bflow.calls": n["bflow"],
            "bflow.rows": c["bflow.rows"],
            "bflow.steps": c["bflow.steps"],
            "bflow.steps_per_s": _ratio(c["bflow.steps"], s["bflow"]),
            "bflow.pad_frac": (1.0 - _ratio(c["bflow.steps"],
                                            c["bflow.padded"])
                               if c["bflow.padded"] else 0.0),
            "zevolve.self_s": s["zevolve"],
            "zevolve.path_steps": c["zevolve.path_steps"],
            "zevolve.path_steps_per_s": _ratio(c["zevolve.path_steps"],
                                               s["zevolve"]),
            "zevolve.absorbed_frac": _ratio(c["zevolve.absorbed"],
                                            c["zevolve.entered"]),
            "mc.self_s": s["mc"],
            "mc.probe_rows_per_path": _ratio(c["bflow.rows"], c["mc.paths"]),
            "timecurve.self_s": s["timecurve"],
            "special.vector.points": c["special.vector.points"],
            "special.vector.points_per_s": _ratio(
                c["special.vector.points"], s["special.vector"]),
            "special.scalar.calls": n["special.scalar"],
            "special.scalar.us_per_call": 1e6 * _ratio(
                s["special.scalar"], n["special.scalar"]),
            "special.gtilde_table_s": self.span_s["special.gtilde_table"],
            "green.G_u.points": c["green.G_u.points"],
            "green.G_u.self_s": s["green.G_u"],
            "density.basis_s": s["density.basis"],
            "density.tilde_pZ_t_s": s["density.tilde_pZ_t"],
            "density.tilde_pZ_infty_s": s["density.tilde_pZ_infty"],
            "density.survival_cold_s": s["density.survival_cold"],
            "density.survival_warm_us": 1e6 * _ratio(
                s["density.survival_warm"], n["density.survival_warm"]),
            "density.Z_constant_s": s["density.Z_constant"],
            "quadrature.calls": n["quadrature"],
            "quadrature.self_s": s["quadrature"],
            "ensemble.calls": n["ensemble"],
            "ensemble.self_s": s["ensemble"],
            "cli.self_s": s["cli"],
            "cli.bytes_written": c["cli.bytes_written"],
            "trace.overhead_frac": overhead_frac,
        }
        for k in range(5):
            values[f"hsle.status.{k}"] = c[f"hsle.status.{k}"]
        for name in CHECK_NAMES:
            values[f"checks.{name}_s"] = self.span_s[f"checks.{name}"]
        return {name: {"value": _finite(values[name]), "unit": unit}
                for name, unit in METRICS}


def _token_label(token, args, kwargs, result):
    return token


def _finite(x) -> float:
    x = float(x)
    return x if math.isfinite(x) else 0.0
