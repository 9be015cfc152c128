"""Benchmark of the twocurve command line.

Run from the repository root:

    python3 benchmarks/run.py --workload hit_k6 --seed 1 --seconds 45 --trace 0

A workload runs in this one process: a closed loop with a single caller
that calls ``twocurve.cli.main(argv)`` back to back on one thread and checks
the files every call writes.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it runs the same calls twice, plain
and then with every layer wrapped (``layers.py``), and reports the per-layer
metrics.  The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details: provenance, inputs, per-command call times, failures.
README.md in this directory describes the workloads and metrics.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
RADII = (0.05, 0.1, 0.2)
Z_TIMES = (1.0, 2.0, 4.0)
# BLAS runs single-threaded so that the one caller uses one core
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5
# Seconds ``calibration_sample`` takes on an uncontended core of the 2-core
# x86-64 VM the benchmark was written on.  Times are reported in those
# seconds: that VM's cores ran up to 1.7x slower for seconds to minutes at a
# time, and a time scaled by CALIBRATION_REF_S over the mean of the samples
# taken just before and after it spread several times less between runs
# than the raw wall time (README.md).
CALIBRATION_REF_S = 0.009
POOLED_SIGMAS = 5.0  # pooled hit frequency against the reference
ORACLE_SIGMAS = 4.0  # z-weighted estimate against spectral survival
REF_RTOL = 1e-7      # deterministic outputs against the reference
SLOPE_TOL = 1e-6     # fitted survival slope against -alpha0

# Every other input is fixed; the seed only picks the master RNG seeds.
# meet_k7.5 is left out of BENCHMARK.json: a few of its path ranges stop
# with a ZeroDivisionError in the adaptive kernel (README.md, known gaps).
WORKLOADS = {
    "hit_k6": {"method": "curves", "kappa": 6.0, "width": 200},
    "meet_k7.5": {"method": "intersection", "kappa": 7.5, "width": 20},
    "lab_k6": {"method": "lab", "kappa": 6.0, "z_paths": 2000,
               "check_args": []},
}
END_TO_END = (("setup_s", "s"), ("call_s.p50", "s"), ("paths_per_s", "1/s"),
              ("peak_rss_mb", "MB"))


@dataclass
class Call:
    kind: str
    argv: list
    paths: int = 0   # paths the call simulates
    start: int = 0   # first path id of a curve-method call


@dataclass
class Result:
    call: Call
    wall: float
    scaled: float  # wall in seconds of the calibration reference core
    problem: str | None
    data: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the program and its set-up
# ---------------------------------------------------------------------------

def load_program():
    """Import the CLI from ./src."""
    src = os.path.join(os.getcwd(), "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from twocurve import cli
    return cli


def warm_caches(spec: dict) -> None:
    """Fill the module-level caches that the workload's first call would
    otherwise fill."""
    from twocurve import montecarlo
    from twocurve.context import KappaContext
    # the drift-factor table is cached per kappa for the process lifetime;
    # a program without that module-level cache pays it inside the calls
    gt_table = getattr(montecarlo, "_gt_table", None)
    if spec["method"] != "lab" and gt_table is not None:
        gt_table(KappaContext(spec["kappa"]))


def setup_sample(workload: str) -> tuple[float, float]:
    """(raw, calibrated) seconds a fresh interpreter takes to load the
    program and warm its module-level caches."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload],
        capture_output=True, text=True, timeout=120, check=True)
    wall, before, after = map(float, out.stdout.split()[-3:])
    return wall, calibrated(wall, before, after)


def calibration_sample() -> float:
    """Seconds of a fixed loop of interpreted scalar arithmetic: three times
    the median of three thirds, so that one preemption does not count."""
    parts = []
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(20000):
            s += math.sin(i * 1e-3) * math.sqrt(i + 1.0)
        parts.append(time.perf_counter() - t0)
    return 3.0 * statistics.median(parts)


def calibrated(wall: float, before: float, after: float) -> float:
    """``wall`` in seconds of the reference core, from the calibration
    samples taken just before and after it."""
    return wall * CALIBRATION_REF_S * 2.0 / (before + after)


def provenance() -> dict:
    import numpy
    import scipy
    from twocurve import _kernels
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    src = os.path.join(os.getcwd(), "src", "twocurve")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "backend": _kernels.active_backend(),
            "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS}}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def master_seed(seed: int) -> int:
    return seed % 2**31


def curve_call(spec: dict, master: int, start: int, n: int) -> Call:
    return Call("simulate", [
        "simulate", "--method", spec["method"], "--kappa", str(spec["kappa"]),
        "--r-list", ",".join(map(str, RADII)), "--dt", "1e-3",
        "--n-paths", str(n), "--path-start", str(start),
        "--master-seed", str(master)], n, start)


def plan(spec: dict, seed: int):
    """Yield the workload's call groups; the loop stops only between
    groups.  Curve calls take consecutive path ranges of one master seed;
    lab groups repeat the same three calls."""
    kappa = str(spec["kappa"])
    for i in itertools.count():
        if spec["method"] == "lab":
            n = spec["z_paths"]
            yield [
                Call("density", ["density", "--kappa", kappa]),
                Call("zweighted", [
                    "simulate", "--method", "z-weighted", "--kappa", kappa,
                    "--n-paths", str(n),
                    "--t-list", ",".join(map(str, Z_TIMES)),
                    "--master-seed", str(master_seed(seed))], n),
                Call("check", ["check", *spec["check_args"]]),
            ]
        else:
            width = spec["width"]
            yield [curve_call(spec, master_seed(seed), i * width, width)]


# ---------------------------------------------------------------------------
# calls and their output checks
# ---------------------------------------------------------------------------

def _rows(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REF_RTOL * abs(ref)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def check_curves(call: Call, out: str, ref: dict):
    """Whole hit counts per radius from estimates.csv."""
    path = os.path.join(out, "estimates.csv")
    counts = {}
    for row in _rows(path):
        n = int(row["n_paths"])
        x = float(row["estimate"]) * n
        k = round(x)
        if n != call.paths or abs(x - k) > 1e-6 or not 0 <= k <= n:
            return (f"estimate {row['estimate']} x n_paths {n} is not a "
                    f"count of {call.paths} paths"), {}
        counts[float(row["r_or_t"])] = k
    if sorted(counts) != list(RADII):
        return f"radii {sorted(counts)} instead of {list(RADII)}", {}
    return None, {"counts": counts, "records": _read(path)}


def check_density(call: Call, out: str, ref: dict):
    meta = _json(os.path.join(out, "density_meta.json"))
    if abs(meta["slope_minus_minus_alpha0"]) > SLOPE_TOL:
        return f"survival slope off by {meta['slope_minus_minus_alpha0']}", {}
    if not _close(meta["Z_constant"], ref["Z_constant"]):
        return f"Z_constant {meta['Z_constant']} != {ref['Z_constant']}", {}
    rows = _rows(os.path.join(out, "pz_t.csv"))
    for i, t, z1, z2, value in ref["pz_t"]:
        row = rows[i]
        got = [float(row[k]) for k in ("t", "z1", "z2", "value")]
        if got[:3] != [t, z1, z2] or not _close(got[3], value):
            return f"pz_t row {i} is {got}, reference {[t, z1, z2, value]}", {}
    survival = {float(r["t"]): float(r["survival"])
                for r in _rows(os.path.join(out, "survival.csv"))}
    for t in Z_TIMES:
        if not _close(survival[t], ref["survival"][str(t)]):
            return f"survival at t={t} is {survival[t]}", {}
    return None, {}


def check_zweighted(call: Call, out: str, ref: dict):
    """Each estimate within ORACLE_SIGMAS stderr of spectral survival_P2.

    The stderr is floored at the reference's typical stderr for the same
    number of paths: the sample stderr of importance weights comes out small
    exactly when a run misses the rare large weights.
    """
    path = os.path.join(out, "estimates.csv")
    rows = _rows(path)
    if sorted(float(r["r_or_t"]) for r in rows) != list(Z_TIMES):
        return "z-weighted times differ from the request", {}
    for row in rows:
        t = str(float(row["r_or_t"]))
        exact = ref["survival"][t]
        typical = ref["zweighted_stderr_2000"][t] * math.sqrt(
            2000 / call.paths)
        est, se = float(row["estimate"]), max(float(row["stderr"]), typical)
        if not abs(est - exact) <= ORACLE_SIGMAS * se:
            return (f"z-weighted t={row['r_or_t']}: {est} +- {se} against "
                    f"spectral {exact}"), {}
    return None, {"records": _read(path)}


def check_check(call: Call, out: str, ref: dict):
    report = _json(os.path.join(out, "check_report.json"))
    if report.get("all_passed") is not True:
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        return f"checks failed: {failed}", {}
    return None, {}


CHECKS = {"simulate": check_curves, "density": check_density,
          "zweighted": check_zweighted, "check": check_check}


class Runner:
    """Calls ``cli.main`` with a fresh output directory per call and the
    CLI's standard output captured at the file-descriptor level (the
    ``cmd_*`` functions bind ``sys.stdout`` when the module is imported)."""

    def __init__(self, cli, work: str, reference: dict):
        self.main = cli.main
        self.out = os.path.join(work, "out")
        self.stdout = os.path.join(work, "stdout.txt")
        self.reference = reference
        # calibration samples: one before the first call and one after
        # every call, so consecutive calls share the sample between them
        self.samples = [calibration_sample()]

    def _invoke(self, argv: list) -> int:
        try:
            return self.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            return exc.code if isinstance(exc.code, int) else 2

    def run(self, call: Call, tracer=None) -> Result:
        shutil.rmtree(self.out, ignore_errors=True)
        argv = call.argv + ["--out-dir", self.out]
        sys.stdout.flush()
        saved = os.dup(1)
        try:
            with open(self.stdout, "wb") as capture:
                os.dup2(capture.fileno(), 1)
                t0 = time.perf_counter()
                if tracer is None:
                    rc = self._invoke(argv)
                else:
                    rc = tracer.call("cli", self._invoke, argv)
                wall = time.perf_counter() - t0
                sys.stdout.flush()
        finally:
            os.dup2(saved, 1)
            os.close(saved)
        self.samples.append(calibration_sample())
        scaled = calibrated(wall, *self.samples[-2:])
        if tracer is not None:
            tracer.counts["cli.bytes_written"] += _bytes_under(self.out) \
                + os.path.getsize(self.stdout)
        if rc != 0:
            return Result(call, wall, scaled, f"exit code {rc}")
        try:
            problem, data = CHECKS[call.kind](call, self.out, self.reference)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            problem, data = f"unreadable output: {exc!r}", {}
        return Result(call, wall, scaled, problem, data)


def _bytes_under(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def timed_loop(runner: Runner, groups, seconds: float) -> list:
    """Run groups until the next one, at the pace so far, would end after
    ``seconds``; at least one group runs."""
    done = []
    t0 = time.perf_counter()
    for group in groups:
        done.append([runner.run(call) for call in group])
        elapsed = time.perf_counter() - t0
        if elapsed * (len(done) + 1) / len(done) > seconds:
            break
    return done


def pooled_problem(results: list, ref: dict) -> str | None:
    """Pooled hit frequency per radius within POOLED_SIGMAS combined
    binomial standard errors of the reference frequency."""
    n = sum(r.call.paths for r in results)
    for radius in RADII:
        p = sum(r.data["counts"][radius] for r in results) / n
        p_ref = ref["counts"][str(radius)] / ref["n_paths"]
        var = p_ref * (1.0 - p_ref)
        se = math.sqrt(var / n + var / ref["n_paths"])
        if abs(p - p_ref) > POOLED_SIGMAS * se:
            return (f"pooled frequency {p:.5f} at r={radius} over {n} paths "
                    f"is off the reference {p_ref:.5f} by more than "
                    f"{POOLED_SIGMAS:g} x {se:.5f}")
    return None


def split_results(runner: Runner, spec: dict, whole: Result) -> list:
    """Re-run the range of ``whole`` as two sub-ranges; their counts must
    add up exactly to the whole range's."""
    start, n = whole.call.start, whole.call.paths
    master = int(whole.call.argv[whole.call.argv.index("--master-seed") + 1])
    half = n // 2
    parts = [runner.run(curve_call(spec, master, start, half)),
             runner.run(curve_call(spec, master, start + half, n - half))]
    if whole.problem is None and all(p.problem is None for p in parts):
        for radius in RADII:
            total = sum(p.data["counts"][radius] for p in parts)
            if total != whole.data["counts"][radius]:
                for p in parts:
                    p.problem = (f"split counts at r={radius} add up to "
                                 f"{total}, whole range "
                                 f"{whole.data['counts'][radius]}")
                break
    return parts


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def call_stats(walls: list) -> dict:
    """Median and the highest percentile with at least ten calls beyond
    it (None when there are fewer than eleven calls)."""
    in_order, walls = walls, sorted(walls)
    k = len(walls) - 10
    return {"n": len(walls), "walls": in_order,
            "p50": statistics.median(walls),
            "tail": walls[k - 1] if k >= 1 else None,
            "tail_percentile": math.floor(100 * k / len(walls))
            if k >= 1 else None}


def end_to_end(setup: list, stats: dict, results: list,
               wall=lambda r: r.scaled) -> dict:
    """End-to-end metrics from the per-command ``stats`` and the results'
    ``wall`` times."""
    path_calls = [r for r in results if r.call.paths]
    values = {
        "setup_s": statistics.median(setup),
        # geometric mean of the per-command medians: the plain median for
        # a one-command workload, equal weight per command in lab_k6
        "call_s.p50": statistics.geometric_mean(
            s["p50"] for s in stats.values()),
        "paths_per_s": sum(r.call.paths for r in path_calls)
        / sum(wall(r) for r in path_calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool,
            spec: dict | None = None, reference: dict | None = None,
            setup_samples: int = SETUP_SAMPLES) -> tuple[dict, dict]:
    """Run one workload; returns (details, summary).

    ``spec`` overrides entries of the workload's definition and
    ``reference`` replaces its recorded reference (both for tests).
    """
    spec = {**WORKLOADS[workload], **(spec or {})}
    if reference is None:
        reference = _json(os.path.join(HERE, "reference.json"))[workload]
    base = os.path.join(os.getcwd(), ".bench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=base)
    try:
        return _measure(workload, seed, seconds, trace, spec, reference,
                        setup_samples, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run still uses it


def _measure(workload, seed, seconds, trace, spec, reference, setup_samples,
             work):
    setup = [] if trace else [setup_sample(workload)
                              for _ in range(setup_samples)]
    cli = load_program()
    tracer = None
    if trace:
        import layers
        tracer = layers.Tracer()
        tracer.install()  # so that the drift table's fill is timed
    try:
        warm_caches(spec)
    finally:
        if tracer is not None:
            tracer.uninstall()
    runner = Runner(cli, work, reference)
    groups = timed_loop(runner, plan(spec, seed),
                        seconds / 2 if trace else seconds)
    timed = [r for g in groups for r in g]
    checked = list(timed)
    if spec["method"] != "lab":
        if all(r.problem is None for r in timed):
            problem = pooled_problem(timed, reference)
            for r in timed:
                r.problem = problem
        checked += split_results(runner, spec, timed[0])

    traced = []
    if trace:
        tracer.install()
        try:
            for r in timed:
                before = len(tracer.violations)
                t = runner.run(r.call, tracer)
                if t.problem is None and len(tracer.violations) > before:
                    t.problem = tracer.violations[-1]
                if t.problem is None and \
                        t.data.get("records") != r.data.get("records"):
                    t.problem = "traced records differ from untraced ones"
                traced.append(t)
        finally:
            tracer.uninstall()
        checked += traced

    by_kind: dict = {}
    for r in timed:
        by_kind.setdefault(r.call.kind, []).append(r)
    stats = {k: call_stats([r.scaled for r in rs])
             for k, rs in by_kind.items()}
    raw_stats = {k: call_stats([r.wall for r in rs])
                 for k, rs in by_kind.items()}
    details = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": int(trace), "provenance": provenance(),
               "inputs": {"master_seed": master_seed(seed), **spec,
                          "calls": len(timed)},
               "call_s": stats, "raw_call_s": raw_stats}
    if trace:
        untraced_s = sum(r.scaled for r in timed)
        traced_s = sum(t.scaled for t in traced)
        metrics = tracer.metrics(sum(t.wall for t in traced),
                                 traced_s / untraced_s - 1.0)
        details["traced_pass"] = {
            "untraced_s": untraced_s, "traced_s": traced_s,
            "records_equal": all(t.data.get("records") == r.data.get(
                "records") for t, r in zip(traced, timed))}
    else:
        metrics = end_to_end([c for _, c in setup], stats, timed)
        details["raw"] = end_to_end([w for w, _ in setup], raw_stats, timed,
                                    wall=lambda r: r.wall)
        details["setup_s_samples"] = setup

    details["calibration_s"] = runner.samples
    failures = [f"{r.call.kind} {' '.join(r.call.argv[1:])}: {r.problem}"
                for r in checked if r.problem is not None]
    details["fail_frac"] = len(failures) / len(checked)
    details["failures"] = failures
    summary = {"correct": not failures, "attempted": len(checked),
               "failed": len(failures), "metrics": metrics}
    return details, summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.environ.update(BLAS_THREADS)  # before anything imports numpy
    if not os.path.isfile(os.path.join("src", "twocurve", "cli.py")):
        print("run.py: no src/twocurve in the current directory; run it "
              "from the root of a twocurve checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        before = calibration_sample()
        t0 = time.perf_counter()
        load_program()
        warm_caches(WORKLOADS[args.workload])
        wall = time.perf_counter() - t0
        print(wall, before, calibration_sample())
        return 0
    details, summary = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
