"""Record the reference outputs that run.py checks every call against.

Run from the repository root (about five minutes):

    python3 benchmarks/make_reference.py

The hit counts come from one large run per curve workload.  The lab entry
holds the deterministic outputs of ``twocurve density`` (Z_constant, the
spectral survival at the z-weighted times, every PZ_T_STRIDE-th row of
pz_t.csv) and the stderr of a 2000-path z-weighted estimate, scaled from
one large run.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

import run

REF_MASTER_SEED = 987654321
REF_PATHS = {"hit_k6": 4000, "meet_k7.5": 2000, "lab_k6": 40000}
PZ_T_STRIDE = 97


def main() -> int:
    os.environ.update(run.BLAS_THREADS)
    cli = run.load_program()
    reference = {}
    with tempfile.TemporaryDirectory() as work:
        for name in ("hit_k6", "meet_k7.5"):
            n = REF_PATHS[name]
            spec = run.WORKLOADS[name]
            run.warm_caches(spec)
            call = run.curve_call(spec, REF_MASTER_SEED, 0, n)
            if cli.main(call.argv + ["--out-dir", work]) != 0:
                return 1
            problem, data = run.check_curves(call, work, {})
            if problem:
                print(problem, file=sys.stderr)
                return 1
            reference[name] = {
                "master_seed": REF_MASTER_SEED, "n_paths": n,
                "counts": {str(r): k for r, k in data["counts"].items()}}
        kappa = str(run.WORKLOADS["lab_k6"]["kappa"])
        if cli.main(["density", "--kappa", kappa, "--out-dir", work]) != 0:
            return 1
        meta = run._json(os.path.join(work, "density_meta.json"))
        survival = {float(r["t"]): float(r["survival"])
                    for r in run._rows(os.path.join(work, "survival.csv"))}
        rows = run._rows(os.path.join(work, "pz_t.csv"))
        n = REF_PATHS["lab_k6"]
        if cli.main(["simulate", "--method", "z-weighted", "--kappa", kappa,
                     "--n-paths", str(n), "--t-list",
                     ",".join(map(str, run.Z_TIMES)), "--master-seed",
                     str(REF_MASTER_SEED), "--out-dir", work]) != 0:
            return 1
        stderr = {float(r["r_or_t"]): float(r["stderr"])
                  for r in run._rows(os.path.join(work, "estimates.csv"))}
        reference["lab_k6"] = {
            "Z_constant": meta["Z_constant"],
            "survival": {str(t): survival[t] for t in run.Z_TIMES},
            "zweighted_stderr_2000": {
                str(t): stderr[t] * (n / 2000) ** 0.5 for t in run.Z_TIMES},
            "pz_t": [[i] + [float(rows[i][k]) for k in ("t", "z1", "z2",
                                                        "value")]
                     for i in range(0, len(rows), PZ_T_STRIDE)]}
    path = os.path.join(run.HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
