"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest benchmarks/tests     (from the repository root)
"""
from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

TINY = {
    "hit_k6": {"width": 20},
    "meet_k7.5": {"width": 10},
    "lab_k6": {"z_paths": 200,
               "check_args": ["--kappas", "6", "--n-drift-states", "2"]},
}


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _declared(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _bindings() -> dict:
    run.load_program()
    return {(name, attr): id(value)
            for name, module in list(sys.modules.items())
            if name.startswith("twocurve.") and module is not None
            for attr, value in vars(module).items()}


def _measure(workload, trace, reference=None):
    return run.measure(workload, seed=3, seconds=0, trace=trace,
                       spec=TINY[workload], reference=reference,
                       setup_samples=1)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    details, summary = _measure(workload, trace=False)
    assert summary["failed"] == 0, details["failures"]
    assert summary["correct"] and summary["attempted"] >= 1
    got = {k: v["unit"] for k, v in summary["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(v["value"] > 0 for v in summary["metrics"].values())
    assert details["provenance"]["backend"] == "numpy"


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_matches_untraced_and_restores_the_program(workload):
    before = _bindings()
    details, summary = _measure(workload, trace=True)
    assert _bindings() == before
    assert summary["failed"] == 0, details["failures"]
    assert details["traced_pass"]["records_equal"]
    metrics = summary["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _declared(
        "per_layer")
    if workload == "lab_k6":
        assert metrics["hsle.calls"]["value"] == 0
        assert metrics["bflow.calls"]["value"] == 0
        assert metrics["density.basis_s"]["value"] > 0
        assert metrics["zevolve.path_steps"]["value"] > 0
    else:
        assert metrics["hsle.paths"]["value"] > 0
        assert metrics["density.basis_s"]["value"] == 0
        assert metrics["density.tilde_pZ_t_s"]["value"] == 0


def test_corrupted_hit_reference_fails_the_run():
    ref = copy.deepcopy(run._json(os.path.join(BENCH, "reference.json"))[
        "hit_k6"])
    ref["counts"] = {r: ref["n_paths"] for r in ref["counts"]}
    details, summary = _measure("hit_k6", trace=False, reference=ref)
    assert summary["failed"] > 0 and not summary["correct"]
    assert details["fail_frac"] > 0


def test_corrupted_lab_reference_fails_the_density_call():
    ref = copy.deepcopy(run._json(os.path.join(BENCH, "reference.json"))[
        "lab_k6"])
    ref["Z_constant"] *= 1.0 + 1e-4
    details, summary = _measure("lab_k6", trace=False, reference=ref)
    assert summary["failed"] == 1
    assert "Z_constant" in details["failures"][0]


def test_run_without_a_program_exits_nonzero_and_prints_no_result(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "hit_k6", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
