"""Smoke test of the benchmark harness on a golden-sized workload.

    python -m pytest perfbench -q

Runs the whole harness (config generation, fresh-process passes, output
checks, tracing) in a few seconds, and checks that the property checks
reject reports that break the identities.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_smoke_untraced_prints_every_end_to_end_metric():
    out = _result(_bench("--workload", "smoke", "--seed", "1",
                         "--seconds", "1", "--trace", "0"))
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] % 55 == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_smoke_traced_counts_repeat_across_seeds():
    runs = [_result(_bench("--workload", "smoke", "--seed", seed,
                           "--seconds", "1", "--trace", "1"))
            for seed in ("1", "2")]
    first, second = (r["metrics"] for r in runs)
    assert {k: v["unit"] for k, v in first.items()} == _declared("per_layer")
    counts = [k for k, v in first.items() if v["unit"] == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["suite.checks"]["value"] == 55
    assert first["quadrature.integrate_algebra_log.nodes"]["value"] > 0
    assert first["cli.main.calls"]["value"] == 1
    # inclusive time covers the self time of everything below it
    assert first["cli.main.s"]["value"] >= first["suite.run_suite.s"]["value"]
    assert first["suite.run_suite.self_s"]["value"] < first["suite.run_suite.s"]["value"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "torus-all", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _bks_report(label, s, sp, exponent, tol=1e-10):
    factor = math.exp(-0.5 * (s - sp) * exponent)
    return {"key": f"bks-factor/torus/{label}/s={s:g}:sp={sp:g}",
            "identity": "bks-factor", "passed": True, "tolerance": tol,
            "params": {"s": s, "s_prime": sp, "irrep": str(label)},
            "lhs": [factor, 0.0]}


def _torus_reports(slope=0.7, offset=0.0):
    return [_bks_report((k,), s, sp, offset + slope * k * k)
            for k in (-2, -1, 1, 2, 3) for s, sp in ((0.5, 1.0), (1.0, 3.0))]


def test_properties_hold_on_exact_factors():
    assert checks.property_problems("torus", _torus_reports()) == []


def test_properties_catch_broken_identities():
    reports = _torus_reports()
    reports[0]["lhs"][0] *= 1.0 + 1e-6  # one cell drifts from the others
    assert checks.property_problems("torus", reports)
    curved = [_bks_report((k,), 0.5, 1.0, 0.7 * k**4) for k in (1, 2, 3)]
    assert checks.property_problems("torus", curved)  # not affine in k^2
    duals = [_bks_report((1, 0), 1.0, 0.5, 2.0, 1e-6),
             _bks_report((0, 1), 1.0, 0.5, 2.1, 1e-6)]
    assert checks.property_problems("su3", duals)  # duals must agree
    unitary = {"key": "u", "identity": "unitarity", "tolerance": 1e-6,
               "params": {}, "lhs": [1.0 + 1e-5, 0.0]}
    assert checks.property_problems("torus", [unitary])
    flat = {"key": "p", "identity": "prequantum", "tolerance": 1e-3,
            "params": {}, "lhs": [1.0 + 1e-4, 0.0]}
    assert checks.property_problems("su2", [flat])


def test_missing_named_checks_are_reported():
    expected = checks.expected_keys("su3", ("bks-factor", "prequantum"),
                                    (0.25, 1.0, 3.0), (0.0, 0.5, 3.0))
    assert expected == {"bks-factor/su3/(1, 0)/s=1:sp=0.5",
                        "bks-factor/su3/(0, 1)/s=1:sp=0.5", "prequantum/su3"}
    problems, extra = checks.pass_problems(
        {"reports": [_bks_report((1, 0), 1.0, 0.5, 2.0, 1e-6) | {
            "key": "bks-factor/su3/(1, 0)/s=1:sp=0.5"}]}, expected, "su3")
    assert any("missing" in p for p in problems) and extra == 0
