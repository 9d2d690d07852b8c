"""Tests of the benchmark itself.

Run from the root of a checkout: python3 -m pytest bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import layers  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import (THERMAL_CANDIDATES, WORKLOADS, Invocation,  # noqa: E402
                       expected_output, thermal_config)

# acceptance goldens the stored references must reproduce
EBS_RING8_S1 = (1, -10.15855702881762)
E0_RING8_S1 = -11.33695607789737
E0_RING16_S12 = -7.142296360616776


def reference(name, tag, smoke=False):
    path = os.path.join(BENCH, "reference", "smoke" if smoke else "", f"{name}.{tag}.csv")
    with open(path) as fh:
        return fh.read()


def records(text):
    header, *rows = check.rows(text)
    return [dict(zip(header, row)) for row in rows]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


# --- spans and self time -------------------------------------------------

def test_self_time_subtracts_child_coverage():
    spans = [
        {"id": 0, "name": "root", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "b", "parent": 0, "start": 3.0, "end": 6.0},   # overlaps a
        {"id": 3, "name": "leaf", "parent": 1, "start": 2.0, "end": 3.5},
        {"id": 4, "name": "late", "parent": 2, "start": 5.5, "end": 7.0},  # ends after b
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.5, 2.5, 1.5, 1.5])


def test_tracer_records_parents_and_attributes():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1, lambda a, k, r: {"out": r})
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    names = [(s["name"], s["parent"], s.get("out")) for s in tracer.spans]
    assert names == [("outer", None, None), ("inner", 0, 2), ("inner", 0, 2)]
    # outer runs 0..5; its children cover 1..2 and 3..4
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]
    counts = layers.counters(tracer.spans)
    assert counts["inner.calls"] == 2 and counts["outer.s"] == 3.0


def test_merge_sums_counts_and_keeps_maxima():
    merged = layers.merge([{"lapack.eigh.calls": 2, "lapack.eigh.dim_max": 8},
                           {"lapack.eigh.calls": 3, "lapack.eigh.dim_max": 5}])
    assert merged == {"lapack.eigh.calls": 5, "lapack.eigh.dim_max": 8}


# --- output check --------------------------------------------------------

def test_check_accepts_reference_and_rejects_perturbations():
    ref = reference("scan-ring8-s1", "ring")
    assert check.mismatches(ref, ref) == []
    e_bs = records(ref)[0]["e_bs"]
    near = "%.12e" % (float(e_bs) + 1e-8)
    far = "%.12e" % (float(e_bs) + 1e-5)
    assert check.mismatches(ref.replace(e_bs, near, 1), ref) == []
    assert check.mismatches(ref.replace(e_bs, far, 1), ref)
    assert check.mismatches(ref.replace(",true,", ",false,"), ref)      # is_global_min
    assert check.mismatches(ref.replace("\n1,1,", "\n5,1,", 1), ref)  # n_a
    assert check.mismatches(ref.rsplit("\n", 2)[0] + "\n", ref)       # missing row


def test_check_rejects_perturbed_reference_value():
    out = reference("ground-ring15-16-s12", "even")
    ref = out.replace("-7.142296360617e+00", "-7.142396360617e+00")
    assert check.mismatches(out, ref) == ["row 1 e0: '-7.142296360617e+00' != "
                                          "'-7.142396360617e+00'"]


def test_thermal_expected_output_keeps_drawn_crossings_in_order():
    ref = reference("thermal-ring14-s12", "ring")
    inv = Invocation("ring", "thermal", thermal_config(False, [-3.0, -0.5]))
    rows = records(expected_output(ref, inv))
    crossings = [r["energy"] for r in rows if r["kind"] == "crossing"]
    assert crossings == ["-3.000000000000e+00", "-5.000000000000e-01"]
    assert sum(r["kind"] == "curve" for r in rows) == 21


# --- references against known values --------------------------------------

def test_scan_reference_matches_golden():
    rows = records(reference("scan-ring8-s1", "ring"))
    best = [r for r in rows if r["is_global_min"] == "true"]
    assert len(best) == 1
    assert int(best[0]["n_a"]) == EBS_RING8_S1[0]
    assert abs(float(best[0]["e_bs"]) - EBS_RING8_S1[1]) < check.GOLDEN_TOL


def test_defect_reference_homogeneous_member_matches_goldens():
    rows = [r for r in records(reference("defect-ring8-s1", "ring"))
            if r["defect_spin"] == "1"]
    assert [int(r["k"]) for r in rows] == list(range(1, 9))
    for r in rows:
        assert abs(float(r["e0"]) - E0_RING8_S1) < check.GOLDEN_TOL
        assert abs(float(r["ebs_k"]) - EBS_RING8_S1[1]) < check.GOLDEN_TOL


def test_ground_references():
    even = records(reference("ground-ring15-16-s12", "even"))[0]
    assert abs(float(even["e0"]) - E0_RING16_S12) < check.GOLDEN_TOL
    assert even["degenerate"] == "false" and float(even["gap"]) > 0.1
    odd = records(reference("ground-ring15-16-s12", "odd"))[0]
    assert float(odd["gap"]) == 0.0 and odd["degenerate"] == "true"
    assert abs(float(odd["s_squared"]) - 0.75) < check.GOLDEN_TOL


def test_thermal_reference_crossings_are_consistent_with_curve():
    rows = records(reference("thermal-ring14-s12", "ring"))
    curve = [(float(r["temperature"]), float(r["energy"])) for r in rows if r["kind"] == "curve"]
    crossing = {float(r["energy"]): float(r["temperature"]) for r in rows
                if r["kind"] == "crossing"}
    assert sorted(crossing) == sorted(THERMAL_CANDIDATES)
    assert all(e0 < e1 for (_, e0), (_, e1) in zip(curve, curve[1:]))
    assert curve[0][1] < min(THERMAL_CANDIDATES)
    for ebs, tstar in crossing.items():
        below = [t for t, e in curve if e < ebs]
        above = [t for t, e in curve if e > ebs]
        assert max(below) < tstar and (not above or tstar < min(above))


# --- the benchmark end to end ----------------------------------------------

def test_benchmark_json_lists_the_workloads_and_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: w.why for name, w in WORKLOADS.items()}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run(workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("--workload", "scan-ring8-s1", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
