"""Tests of the benchmark itself: seeded generation, self time, the output
checks, and span counts that must add up on real traced ops.

Run from the repository root: python3 -m pytest bench -q
"""

import json
import os
import subprocess
import sys

import pytest

import checks
import layers
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_seeded_and_work_is_fixed(name):
    a, b, c = (workloads.generate(name, s) for s in (3, 3, 4))
    assert a == b
    assert [op.units for op in a] == [op.units for op in c]
    assert [[spec[:3] for spec in op.setup] for op in a] == [[spec[:3] for spec in op.setup] for op in c]
    if name != "exact-curves":
        assert [op.argv for op in a] != [op.argv for op in c]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.PER_LAYER


def test_known_defects_are_ops_of_exact_curves():
    names = {op.name for op in workloads.generate("exact-curves", 0)}
    assert set(workloads.KNOWN_DEFECTS) <= names


def test_self_time_subtracts_union_of_children():
    # parent 0..100 ns with two overlapping children (10..50, 40..60) and
    # one child clipped at the parent's end (90..120)
    spans = [[1, 0, "mc.run_blocks", 0, 100, None],
             [2, 1, "mc.block", 10, 50, None],
             [3, 1, "mc.block", 40, 60, None],
             [4, 1, "mc.block", 90, 120, None]]
    t = layers.Trace({"import_s": 0.0, "spans": spans})
    assert t.self_time(t.spans[1]) == pytest.approx(40e-9)


def test_consistency_check_catches_a_wrong_value():
    p = {"d_rule": "fixed:5", "theta_rule": "decay:c=1", "grid": [100], "alpha": 0.05}
    lam = checks.consistency_lambda("decay:c=1", 100, 5)
    good = checks.chi2_power(5, lam)
    text = f"n,d,criterion,exact_chi2_power\n100,5,{lam / 5 ** 0.5!r},{good!r}\n"
    assert checks.check_output("consistency", p, text).problems == []
    bad = text.replace(repr(good), repr(good + 1e-6))
    verdict = checks.check_output("consistency", p, bad)
    assert verdict.oracle_fail == 1 and verdict.problems


def _traced(op, tmp_path, workers=1):
    spans = tmp_path / "spans.json"
    args = ["--", *op.argv, "--workers", str(workers)]
    traced = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "traced_cli.py"), str(spans), *args],
                            cwd=ROOT, env=ENV, capture_output=True, check=True)
    plain = subprocess.run([sys.executable, "-m", "hdpower.cli", *args[1:]],
                           cwd=ROOT, env=ENV, capture_output=True, check=True)
    assert traced.stdout == plain.stdout, "tracing changed stdout"
    with open(spans, encoding="utf-8") as fh:
        return layers.Trace(json.load(fh))


def _mc_units(t):
    """Rows of outermost evaluations inside estimates and scans."""
    return sum(s[5]["rows"] for s in t.outer_evals()
               if t.under(s, "mc.estimate") or t.under(s, "mixture.scan"))


def _op(workload, name):
    return next(op for op in workloads.generate(workload, 1) if op.name == name)


@pytest.mark.parametrize("workload,name", [
    ("spike-scan", "blind-spot-halfspace"),
    ("spike-scan", "demo-linear"),
    ("obs-regime", "wald-regime"),
    ("obs-regime", "tscore-n1000"),
    ("wide-simulate", "spike-at-zero"),
])
def test_span_counts_add_up(workload, name, tmp_path):
    op = _op(workload, name)
    t = _traced(op, tmp_path)
    assert t.block_rows_problems() == []
    assert _mc_units(t) == op.units
    evals, blocks = t.scan_counts()
    if op.kind in ("blind-spot", "demo"):
        assert evals == blocks * (op.params["d"] + 1)
    else:
        assert evals == blocks == 0
    m = layers.layer_metrics([t], [])
    if name == "spike-at-zero":
        assert m["models.useful_elem_frac"] == pytest.approx(1.0 / op.params["d"])
    if name == "tscore-n1000":
        assert m["testfuncs.calibration_normals"] == 2 * 1_000_000


def test_w2_busy_fraction_is_a_fraction(tmp_path):
    t = _traced(_op("spike-scan", "blind-spot-halfspace"), tmp_path, workers=2)
    busy = layers.layer_metrics([], [t])["mc.w2_busy_frac"]
    assert 0.25 < busy <= 1.0
