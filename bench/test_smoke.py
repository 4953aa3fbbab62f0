"""Smoke test of the benchmark at tiny sizes:

    python3 -m pytest bench/test_smoke.py -q

It checks that every metric is printed by name with its unit, that the
output checks run and catch a wrong row, that the names match
BENCHMARK.json, and that a traced run puts every module binding back.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

import run

run.load_package()

import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "commutator": {"seed": 1, "dims": [2, 4], "pq_pairs": [[1, 2], [1, "inf"]], "trials": 1},
    "truncation": {"seed": 1, "dims": [2, 4, 32, 128], "pq_pairs": [[2, 2], [2, 4], [1, 1]],
                   "trials": 1, "search": {"restarts": 2}},
    "psumming": {"seed": 1, "dims": [2, 4], "pq_pairs": [[1.5, 1.5]], "trials": 1},
    "cli_default": {"dims": [2, 4], "trials": 1},
}


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], config=lambda seed: TINY[name])


def bindings():
    """id of every value bound in a doilab namespace or the runner table."""
    return {(via, id(ns), key): id(value) for ns, via in tracing.binding_sites() for key, value in ns.items()}


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER
    ]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_every_metric(name, trace, tmp_path):
    before = bindings()
    lines, result = run.measure(tiny(name), 7, 0.0, trace, tmp_path)
    assert bindings() == before
    expected = tracing.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == {m for m, _, _ in expected}
    for metric, unit, _ in expected:
        assert any(line.startswith(f"{metric} ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("failed_share 0 fraction") for line in lines)
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    assert json.loads(json.dumps(result)) == result


def test_traced_run_restores_bindings_after_an_error():
    schur = sys.modules["doilab.schur"]
    original = schur.opnorm
    before = bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert schur.opnorm is not original
            raise RuntimeError("stop")
    assert schur.opnorm is original
    assert bindings() == before


# (workload, CSV rows, failed checks, missed targets)
@pytest.mark.parametrize("name, body, failures, missed", [
    ("commutator",
     "commutator_ratios,4,1,2,0,identity_ratio,0.99999999999999989,exact,1\n"
     "commutator_ratios,4,1,2,0,normalized_ratio,1.5,exact,1\n"
     "commutator_ratios,4,1,2,1,rejection_exhausted,1,flagged,1\n", 3, 0),
    ("truncation",
     "truncation_growth,2,1,1,0,multiplier_norm,0.5,exact,1\n"
     "truncation_growth,128,2,2,0,multiplier_norm,1.25,lower_bound,1\n"
     "truncation_growth,128,2,2,0,multiplier_norm,nan,maybe,1\n"
     "truncation_growth,0,2,2,0,fit_slope,0.099,derived,1\n", 8, 1),
    ("psumming",
     "psumming_check,4,1.5,1.5,0,satisfied_abs,0,exact,1\n"
     "psumming_check,4,1.5,1.5,0,tightness_abs,1.01,exact,1\n", 2, 0),
])
def test_checks_catch_a_wrong_row(name, body, failures, missed):
    rows = workloads.parse_csv("experiment,n,p,q,trial,metric,value,certainty,seed_used\n" + body)
    checks = workloads.Checks()
    workloads.check_rows(rows, checks)
    workloads.WORKLOADS[name].check(rows, checks)
    assert len(checks.failures) == failures, checks.failures
    assert len(checks.missed) == missed, checks.missed
    assert checks.failed_share() == (failures + missed) / (checks.attempted + checks.targets)
