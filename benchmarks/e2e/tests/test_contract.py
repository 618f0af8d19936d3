"""``BENCHMARK.json`` and the benchmark's own tables must not drift apart."""

import json
from pathlib import Path

import pytest

import metrics
import workloads

MANIFEST = Path(__file__).resolve().parents[3] / "BENCHMARK.json"


@pytest.fixture(scope="module")
def manifest():
    if not MANIFEST.exists():
        pytest.skip("no BENCHMARK.json beside this checkout")
    return json.loads(MANIFEST.read_text())


def test_workloads_match(manifest):
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] \
        == [(w.name, w.why) for w in workloads.WORKLOADS]
    assert all(len(w.why) <= 200 for w in workloads.WORKLOADS)


def test_end_to_end_metrics_match(manifest):
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]] == list(metrics.END_TO_END)


def test_per_layer_metrics_match(manifest):
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == list(metrics.PER_LAYER)


def test_run_seconds_and_paths(manifest):
    assert manifest["run_seconds"] == workloads.NOMINAL_SECONDS
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["command"] == ["python3", "benchmarks/e2e/run.py"]


def test_reference_rungs_have_a_hundred_periods_together():
    assert (workloads.REFERENCE_RUNS * workloads.REFERENCE_S
            / workloads.PERIOD_S) >= 100


def test_ladder_is_coarse_and_anchored_on_the_reference():
    ladder = workloads.LADDER
    assert ladder[workloads.REFERENCE_RUNG] == 1.0
    assert all(b / a >= 2.0 for a, b in zip(ladder, ladder[1:]))
    # the rung that must pass and the rung that must fail are a factor 4
    # apart, so the verdict does not flicker
    assert ladder[-1] / ladder[-2] >= 4.0
    for w in workloads.WORKLOADS:
        if w.live:
            assert w.rates[workloads.REFERENCE_RUNG] == w.reference_rate


def test_paced_periods_are_whole_blocks():
    import phases
    for w in workloads.WORKLOADS:
        if w.live:
            assert w.paced_periods % phases.BLOCK_PERIODS == 0
