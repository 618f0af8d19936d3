"""The perf checker judges only what its inputs declare.

``benchmarks/perf/check_trend.py`` is loaded by path and fed fabricated
reports (tiers carrying their own ``gates``) and fabricated rows of the
e2e trajectory; bounds and directions for the latter come from the real
``BENCHMARK.json``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

BOX = {"nproc": 2, "cpu": "Xeon 2.1 GHz", "python": "3.11.7",
       "platform": "Linux-6.1-a"}
#: the same machine shape in another sandbox: only the kernel build differs
SAME_SHAPE = dict(BOX, platform="Linux-6.1-b")
OTHER_BOX = dict(BOX, nproc=8)


def report(fingerprint=BOX, **tiers):
    return {"fingerprint": fingerprint, "tiers": tiers}


def tier(speedup=10.0, identical=True, tolerance=0.2, skip_reason=None):
    return {"speedup": speedup, "identical": identical,
            "skip_reason": skip_reason,
            "gates": [{"metric": "identical", "kind": "true"},
                      {"metric": "speedup", "kind": "trend",
                       "better": "higher", "tolerance": tolerance}]}


def row(fingerprint=BOX, seed=1, trace=False, workload="sim_hotspot",
        worse=0.0):
    """One history row, its first declared metric ``worse`` by that share."""
    metrics = {m["name"]: 100.0 for m in DECLARED}
    first = DECLARED[0]
    metrics[first["name"]] *= (1.0 - worse if first["better"] == "higher"
                               else 1.0 + worse)
    return {"commit": "c0ffee", "fingerprint": fingerprint,
            "workload": workload, "seed": seed, "seconds": 25.0,
            "trace": trace, "metrics": metrics}


@pytest.fixture
def check(tmp_path, monkeypatch, capsys):
    """``check(baseline, fresh, rows) -> (exit code, stdout)``."""
    spec = importlib.util.spec_from_file_location(
        "check_trend", ROOT / "benchmarks" / "perf" / "check_trend.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "HISTORY", tmp_path / "history.jsonl")

    def run(baseline, fresh, rows=()):
        for name, doc in (("baseline", baseline), ("fresh", fresh)):
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        module.HISTORY.write_text(
            "".join(json.dumps(r) + "\n" for r in rows))
        code = module.main([str(tmp_path / "baseline.json"),
                            str(tmp_path / "fresh.json")])
        return code, capsys.readouterr().out

    return run


def test_identical_reports_pass(check):
    code, out = check(report(t=tier()), report(SAME_SHAPE, t=tier()))
    assert code == 0
    assert "t.identical" in out and "t.speedup" in out
    assert "skip" not in out


def test_false_true_gate_fails_on_any_machine(check):
    code, _ = check(report(t=tier()),
                    report(OTHER_BOX, t=tier(identical=False)))
    assert code == 1


@pytest.mark.parametrize("fresh_speedup, tolerance, expected", [
    (8.5, 0.2, 0),    # -15% against a 20% tolerance
    (7.5, 0.2, 1),    # -25%
    (7.5, 0.3, 0),    # the same -25% against a gate that declares 30%
    (30.0, 0.2, 0),   # gains never fail
])
def test_trend_gate_applies_its_own_tolerance(check, fresh_speedup,
                                              tolerance, expected):
    code, _ = check(report(t=tier()),
                    report(t=tier(speedup=fresh_speedup,
                                  tolerance=tolerance)))
    assert code == expected


@pytest.mark.parametrize("baseline, fresh", [
    (report(t=tier()), report(OTHER_BOX, t=tier(speedup=1.0))),
    (report(t=tier()), report(t=tier(speedup=1.0, skip_reason="1 cpu"))),
    (report(t=tier(skip_reason="1 cpu")), report(t=tier(speedup=1.0))),
])
def test_trend_skipped_across_machine_shapes_or_on_skip_reason(
        check, baseline, fresh):
    code, out = check(baseline, fresh)
    assert code == 0
    assert "t.speedup: skip" in out


def test_tier_missing_from_fresh_report_fails(check):
    code, _ = check(report(t=tier(), retired=tier()), report(t=tier()))
    assert code == 1
    # deleted from the baseline too, the same fresh report passes; a tier
    # the baseline has never seen is judged on its true gates only
    code, out = check(report(t=tier()), report(t=tier(), new=tier()))
    assert code == 0
    assert "new.speedup: skip" in out


def test_history_row_worse_than_its_bound_fails(check):
    first = DECLARED[0]
    over, under = first["bound"] + 0.05, first["bound"] - 0.05
    steady = [row(), row(SAME_SHAPE), row()]
    code, out = check(report(), report(), steady + [row(worse=over)])
    assert code == 1
    assert f"e2e sim_hotspot {first['name']}" in out
    code, _ = check(report(), report(), steady + [row(worse=under)])
    assert code == 0
    # traced rows carry the layer table, not the bounded metrics; and the
    # newest row of every workload is judged, not only the file's last
    code, _ = check(report(), report(),
                    steady + [row(worse=over), row(trace=True),
                              row(workload="live_shed")])
    assert code == 1


def test_history_row_without_a_same_shape_predecessor_is_skipped(check):
    for newest in (row(OTHER_BOX, worse=0.9), row(seed=2, worse=0.9)):
        code, out = check(report(), report(), [row(), row(), newest])
        assert code == 0
        assert "skip" in out
    code, out = check(report(), report(), [row(worse=0.9)])
    assert code == 0 and "skip" in out
