"""The perf checker judges only what its inputs declare.

``benchmarks/perf/check_trend.py`` is loaded by path and fed fabricated
rows of the e2e trajectory; bounds and directions come from the real
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
    """``check(rows) -> (exit code, stdout)``."""
    spec = importlib.util.spec_from_file_location(
        "check_trend", ROOT / "benchmarks" / "perf" / "check_trend.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "HISTORY", tmp_path / "history.jsonl")

    def run(rows):
        module.HISTORY.write_text(
            "".join(json.dumps(r) + "\n" for r in rows))
        return module.main(), capsys.readouterr().out

    return run


def test_history_row_worse_than_its_bound_fails(check):
    first = DECLARED[0]
    over, under = first["bound"] + 0.05, first["bound"] - 0.05
    steady = [row(), row(SAME_SHAPE), row()]
    code, out = check(steady + [row(worse=over)])
    assert code == 1
    assert f"e2e sim_hotspot {first['name']}" in out
    assert out.splitlines()[-1] == (
        f"e2e trend: {len(DECLARED)} compared, 0 skipped, 1 failed")
    code, _ = check(steady + [row(worse=under)])
    assert code == 0
    # traced rows carry the layer table, not the bounded metrics; and the
    # newest row of every workload is judged, not only the file's last
    code, _ = check(steady + [row(worse=over), row(trace=True),
                              row(workload="live_shed")])
    assert code == 1


def test_history_row_without_a_same_shape_predecessor_is_skipped(check):
    for newest in (row(OTHER_BOX, worse=0.9), row(seed=2, worse=0.9)):
        code, out = check([row(), row(), newest])
        assert code == 0
        assert "skip" in out
    # comparing nothing is said out loud, whether every comparison was
    # skipped or the history is empty
    for rows, skipped in (([row(worse=0.9)], len(DECLARED)), ([], 0)):
        code, out = check(rows)
        assert code == 0
        assert "NOTHING COMPARED" in out and "machine shape" in out
        assert out.splitlines()[-1] == (
            f"e2e trend: 0 compared, {skipped} skipped, 0 failed")
