"""Golden pins for the merged entry actuators: the draws must not move.

Every expected value below was captured from a ``git archive`` of 522a8d3,
where each entry policy was an ``XActuator(XShedder(...))`` pair; the
single-class policies must consume their RNGs in the same order and arm
the same ``alpha``, float for float. The two in-network trajectories were
recorded while the shedders still carried a load-amount verb beside
``shed_tuples``; culling must not have depended on it.
"""

import hashlib
import random

import pytest

from repro.core import (
    EntryActuator,
    PriorityEntryActuator,
    SemanticEntryActuator,
)
from repro.experiments import (
    ExperimentConfig,
    make_workload,
    run_strategy,
    runner,
)
from repro.workloads import fig14_cost_trace

INF = float("inf")


def bits(actuator, n, draw=lambda: ((), "")):
    return "".join("1" if actuator.admit(*draw()) else "0" for _ in range(n))


def test_entry_coin_and_cap_sequence():
    # the cap binds from the third period on (the second arms 0.3 < 0.5)
    act = EntryActuator(rng=random.Random(7), alpha_cap=0.5)
    schedule = [(INF, 0.0), (70.0, 100.0), (10.0, 100.0),
                (100.0, 100.0), (0.0, 50.0)]
    rows, alphas = [], []
    for allowed, inflow in schedule:
        act.begin_period(allowed, inflow)
        alphas.append((act.alpha, act.requested_alpha))
        rows.append(bits(act, 16))
    assert rows == ["1111111111111111", "1010110101001100",
                    "1110101000010110", "1111111111111111",
                    "1000100100110111"]
    # the cap bounds every binding period; requested_alpha stays uncapped
    assert alphas == [(0.0, 0.0), (0.30000000000000004, 0.30000000000000004),
                      (0.5, 0.9), (0.0, 0.0), (0.5, 1.0)]
    assert (act.offered_total, act.dropped_total) == (80, 24)


@pytest.mark.parametrize("alpha_cap, dropped, digest", [
    (1.0, 6964,
     "8e6ab76758f286cf7f801d02a4f7d696a4d68fe35100ce74cd78a4ee7b3052bc"),
    (0.3, 6902,
     "2d3c0fcc05a952938ec7afa9fa7bd3e4844527e115a3005b448ed8778c771ad3"),
])
def test_closed_loop_trajectory_unchanged(alpha_cap, dropped, digest):
    cfg = ExperimentConfig(duration=120, engine_backend="fluid")
    cost = fig14_cost_trace(int(cfg.duration), base_cost=cfg.base_cost,
                            seed=cfg.seed)
    rec = run_strategy("CTRL", make_workload("web", cfg), cfg,
                       cost_trace=cost, alpha_cap=alpha_cap)
    assert (rec.offered_total, rec.entry_dropped_total) == (27494, dropped)
    text = "\n".join(
        f"{p.offered},{p.admitted},{float(p.alpha).hex()},"
        f"{float(p.delay_estimate).hex()}" for p in rec.periods)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("actuator, dropped, digest", [
    ("queue", 4129,
     "7ba816b26b00c9848f50f6839a7c6f1d2c071b20e59ab1c0ad6219e243dda3c1"),
    ("lsrm", 4111,
     "91d5340fdb9000a00e87350499488e1f4ae18137835bc8e450abe1d1d2a31f26"),
])
def test_in_network_trajectory_unchanged(monkeypatch, actuator, dropped,
                                         digest):
    made = []  # run_strategy returns the record, not the actuator

    class Recorded(runner.InNetworkActuator):
        def __init__(self, shedder):
            super().__init__(shedder)
            made.append(self)

    monkeypatch.setattr(runner, "InNetworkActuator", Recorded)
    cfg = ExperimentConfig(duration=60)
    cost = fig14_cost_trace(int(cfg.duration), base_cost=cfg.base_cost,
                            seed=cfg.seed)
    rec = run_strategy("CTRL", make_workload("web", cfg), cfg,
                       cost_trace=cost, actuator=actuator)
    assert (rec.offered_total, made[0].dropped_total) == (13831, dropped)
    text = "\n".join(
        f"{p.offered},{p.admitted},{p.shed_retro},{p.queue_length},"
        f"{float(p.delay_estimate).hex()}" for p in rec.periods)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_semantic_admit_sequence():
    act = SemanticEntryActuator(utility=lambda v: v[0], window=64,
                                dither=0.05, rng=random.Random(11))
    vals = random.Random(12)
    rows = []
    for allowed, inflow in [(INF, 0.0), (60.0, 100.0), (0.0, 100.0),
                            (25.0, 100.0), (100.0, 100.0)]:
        act.begin_period(allowed, inflow)
        rows.append(bits(act, 40,
                         lambda: ((round(vals.random(), 1),), "s")))
    assert rows == ["1111111111111111111111111111111111111111",
                    "1111101111111100111101110101010100010100",
                    "0000000000000000000000000000000000000000",
                    "0000000100010011100100000000101100000010",
                    "1111111111111111111111111111111111111111"]
    assert (act.offered_total, act.dropped_total) == (200, 84)
    assert act.utility_retention == float.fromhex("0x1.39963fde7eb0bp-1")


def test_priority_admit_sequence():
    act = PriorityEntryActuator({"gold": 2.0, "silver": 1.0, "bronze": 1.0},
                                rng=random.Random(13))
    srcs = random.Random(14)
    names = ["gold"] + ["silver"] * 3 + ["bronze"] * 6
    rows = []
    for allowed, inflow in [(INF, 0.0), (40.0, 40.0), (20.0, 40.0),
                            (3.0, 40.0), (0.0, 40.0)]:
        act.begin_period(allowed, inflow)
        rows.append(bits(act, 40, lambda: ((), srcs.choice(names))))
    assert rows == ["1111111111111111111111111111111111111111",
                    "1111111111111111111111111111111111111111",
                    "1000111101011100111101000000101100111111",
                    "0000000000100100000000000100000000000000",
                    "0000000000000000000000000000000000000000"]
    assert (act.offered_total, act.dropped_total) == (200, 94)
    assert act.loss_by_source() == {"gold": 0.4117647058823529,
                                    "silver": 0.45,
                                    "bronze": 0.4878048780487805}


def test_priority_alpha_is_eq13_on_a_skewed_mix():
    """522a8d3 reported the unweighted mean of the per-source probabilities
    (0.25 here); water-filling drops Eq. 13's share of the aggregate."""
    act = PriorityEntryActuator({"gold": 2.0, "bronze": 1.0},
                                rng=random.Random(0))
    act.begin_period(INF, 0.0)
    for source, n in (("gold", 100), ("bronze", 900)):
        for _ in range(n):
            act.admit(source=source)
    act.begin_period(550.0, 1000.0)
    assert act.admit_probability == {"gold": 1.0, "bronze": 0.5}
    assert act.alpha == act.requested_alpha == pytest.approx(0.45)
