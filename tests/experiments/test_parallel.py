"""The parallel experiment fan-out: determinism, fallbacks, job specs."""

import pickle

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentConfig,
    Job,
    default_workers,
    execute_job,
    parallel_enabled,
    run_jobs,
)

#: short but non-trivial: the engine saturates and sheds within 30 s
CFG = ExperimentConfig(duration=30.0)


def assert_records_identical(a, b):
    """Bit-identical series (wall_seconds is informational and may differ)."""
    assert a.periods == b.periods
    assert a.departures == b.departures
    assert a.offered_total == b.offered_total
    assert a.entry_dropped_total == b.entry_dropped_total
    assert a.duration == b.duration


class TestJobSpec:
    def test_needs_exactly_one_workload_spec(self):
        with pytest.raises(ExperimentError):
            Job(strategy="CTRL", config=CFG)

    def test_rejects_unknown_estimator(self):
        with pytest.raises(ExperimentError):
            Job(strategy="CTRL", config=CFG, workload_kind="web",
                estimator="nope")

    def test_rejects_unknown_engine_kind_at_construction(self):
        with pytest.raises(ExperimentError, match="fluid, full"):
            Job(strategy="CTRL", config=CFG, workload_kind="web",
                engine_kind="hologram")

    @pytest.mark.parametrize("kwargs", [
        {"actuator": "nope"},
        {"engine_kind": "fluid", "actuator": "queue"},
        {"engine_kind": "fluid", "scheduler": "round_robin"},
        # engine_kind=None follows the config's backend
        {"config": ExperimentConfig(duration=30.0, engine_backend="fluid"),
         "actuator": "lsrm"},
    ])
    def test_rejects_incompatible_options_at_construction(self, kwargs):
        # not later, inside run_strategy in a pool worker
        with pytest.raises(ExperimentError):
            Job(**{"strategy": "CTRL", "config": CFG,
                   "workload_kind": "web", **kwargs})

    def test_seed_override(self):
        job = Job(strategy="CTRL", config=CFG, workload_kind="web", seed=7)
        assert job.resolved_config().seed == 7
        assert job.config.seed == CFG.seed  # original untouched

    def test_jobs_are_picklable(self):
        job = Job(strategy="CTRL", config=CFG, workload_kind="pareto",
                  actuator="lsrm", controller_kwargs={"anti_windup": True},
                  estimator="kalman", scheduler="round_robin:10", seed=3)
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job

    def test_labels(self):
        job = Job(strategy="CTRL", config=CFG, workload_kind="web", seed=9)
        assert "CTRL" in job.label and "seed=9" in job.label
        assert Job(strategy="CTRL", config=CFG, workload_kind="web",
                   key="mine").label == "mine"


class TestDeterminism:
    @pytest.fixture(scope="class")
    def jobs(self):
        return [
            Job(strategy=name, config=CFG, workload_kind=workload,
                actuator=actuator, seed=seed)
            for name, workload, actuator, seed in (
                ("CTRL", "web", "entry", 1),
                ("CTRL", "web", "queue", 1),
                ("AURORA", "web", "entry", 2),
                ("BASELINE", "pareto", "entry", 3),
            )
        ]

    def test_parallel_matches_serial(self, jobs):
        """The acceptance contract: same seeds => same RunRecord series."""
        serial = run_jobs(jobs, workers=1)
        parallel = run_jobs(jobs, workers=3)
        assert len(serial) == len(parallel) == len(jobs)
        for a, b in zip(serial, parallel):
            assert_records_identical(a, b)

    def test_env_var_forces_serial(self, jobs, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        assert not parallel_enabled()
        disabled = run_jobs(jobs, workers=3)
        monkeypatch.setenv("REPRO_PARALLEL", "1")
        assert parallel_enabled()
        reference = [execute_job(j) for j in jobs]
        for a, b in zip(disabled, reference):
            assert_records_identical(a, b)

    def test_repeated_execution_is_stable(self, jobs):
        a = execute_job(jobs[0])
        b = execute_job(jobs[0])
        assert_records_identical(a, b)

    def test_different_seeds_differ(self):
        base = Job(strategy="CTRL", config=CFG, workload_kind="web", seed=1)
        other = Job(strategy="CTRL", config=CFG, workload_kind="web", seed=2)
        ra, rb = run_jobs([base, other], workers=1)
        assert ra.periods != rb.periods


class TestFallbacks:
    def test_empty_job_list(self):
        assert run_jobs([]) == []

    def test_unpicklable_job_runs_serially(self):
        # a closure-based strategy cannot cross a process boundary; the
        # runner must quietly execute it in-process instead of crashing
        from repro.core import PolePlacementController

        unpicklable = Job(
            strategy=lambda model: PolePlacementController(model),
            config=CFG, workload_kind="web",
        )
        picklable = Job(strategy="CTRL", config=CFG, workload_kind="web")
        records = run_jobs([unpicklable, picklable], workers=2)
        assert len(records) == 2
        assert all(len(r.periods) == CFG.n_periods for r in records)

    def test_deterministic_job_error_propagates(self):
        # incompatible options fail at construction now; an unknown
        # cost-trace spec still fails inside the worker
        bad = Job(strategy="CTRL", config=CFG, workload_kind="web",
                  cost_trace="nope")
        with pytest.raises(ExperimentError):
            run_jobs([bad, bad], workers=2)

    def test_workers_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert default_workers() == 5
        monkeypatch.setenv("REPRO_WORKERS", "zero")
        with pytest.raises(ExperimentError):
            default_workers()
