"""The four workloads: what each is for, its frozen sizes, how to build it.

The numbers below are **frozen at the seed commit** (see ``baseline.json``
for the machine they were taken on). They size the work, they are not
tuned per machine: a later optimisation shows up as the same work taking
less time (``tuples_per_s``) or as a higher rung of the same ladder
passing (``sustained_tuples_per_s``), never as a different input.

Every live workload runs a 0.125 s control period against a 0.5 s delay
target under CTRL. The virtual capacity is set per run as
``rate / (rho * H)``, so the *overload factor* ``rho`` is the workload and
the wall rate is the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: control period of the live workloads; a binary fraction, so the paced
#: conductor's quarter-period clock advances reach every boundary exactly
PERIOD_S = 0.125
TARGET_S = 0.5
SUBSTEPS = 4
#: machine headroom H shared by all shards (the repo's default)
HEADROOM = 0.97
#: sources on the wire and in the simulation; source 0 is the hotspot
N_SOURCES = 8
HOTSPOT_FACTOR = 3.0
#: the seconds the frozen sizes below were chosen for (= BENCHMARK.json's
#: run_seconds); ``--seconds`` scales every phase linearly from here
NOMINAL_SECONDS = 25
#: the open-loop ladder, as multiples of each workload's frozen reference
#: rate. The reference is ~22% of the open-loop capacity measured at the
#: seed (2 significant digits): where the asyncio reader and the ticker
#: rarely want the interpreter lock at once, so ``decision_ms`` follows the
#: tick's own work. (At 45% a host 20% slower read 40-100% slower: the
#: reader's share of the CPU grows and the tick gets what is left.) The 2x
#: rung, ~45%, passes run after run on a shared 2-vCPU box even while a
#: neighbour slows the host; the 8x rung asks for ~180% and collapses just
#: as reliably. Factor 4 at the top, so the verdict does not flicker; the
#: ">= 3x sustained" the ROADMAP's hot-path item must show moves it one
#: rung, and finer gains resolve in ``tuples_per_s``.
LADDER = (0.25, 1.0, 2.0, 8.0)
REFERENCE_RUNG = 1  # index into LADDER / Workload.rates
#: the nominal run's time at the reference rate: two rungs, seconds apart
#: (so that a slow stretch of the host covers one of them at most), whose
#: decision times are pooled: >= 100 periods together
REFERENCE_RUNS = 2
REFERENCE_S = 6.5
#: seconds per rung probed above or below the reference
PROBE_S = 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                   # 'service' | 'runner' | 'sim'
    backend: str = "full"
    rho: float = 1.0            # offered load / virtual capacity
    fmt: str = "json"           # wire frames: 'json' (s + t fields) | 'csv'
    shape: str = "steady"       # 'steady' | 'burst'
    observed: bool = False      # arm every observer repro.obs ships
    #: paced phase: tuples written per control period, and periods per
    #: nominal run (fixed work: the counts must repeat exactly)
    paced_tuples: int = 0
    paced_periods: int = 0
    #: open phase: offered tuples/s of the reference rung
    reference_rate: float = 0.0
    #: sim only
    sim_seconds: float = 0.0
    sim_capacity: float = 0.0
    sim_source_rate: float = 0.0

    @property
    def live(self) -> bool:
        return self.kind != "sim"

    @property
    def rates(self) -> Tuple[float, ...]:
        """Offered tuples/s of every rung of the ladder."""
        return tuple(self.reference_rate * m for m in LADDER)


WORKLOADS = (
    Workload(
        name="live_shed",
        why=("2 fluid shards at 8x overload: ~87% of tuples die at the entry "
             "shedder, so decode, ingest, routing and the actuator do the "
             "work and the engine almost none"),
        kind="service", backend="fluid", rho=8.0, fmt="json",
        paced_tuples=4000, paced_periods=240,
        reference_rate=37_500.0,
    ),
    Workload(
        name="live_admit",
        why=("single-loop LiveRunner, bare-CSV frames at 0.8x load: nothing "
             "is shed and every tuple crosses all 14 operators, so the "
             "engine does the work; router and coordinator are bypassed"),
        kind="runner", backend="full", rho=0.8, fmt="csv",
        paced_tuples=1000, paced_periods=128,
        reference_rate=4_000.0,
    ),
    Workload(
        name="live_observed",
        why=("live_shed's topology on the full engine at 2x load with 4x "
             "bursts and every observer armed (metrics, sysid, flight, "
             "period and tuple tracers): the only workload where repro.obs "
             "does real work"),
        kind="service", backend="full", rho=2.0, fmt="json", shape="burst",
        observed=True,
        paced_tuples=2000, paced_periods=112,
        reference_rate=5_000.0,
    ),
    Workload(
        name="sim_hotspot",
        why=("lockstep 4-shard simulation with a hotspot and a migration, no "
             "socket and no wall clock: the researcher's path, where a "
             "wire-side optimisation must predict no change"),
        kind="sim", backend="full",
        sim_seconds=1600.0, sim_capacity=253.0, sim_source_rate=23.0,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def experiment_config(w: Workload, rate: float, seed: int):
    """The ExperimentConfig whose capacity puts ``rate`` at overload ``rho``."""
    from repro.experiments.config import ExperimentConfig
    return ExperimentConfig(capacity=rate / (w.rho * HEADROOM),
                            headroom=HEADROOM, period=PERIOD_S,
                            target=TARGET_S, seed=seed)


def service_config(w: Workload, flight_dir: Optional[str] = None):
    """The two-shard live topology (``live_shed`` / ``live_observed``)."""
    from repro.service.config import ServiceConfig
    knobs = dict(n_shards=2, n_sources=N_SOURCES,
                 hotspot_factor=HOTSPOT_FACTOR,
                 backend=w.backend, total_headroom=HEADROOM)
    if w.observed:
        knobs.update(sysid=True, flight=64, flight_dir=flight_dir)
    return ServiceConfig(**knobs)


def build_live(w: Workload, rate: float, seed: int, clock,
               max_periods: Optional[int] = None,
               flight_dir: Optional[str] = None):
    """A fresh, unstarted live node for ``w`` offered ``rate`` tuples/s.

    Returns ``(node, observers)``; ``observers`` is None unless the
    workload is observed, else what the output checks read back.
    """
    from repro.serve.live import LiveRunner, build_live_service
    from repro.service.shard import build_shard
    cfg = experiment_config(w, rate, seed)
    if w.kind == "runner":
        shard = build_shard("live", cfg, headroom=cfg.headroom,
                            target=cfg.target, engine_seed=seed,
                            backend=w.backend)
        node = LiveRunner(shard.loop, entry_source=shard.entry_source,
                          clock=clock, max_periods=max_periods)
        return node, None
    if not w.observed:
        node = build_live_service(cfg, service_config(w), clock=clock,
                                  max_periods=max_periods)
        return node, None
    from repro.obs import EventBus
    from repro.obs.metrics import MetricsRegistry, install_metrics
    from repro.obs.tracing import PeriodTracer
    from repro.obs.tuptrace import TupleTracer
    bus = EventBus()
    registry = MetricsRegistry()
    bridge = install_metrics(bus=bus, registry=registry)
    node = build_live_service(cfg, service_config(w, flight_dir), clock=clock,
                              bus=bus, max_periods=max_periods)
    for i, shard in enumerate(node.shards):
        shard.loop.tracer = PeriodTracer()
        shard.loop.tuple_tracer = TupleTracer(
            fraction=0.01, seed=104729 * (i + 1), bus=shard.loop.bus,
            shard=shard.name)
    return node, {"bus": bus, "registry": registry, "bridge": bridge}


def sim_configs(w: Workload, seed: int):
    """``(ExperimentConfig, ServiceConfig)`` of the lockstep simulation.

    The hotspot knobs are those of the legacy ``migration`` bench tier
    (ceiling 0.32, patience 3, cooldown 10) so a move triggers: source 0
    (3x) and source 4 share shard 0, whose ceiling binds until the
    coordinator migrates source 4 away.
    """
    from repro.experiments.config import ExperimentConfig
    from repro.service.config import ServiceConfig
    cfg = ExperimentConfig(duration=w.sim_seconds, capacity=w.sim_capacity,
                           seed=seed)
    svc = ServiceConfig(n_shards=4, n_sources=N_SOURCES,
                        hotspot_factor=HOTSPOT_FACTOR,
                        per_source_rate=w.sim_source_rate, mode="headroom",
                        headroom_ceiling=0.32, migration=True,
                        migration_patience=3, migration_cooldown=10,
                        backend=w.backend)
    return cfg, svc


#: seed of the simulation's web *rate trace* (where its bursts fall). Frozen:
#: the trace is the workload; ``--seed`` draws the arrivals, tuple values
#: and shedder coins on top of it. Re-drawing the bursts per seed moved
#: ``qos.mean_delay_ms`` by 17% between seeds, which is input, not program.
SIM_TRACE_SEED = 7


def sim_arrivals(cfg, svc, seed: int):
    """``build_service_workload`` with the rate trace's seed held fixed."""
    from dataclasses import replace

    from repro.experiments.runner import make_workload
    from repro.workloads.skew import (
        hotspot_weights,
        multi_source_arrivals,
        skewed_source_traces,
    )
    base = make_workload("web", replace(cfg, seed=SIM_TRACE_SEED))
    weights = hotspot_weights(svc.n_sources, svc.hotspot_factor,
                              svc.hotspot_index)
    traces = skewed_source_traces(base, weights,
                                  per_source_mean=svc.per_source_rate,
                                  names=svc.source_names)
    return multi_source_arrivals(traces, poisson=cfg.poisson_arrivals,
                                 seed=seed)
