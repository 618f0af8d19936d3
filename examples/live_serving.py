#!/usr/bin/env python3
"""Real-time serving: a live node holding its delay target over a socket.

This is the paper's deployment scenario end-to-end: a wall-clock
control loop behind a TCP ingestion front-end, a traffic generator
replaying a trace at a controlled overload factor over localhost, and
the live dashboard watching the feedback loop work in real time.

The script starts a live node (CTRL strategy), blasts it with roughly
``REPRO_LIVE_OVERLOAD``x its capacity for ``REPRO_LIVE_DURATION`` wall
seconds, and prints the per-period trajectory: the delay estimate
converging into the target band while the entry actuator sheds the
surplus. With ``REPRO_LIVE_COMPARE=1`` it then repeats the identical
replay against AURORA and BASELINE comparators, which let the delay run
away or overshoot — the paper's Fig. 6/8 contrast, live.

Run:  PYTHONPATH=src python examples/live_serving.py

Knobs: ``REPRO_OBS_PORT`` pins the dashboard port (default ephemeral,
printed), ``REPRO_LIVE_DURATION`` wall seconds per run (default 12),
``REPRO_LIVE_OVERLOAD`` offered-rate multiple of capacity (default 3),
``REPRO_LIVE_PERIOD`` control period seconds (default 0.25),
``REPRO_OBS_LINGER`` keeps the dashboard up after the run, and
``REPRO_LIVE_COMPARE=1`` adds the AURORA/BASELINE comparison runs.

While it runs, watch it live:

    curl -s http://127.0.0.1:$REPRO_OBS_PORT/status | python -m json.tool
    open http://127.0.0.1:$REPRO_OBS_PORT/        # dashboard

or replay your own traffic at the printed ingest port:

    python -m repro.workloads.replay --port <ingest port> --speed 50
"""

import os
import time

from repro.experiments import ExperimentConfig
from repro.obs import ObsConfig, configure_logging, get_bus, install_metrics
from repro.serve import build_live_runner
from repro.workloads import arrivals_from_trace, constant_rate
from repro.workloads.replay import TraceReplayer

DURATION = float(os.environ.get("REPRO_LIVE_DURATION", "12"))
OVERLOAD = float(os.environ.get("REPRO_LIVE_OVERLOAD", "3"))
PERIOD = float(os.environ.get("REPRO_LIVE_PERIOD", "0.25"))
LINGER = float(os.environ.get("REPRO_OBS_LINGER", "0"))
COMPARE = os.environ.get("REPRO_LIVE_COMPARE", "") == "1"

#: modest capacity so OVERLOADx is loopback-feasible on any machine
CAPACITY = 200.0
TARGET = 0.5


def run_live(strategy: str, serve: bool) -> None:
    n_periods = max(4, int(round(DURATION / PERIOD)))
    config = ExperimentConfig(capacity=CAPACITY, period=PERIOD,
                              target=TARGET, duration=DURATION)
    runner = build_live_runner(config, strategy=strategy, backend="fluid",
                               obs=ObsConfig(serve=serve),
                               max_periods=n_periods)
    runner.handle_signals()
    runner.start()
    if serve and runner.obs_server is not None:
        print(f"dashboard:  {runner.obs_server.url}/")
        print(f"status:     {runner.obs_server.url}/status")
        print(f"metrics:    {runner.obs_server.url}/metrics")
    print(f"ingest:     tcp://127.0.0.1:{runner.ingest_port}  "
          f"({strategy}, capacity {CAPACITY:.0f} t/s, "
          f"target {TARGET}s, period {PERIOD}s)")

    # offered load: OVERLOADx capacity, evenly paced, replayed in real time
    trace = constant_rate(CAPACITY * OVERLOAD, n_periods, period=PERIOD)
    arrivals = arrivals_from_trace(trace, seed=7)
    replayer = TraceReplayer(arrivals, "127.0.0.1", runner.ingest_port,
                             speed=1.0, stamp_sent=True).start()
    print(f"replaying   {len(arrivals)} tuples "
          f"(~{CAPACITY * OVERLOAD:.0f} t/s offered = {OVERLOAD:.0f}x "
          f"capacity) for {DURATION:.0f}s of wall time ...")

    runner.wait(timeout=DURATION + 30)
    record = runner.stop()
    replayer.stop()

    periods = record.periods
    stride = max(1, len(periods) // 10)
    for p in periods[::stride]:
        band = "in band" if abs(p.delay_estimate - TARGET) <= 0.5 * TARGET \
            else "  OUT  "
        print(f"  k={p.k:>3}  offered={p.offered:>4}  admitted={p.admitted:>4}"
              f"  yhat={p.delay_estimate:6.3f}s [{band}]  alpha={p.alpha:.2f}"
              f"  q={p.queue_length}")
    tail = periods[len(periods) // 2:]
    mean_tail = sum(p.delay_estimate for p in tail) / max(len(tail), 1)
    snap = runner.ingest.snapshot()
    print(f"{strategy:>9}: tail mean delay {mean_tail:.3f}s "
          f"(target {TARGET}s), max alpha "
          f"{max(p.alpha for p in periods):.2f}, "
          f"ingest accepted={snap.accepted} dropped={snap.dropped}")


def main() -> None:
    configure_logging()
    install_metrics(get_bus())
    run_live("CTRL", serve=True)
    if COMPARE:
        for strategy in ("AURORA", "BASELINE"):
            print()
            run_live(strategy, serve=False)
    if LINGER > 0:
        print(f"\nlingering {LINGER:.0f}s (REPRO_OBS_LINGER) ...")
        time.sleep(LINGER)


if __name__ == "__main__":
    main()
