#!/usr/bin/env python3
"""Socket-to-sink benchmark: named workloads, end-to-end metrics, layer table.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--traced]
                                  [--out FILE] [--aa N] [--append-history PATH]

runs the workloads of ``workloads.py`` against the program under ``src/``,
prints every metric by name with its unit, checks the outputs, and exits
non-zero on a failed check. The benchmark driver calls it as
``run.py --workload W --seed N --seconds S --trace 0|1`` and reads the
last line of standard output: one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).

See ``README.md`` beside this file for what each workload, phase and
metric means.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} "
             "is missing")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import phases  # noqa: E402
from metrics import END_TO_END, EXACT_COUNTS, PER_LAYER  # noqa: E402
from shims import LAYERS, Recorder  # noqa: E402
from stats import median, quiet, rung_verdict, tail  # noqa: E402
from workloads import (  # noqa: E402
    BY_NAME,
    LADDER,
    NOMINAL_SECONDS,
    PERIOD_S,
    PROBE_S,
    REFERENCE_RUNG,
    REFERENCE_RUNS,
    REFERENCE_S,
    WORKLOADS,
    Workload,
)


def say(text: str) -> None:
    print(text, flush=True)


# ---------------------------------------------------------------------- #
# output checks (tolerances, never digests: a later change of RNG order
# must not wedge a benchmark nobody may edit)
# ---------------------------------------------------------------------- #
def check_ledger(checks: List[dict], where: str, run: dict,
                 wire: bool) -> int:
    """Conservation from the socket to the sink; returns tuples unaccounted."""
    led = run["ledger"]

    def same(name: str, left: int, right: int) -> int:
        checks.append({"check": f"{where}: {name}", "ok": left == right,
                       "detail": f"{left} vs {right}"})
        return abs(left - right)

    lost = 0
    if wire:
        lost += same("sent = accepted + dropped + malformed", run["sent"],
                     run["accepted"] + run["dropped"] + run["malformed"])
        lost += same("accepted = offered + still buffered", run["accepted"],
                     led["offered"] + run.get("residue", 0))
    else:
        lost += same("generated = offered", run["sent"], led["offered"])
    same("offered = admitted + entry-shed", led["offered"],
         led["admitted"] + led["entry_shed"])
    same("admitted = engine admitted", led["admitted"],
         led["engine_admitted"])
    same("admitted = delivered + in-network-shed + drain leftover",
         led["admitted"],
         led["delivered"] + led["network_shed"] + led["outstanding"])
    return lost


def check_workload(checks: List[dict], w: Workload, paced: dict) -> None:
    led = paced["ledger"]

    def expect(name: str, ok: bool, detail: str) -> None:
        checks.append({"check": f"{w.name}: {name}", "ok": bool(ok),
                       "detail": detail})

    if w.name == "live_shed":
        want = 1.0 - 1.0 / w.rho
        expect(f"loss within 0.03 of 1 - 1/rho = {want:.3f}",
               abs(led["loss_frac"] - want) <= 0.03,
               f"loss {led['loss_frac']:.4f}")
        ratio = led["delay_estimate_tail_mean"] / led["target"]
        expect("mean delay estimate over the last half within 25% of target",
               0.75 <= ratio <= 1.25, f"estimate/target {ratio:.3f}")
    if w.name == "live_admit":
        expect("sheds nothing",
               led["entry_shed"] == 0 and led["network_shed"] == 0,
               f"entry {led['entry_shed']}, network {led['network_shed']}")
    if w.name == "sim_hotspot":
        expect("triggers a migration", paced["migrations"] >= 1,
               f"{paced['migrations']} migrations")
    if w.observed:
        seen = paced["observed"]
        expect("leaves a sampled trace and a non-empty metrics registry",
               seen["sampled"] >= 1 and seen["metrics"] >= 1,
               f"{seen['sampled']} traces, {seen['metrics']} live metrics")


# ---------------------------------------------------------------------- #
# one workload, untraced: the end-to-end metrics
# ---------------------------------------------------------------------- #
def verdict_of(w: Workload, rung: dict) -> List[str]:
    return rung_verdict(
        planned=rung["planned"], sent=rung["sent"], dropped=rung["dropped"],
        malformed=rung["malformed"], late_p95_ms=rung["late_ms_p95"],
        decision_ms=rung["decision_ms"], period_s=PERIOD_S,
        residue=rung["residue"], arrivals_per_period=rung["rate"] * PERIOD_S)


def overloaded(rung: dict) -> bool:
    """The rung lost or kept back tuples, or a tenth of its decisions took
    longer than a period: no hiccup of the host does that."""
    late = [d for d in rung["decision_ms"] if d > PERIOD_S * 1e3]
    return (rung["sent"] < rung["planned"] or rung["dropped"] > 0
            or rung["residue"] > rung["rate"] * PERIOD_S
            or len(late) * 10 > len(rung["decision_ms"]))


class Ladder:
    """The open-loop ladder: reference rungs for the decision times, probes.

    ``reference`` runs one rung at ``LADDER[REFERENCE_RUNG]``; ``run.py``
    calls it ``REFERENCE_RUNS`` times, seconds apart, and pools their
    decision times. ``probes`` climbs from the reference rung by rung
    until one fails — or, if no reference passed, tries the rungs below,
    highest first. They are separate calls because the paced pass runs
    between and around them (see ``phases.run_paced``).

    A rung that fails without being overloaded — the generator ran late or
    decisions slowed, but nothing was lost or left behind — is tried once
    more: far below capacity that only happens when the host stalls, and
    one retry keeps a neighbour's hiccup from rewriting the verdict (both
    attempts' failures are still counted).
    """

    def __init__(self, w: Workload, seed: int, scale: float, work: Path):
        self.w, self.seed, self.scale, self.work = w, seed, scale, work
        self.rungs: List[dict] = []
        self.reference_passed = False

    def run(self, index: int, seconds: float, retry: bool = True) -> bool:
        rung = phases.run_rung(self.w, self.seed, self.w.rates[index],
                               seconds * self.scale, self.work)
        rung["multiple"] = LADDER[index]
        rung["why_failed"] = verdict_of(self.w, rung)
        self.rungs.append(rung)
        say(f"  open {LADDER[index]:>4.2f}x {rung['rate']:>9.0f}/s "
            f"{rung['duration']:4.1f} s: "
            + ("pass" if not rung["why_failed"]
               else "FAIL (" + "; ".join(rung["why_failed"]) + ")"))
        if rung["why_failed"] and retry and not overloaded(rung):
            return self.run(index, seconds, retry=False)
        return not rung["why_failed"]

    def reference(self) -> None:
        self.reference_passed |= self.run(REFERENCE_RUNG, REFERENCE_S)

    def probes(self) -> None:
        if self.reference_passed:
            for index in range(REFERENCE_RUNG + 1, len(LADDER)):
                if not self.run(index, PROBE_S):
                    break
        else:
            for index in range(REFERENCE_RUNG - 1, -1, -1):
                if self.run(index, PROBE_S):
                    break


def block_rate(paced: dict) -> float:
    """Offered tuples per wall second over the quiet quarter of the blocks."""
    return 1.0 / quiet([b["wall_s"] / b["tuples"] for b in paced["blocks"]])


def paced_periods(w: Workload, scale: float) -> int:
    """Whole blocks of paced periods for a run ``scale`` x the nominal."""
    size = phases.BLOCK_PERIODS
    return max(2, round(w.paced_periods * scale / size)) * size


def measure_e2e(w: Workload, seed: int, seconds: float) -> dict:
    scale = seconds / NOMINAL_SECONDS
    work = phases.scratch_dir()
    checks: List[dict] = []
    setup: List[float] = []

    def time_setup() -> None:
        setup.extend(phases.time_setup(w, seed, work))

    try:
        time_setup()
        if w.live:
            # paced quarter, reference rung, paced quarter, probes, paced
            # quarter, reference rung, paced quarter — with a batch of
            # set-ups in each gap: a slow stretch of the host then covers a
            # part of every sample, not the whole of one
            periods = paced_periods(w, scale)
            size = phases.BLOCK_PERIODS
            quarter = periods // size // 4 * size
            ladder = Ladder(w, seed, scale, work)
            steps = (ladder.reference, ladder.probes, ladder.reference)
            assert steps.count(ladder.reference) == REFERENCE_RUNS
            paced = phases.run_paced(
                w, seed, periods, work,
                pauses=[(i * quarter, pause)
                        for i, step in enumerate(steps, 1)
                        for pause in (time_setup, step)])
            rungs = ladder.rungs
            references = [r for r in rungs
                          if r["multiple"] == LADDER[REFERENCE_RUNG]]
            passing = [r for r in rungs if not r["why_failed"]]
            sustained = max((r["accepted_per_s"] for r in passing),
                            default=0.0)
            decision = [d for r in references for d in r["decision_ms"]]
            lost = check_ledger(checks, "paced", paced, wire=True)
            attempted = paced["sent"]
            failed = paced["dropped"] + paced["malformed"]
            for reference in references:
                lost += check_ledger(checks, "reference rung", reference,
                                     wire=True)
                attempted += reference["planned"]
                failed += (reference["dropped"] + reference["malformed"]
                           + reference["planned"] - reference["sent"])
            failed += lost
        else:
            paced = phases.run_sim(w, seed, w.sim_seconds * scale)
            time_setup()
            rungs = []
            # no socket and no arrival clock: the rate the simulation
            # sustains is its period loop's throughput, and a decision is
            # made when every shard has closed its period
            sustained = block_rate(paced)
            decision = paced["decision_ms"]
            failed = check_ledger(checks, "sim", paced, wire=False)
            attempted = paced["sent"]
        check_workload(checks, w, paced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    led = paced["ledger"]
    p_q, p_tail = tail(paced["period_ms"], 99.0)
    d_q, d_tail = tail(decision, 99.0)
    values = {
        "setup_s": quiet(setup),
        "tuples_per_s": block_rate(paced),
        "cpu_us_per_tuple": quiet([b["cpu_s"] / b["tuples"] * 1e6
                                   for b in paced["blocks"]]),
        "sustained_tuples_per_s": sustained,
        "decision_ms_quiet": quiet(decision),
        "peak_rss_mb": phases.peak_rss_mb(),
        "qos.delivered_frac": led["qos_delivered"] / led["qos_offered"],
        "qos.mean_delay_ms": led["mean_delay_ms"],
    }
    return {
        "values": values, "checks": checks,
        "attempted": attempted, "failed": failed,
        "counts": {name: led[name] for name in EXACT_COUNTS},
        "samples": {"setup_s": len(setup), "blocks": len(paced["blocks"]),
                    "period_ms": len(paced["period_ms"]),
                    "decision_ms": len(decision)},
        # the median and the highest percentile with >= 10 samples beyond
        # it: reported, not gated (see metrics.py)
        "tails": {"period_ms_p50": median(paced["period_ms"]),
                  f"period_ms_p{p_q:g}": p_tail,
                  "decision_ms_p50": median(decision),
                  f"decision_ms_p{d_q:g}": d_tail},
        "qos": {"loss_frac": led["loss_frac"],
                "violation_frac": led["violation_frac"]},
        "rungs": [{k: r[k] for k in ("multiple", "rate", "duration",
                                     "planned", "sent", "accepted",
                                     "dropped", "malformed", "residue",
                                     "late_ms_p95", "late_ms_p99",
                                     "accepted_per_s",
                                     "why_failed")} for r in rungs],
    }


# ---------------------------------------------------------------------- #
# one workload, traced: the per-layer metrics
# ---------------------------------------------------------------------- #
def measure_layers(w: Workload, seed: int, seconds: float) -> dict:
    scale = seconds / NOMINAL_SECONDS
    work = phases.scratch_dir()
    checks: List[dict] = []
    rec = Recorder()
    rung = None
    try:
        if w.live:
            periods = paced_periods(w, scale)
            plain = phases.run_paced(w, seed, periods, work)
            traced = phases.run_paced(w, seed, periods, work, rec=rec)
            rung = phases.run_rung(w, seed, w.rates[REFERENCE_RUNG],
                                   REFERENCE_S * scale, work, poll=True)
            lost = check_ledger(checks, "traced paced", traced, wire=True)
            attempted = traced["sent"] + rung["planned"]
            failed = (lost + traced["dropped"] + traced["malformed"]
                      + rung["dropped"] + rung["malformed"]
                      + rung["planned"] - rung["sent"])
        else:
            periods = round(w.sim_seconds * scale)
            plain = phases.run_sim(w, seed, periods)
            traced = phases.run_sim(w, seed, periods, rec=rec)
            failed = check_ledger(checks, "traced sim", traced, wire=False)
            attempted = traced["sent"]
        rec.dump(phases.work_root() / f"spans-{w.name}-{seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wall, led = traced["wall_s"], traced["ledger"]
    self_s = rec.layer_self_seconds()

    def per(name: str, scale_to: float = 1e6) -> float:
        n = rec.count(name)
        return rec.busy(name) / n * scale_to if n else 0.0

    def per_period(seconds_total: float, scale_to: float = 1e3) -> float:
        return seconds_total / periods * scale_to

    frames = rec.count("decode_line")
    values = {
        "serve.protocol.decode_us_per_tuple": per("decode_line"),
        "serve.protocol.frames": frames,
        "serve.protocol.malformed": traced.get("malformed", 0),
        "serve.protocol.bytes_per_tuple": (
            traced["bytes_read"] / frames if frames else 0.0),
        "serve.ingest.wire_us_per_tuple": (
            traced["wire_s"] / traced["sent"] * 1e6 if w.live else 0.0),
        "serve.ingest.push_us_per_tuple": per("buffer.push"),
        "serve.ingest.drain_ms_per_period": per_period(
            rec.busy("buffer.drain_until")),
        "serve.ingest.dropped": traced.get("dropped", 0),
        "serve.ingest.buffered_peak": traced.get("buffered_peak", 0),
        "serve.ingest.lag_ms_p99": (
            tail(rung["lag_ms"], 99.0)[1] if rung and rung["lag_ms"] else 0.0),
        "serve.live.tick_ms_p50": (
            median(traced["tick_ms"]) if w.live else 0.0),
        "serve.live.tick_late_ms_p90": (
            tail(rung["tick_late_ms"], 90.0)[1]
            if rung and rung["tick_late_ms"] else 0.0),
        "service.router.shard_of_us_per_tuple": per("table.shard_of"),
        "service.router.calls": rec.count("table.shard_of"),
        "core.actuator.admit_us_per_tuple": per("actuator.admit"),
        "core.actuator.arm_us_per_period": per_period(
            rec.busy("actuator.begin_period")
            + rec.busy("actuator.end_period"), 1e6),
        "core.actuator.admitted_frac": led["admitted"] / led["offered"],
        "dsms.engine.submit_us_per_tuple": per("engine.submit"),
        "dsms.engine.run_until_ms_per_period": per_period(
            rec.busy("engine.run_until")),
        "dsms.engine.us_per_admitted": (
            self_s["dsms.engine"] / led["admitted"] * 1e6),
        "dsms.engine.departed": led["departed"],
        "dsms.engine.outstanding_peak": led["outstanding_peak"],
        "core.monitor.measure_ms_per_period": per_period(
            rec.busy("monitor.measure")),
        "core.controller.decide_us_per_period": per_period(
            rec.busy("controller.decide"), 1e6),
        "core.loop.run_period_self_ms_per_period": per_period(
            self_s["core.loop"]),
        "core.loop.finish_s": sum(
            s["busy"] for s in rec.named("loop.finish", paced_only=False)),
        "service.coordinator.rebalance_ms_per_period": per_period(
            rec.busy("coordinator.rebalance")),
        "service.coordinator.migrations": traced["migrations"],
        "service.service.dispatch_ms_per_period": per_period(
            self_s["service.service"]),
        "obs.bus.emit_ms_per_period": per_period(self_s["obs"]),
        "obs.bus.events_per_period": rec.count("bus.emit") / periods,
        "obs.tuptrace.sampled": traced["observed"]["sampled"],
        "obs.tracing.coverage": traced["tracer_coverage"],
        "trace.overhead_frac": 1.0 - block_rate(traced) / block_rate(plain),
        "trace.coverage_frac": sum(self_s.values()) / wall,
        "gen.late_ms_p99": rung["late_ms_p99"] if rung else 0.0,
        "gen.gen_s": rung["gen_s"] if rung else 0.0,
    }
    for layer in LAYERS:
        values[f"{layer}.self_frac"] = self_s[layer] / wall

    # the shipped PeriodTracer's "engine" segment is the period's last
    # run_until (to the boundary) plus the cycle charge; the shims time the
    # same two calls and must tell the same story. Where the engine does
    # next to nothing the two differ by the wrappers' own cost, so a gap
    # below 0.2% of the paced wall also passes.
    ours = (sum(s["last"] for s in rec.named("engine.run_until"))
            + rec.busy("engine.consume_cpu"))
    theirs = traced["tracer_engine_s"]
    gap = abs(ours - theirs)
    checks.append({"check": "shim vs PeriodTracer engine segment within 10%",
                   "ok": gap <= 0.10 * theirs or gap <= 0.002 * wall,
                   "detail": f"shim {ours:.4f} s, tracer {theirs:.4f} s"})
    checks.append({"check": "trace coverage >= 0.9",
                   "ok": values["trace.coverage_frac"] >= 0.9,
                   "detail": f"{values['trace.coverage_frac']:.3f}"})
    check_workload(checks, w, traced)
    return {
        "values": values, "checks": checks,
        "attempted": attempted, "failed": failed,
        "counts": {name: led[name] for name in EXACT_COUNTS},
    }


# ---------------------------------------------------------------------- #
# printing, the contract line, history
# ---------------------------------------------------------------------- #
def fingerprint() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(),
            "platform": platform.platform()}


def git_commit() -> Optional[str]:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def contract_line(table, result: dict) -> str:
    units = {row[0]: row[1] for row in table}
    return json.dumps({
        "correct": all(c["ok"] for c in result["checks"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": result["values"][name],
                           "unit": units[name]} for name in units},
    })


def show(table, result: dict) -> None:
    for row in table:
        name, unit = row[0], row[1]
        say(f"  {name:<44} {result['values'][name]:>14.6g} {unit}")
    for key, n in result.get("samples", {}).items():
        say(f"  [samples] {key:<34} {n:>14.6g}")
    for key, value in result.get("tails", {}).items():
        say(f"  [tail]    {key:<34} {value:>14.6g} ms")
    for key, n in result["counts"].items():
        say(f"  [exact]   {key:<34} {n:>14d}")
    for c in result["checks"]:
        say(f"  [{'ok' if c['ok'] else 'FAILED'}] {c['check']} ({c['detail']})")
    say(f"  attempted {result['attempted']}, failed {result['failed']}")


def run_one(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    say(f"== {w.name} seed {seed} "
        f"({'per-layer, traced' if trace else 'end-to-end'}) ==")
    if trace:
        result = measure_layers(w, seed, seconds)
        show(PER_LAYER, result)
    else:
        result = measure_e2e(w, seed, seconds)
        show(END_TO_END, result)
    result.update(workload=w.name, seed=seed, seconds=seconds, trace=trace)
    return result


def run_each(wanted, seed: int, seconds: float) -> Optional[List[dict]]:
    """Each (workload, mode) in a process of its own; None if one crashed.

    ``peak_rss_mb`` is a process-lifetime maximum and module state outlives
    a node, so only a fresh process measures a workload like the driver does.
    """
    results = []
    with tempfile.TemporaryDirectory(dir=phases.work_root()) as tmp:
        out = Path(tmp) / "result.json"
        for name, trace in wanted:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(int(trace)), "--out", str(out)])
            if not out.exists():
                print(f"run.py --workload {name} exited {done.returncode} "
                      "without a result")
                return None
            results += json.loads(out.read_text())["results"]
            out.unlink()
    return results


def run_aa(names: List[str], seed: int, seconds: float, runs: int) -> int:
    """Two sides of ``runs`` fresh processes each, same code, then compare."""
    from compare import compare, load
    with tempfile.TemporaryDirectory(dir=phases.work_root()) as tmp:
        sides: Dict[str, List[str]] = {"a": [], "b": []}
        for i in range(runs):
            for side in ("a", "b") if i % 2 == 0 else ("b", "a"):
                path = str(Path(tmp) / f"{side}{i}.json")
                cmd = [sys.executable, str(HERE / "run.py"), "--seed",
                       str(seed + i), "--seconds", str(seconds), "--out", path]
                for name in names:
                    cmd += ["--workload", name]
                print(f"-- side {side.upper()} run {i} (seed {seed + i})",
                      flush=True)
                done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
                if done.returncode != 0:
                    print(f"run.py exited {done.returncode}")
                    return done.returncode
                sides[side].append(path)
        return compare(load(sides["a"]), load(sides["b"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(BY_NAME),
                        help="run only this workload (repeatable; "
                             "default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="how long one run measures "
                             f"(default {NOMINAL_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "from a traced pass")
    parser.add_argument("--traced", action="store_true",
                        help="run both: end-to-end, then the layer table")
    parser.add_argument("--out", type=Path,
                        help="write every result as JSON here")
    parser.add_argument("--aa", type=int, metavar="N",
                        help="A/A: two sides of N runs, compared against "
                             "the benchmark's own bounds")
    parser.add_argument("--append-history", type=Path, metavar="PATH",
                        help="append one JSON line per result: commit, "
                             "machine fingerprint, seed, every metric")
    args = parser.parse_args(argv)
    names = args.workload or [w.name for w in WORKLOADS]
    if args.aa:
        return run_aa(names, args.seed, args.seconds, args.aa)

    modes = (False, True) if args.traced else (bool(args.trace),)
    wanted = [(name, trace) for name in names for trace in modes]
    if len(wanted) == 1:
        # live_observed's health detectors fire by design (4x bursts
        # saturate the actuator); their warnings are not this benchmark's
        logging.getLogger("repro").setLevel(logging.ERROR)
        phases.pin_to_one_cpu()
        name, trace = wanted[0]
        results = [run_one(BY_NAME[name], args.seed, args.seconds, trace)]
    else:
        results = run_each(wanted, args.seed, args.seconds)
        if results is None:
            return 1
    machine = fingerprint()
    if args.out:
        args.out.write_text(json.dumps(
            {"fingerprint": machine, "results": results}, indent=1))
    if args.append_history:
        commit = git_commit()
        with args.append_history.open("a") as fh:
            for r in results:
                fh.write(json.dumps({
                    "commit": commit, "fingerprint": machine,
                    "workload": r["workload"], "seed": r["seed"],
                    "seconds": r["seconds"], "trace": r["trace"],
                    "metrics": r["values"]}) + "\n")
    if len(wanted) == 1:
        last = results[-1]
        say(contract_line(PER_LAYER if last["trace"] else END_TO_END, last))
    return 0 if all(c["ok"] for r in results for c in r["checks"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())
