"""The measuring loops: a closed loop for the end-to-end metrics and an
untraced-then-traced pass for the per-layer metrics."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy
import scipy

import tracing
import workloads as wl

# how often the speed probe runs inside a phase of an untraced run: the
# core's speed flips every 50-300 ms, and the probes take about 2% of the
# run. Traced runs probe only between phases, so no probe lands in a span.
PROBE_INTERVAL_S = 0.01


class Samples:
    """Phase samples and op outcomes of one pass."""

    def __init__(self):
        self.wall: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self.probe_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []

    def run(self, runner: wl.Runner, op: wl.Op, probe: wl.SpeedProbe
            ) -> None:
        clock = wl.PhaseClock(probe)
        self.attempted += 1
        try:
            runner.run(op, clock)
        except wl.GateError as exc:
            self.failed += 1
            self.wrong.append(f"{op.label}: {exc}")
        except Exception as exc:  # a failed op is counted, never fatal
            self.failed += 1
            self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
        for phase, seconds in clock.times.items():
            self.wall.setdefault(phase, []).extend(seconds)
            self.scaled.setdefault(phase, []).extend(clock.scaled[phase])
        self.probe_s += clock.probe_s

    def speed(self) -> float:
        """Nominal over actual speed of the pass, weighted by phase time."""
        return (sum(map(sum, self.scaled.values()))
                / sum(map(sum, self.wall.values())))

    def tally(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "wrong": self.wrong, "errors": self.errors}


def measure(workload: str, seed: int, seconds: float, runner: wl.Runner
            ) -> tuple[dict, dict, dict]:
    """Closed loop over the workload's cycles; the end-to-end metrics."""
    probe = wl.SpeedProbe(interval_s=PROBE_INTERVAL_S)
    runner.run_import(wl.PhaseClock(probe))  # warm the file cache, untimed
    samples = Samples()
    t0 = time.perf_counter()
    c = 0
    # Whole cycles only, so every run sees the same mix of ops; another
    # cycle starts only if that brings the run closer to `seconds`.
    while c == 0 or (time.perf_counter() - t0) * (1.0 + 0.5 / c) < seconds:
        for op in wl.cycle(workload, seed, c):
            samples.run(runner, op, probe)
        c += 1
    elapsed = time.perf_counter() - t0 - samples.probe_s

    metrics = {}
    details = {}
    for phase, name in wl.PHASE_METRICS.items():
        scaled = samples.scaled[phase]
        label, tail_value = tracing.tail(scaled)
        metrics[name] = statistics.median(scaled)
        details[name] = {"median": metrics[name], "tail": label,
                         "tail_value": tail_value, "samples": len(scaled),
                         "wall_median": statistics.median(samples.wall[phase])}
    completed = samples.attempted - samples.failed
    metrics["instances_per_s"] = completed / (elapsed * samples.speed())
    details["instances_per_s"] = {"completed": completed,
                                  "elapsed_s": elapsed, "cycles": c,
                                  "wall_rate": completed / elapsed}
    details["speed"] = {"nominal_over_actual": samples.speed(),
                        "probe_s": samples.probe_s}
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return metrics, details, samples.tally()


def _pass(ops: list, runner: wl.Runner, probe: wl.SpeedProbe,
          tracer: tracing.Tracer | None = None) -> Samples:
    samples = Samples()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.instance = i
        samples.run(runner, op, probe)
    return samples


def measure_traced(workload: str, seed: int, runner: wl.Runner,
                   spans_path: Path) -> tuple[dict, dict, dict]:
    """Per-layer metrics from a traced pass over cycle 0.

    Subprocesses are not traced, so CLI ops run only their in-process
    rerun; the known-defect band op, ten seconds in `neumann_inverse`
    with almost no traced calls, is left out. One op of each kind runs
    first, untimed, so the untraced and the traced pass start equally
    warm; both are scaled to nominal speed before they are compared.
    """
    ops = [op for op in wl.cycle(workload, seed, 0)
           if op.kind != "import" and not op.params.get("known_defect")]
    runner.subprocesses = False
    probe = wl.SpeedProbe()
    first_of_kind = {op.kind: op for op in reversed(ops)}
    warm = _pass(list(first_of_kind.values()), runner, probe)
    plain = _pass(ops, runner, probe)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced = _pass(ops, runner, probe, tracer)
    metrics = tracing.layer_metrics(tracer)
    metrics.update(tracing.import_breakdown(runner.env, runner.root))
    plain_s = sum(map(sum, plain.scaled.values()))
    traced_s = sum(map(sum, traced.scaled.values()))
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    tracing.write_spans(tracer, spans_path)
    details = {"ops": len(ops), "untraced_s": plain_s, "traced_s": traced_s,
               "spans": len(tracer.spans),
               "spans_file": str(spans_path.relative_to(runner.root))}
    tally = {key: warm.tally()[key] + plain.tally()[key] + traced.tally()[key]
             for key in ("attempted", "failed", "wrong", "errors")}
    return metrics, details, tally


def environment(thread_pins: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "thread_pins": thread_pins,
        "probe_nominal_s": wl.SpeedProbe.NOMINAL_S,
    }
