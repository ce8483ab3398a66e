"""Run one workload of the partialcrit benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload alternation --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload runs as a closed loop with one client,
whole cycles at a time, for as many cycles as brings the run closest to
``--seconds`` seconds (at least one). The last line of standard output
then carries every end-to-end metric declared in ``BENCHMARK.json``; each
time is scaled to the idle speed of the core by a reference kernel timed
around and inside every phase (see ``workloads.SpeedProbe``). With
``--trace 1`` the in-process ops of the first cycle run twice, untraced
and then traced, and the last line carries the per-layer metrics.
Earlier lines hold the environment record and the details: tails, sample
counts, unscaled medians, failures and CLI output digests.

The package is imported from ``src/`` of the checkout the benchmark sits
in; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"

# BLAS and OpenMP pools pinned to one thread, for this process and every
# interpreter it starts
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


# personality(2) flag that turns address-space randomisation off
ADDR_NO_RANDOMIZE = 0x0040000


def fix_layout() -> bool:
    """Re-execute once with a fixed memory layout and string hash seed.

    Where a process's code and data land in memory (address-space
    randomisation) and the seed of its string hashes move the speed of a
    whole run, program and speed probe alike, by up to 8% either way on
    the VM the benchmark was tuned on; in one process, cycle after cycle,
    the run-to-run factor stays within 4%. Both are settings of this
    process that every interpreter it starts inherits. Returns whether
    randomisation is off; where personality(2) is refused, the run keeps
    a random layout and only the hash seed is fixed.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if os.environ.get("PYTHONHASHSEED") != "0":
        persona = libc.personality(0xFFFFFFFF)
        if persona != -1:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    persona = libc.personality(0xFFFFFFFF)
    return persona != -1 and bool(persona & ADDR_NO_RANDOMIZE)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not (ROOT / "src" / "partialcrit" / "__init__.py").is_file():
        print(f"perfbench: no partialcrit package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    fixed_layout = fix_layout()
    # the pins must be in place before numpy is first imported
    os.environ.update(THREAD_PINS)
    # one core for the workload, its subprocesses and the speed probe, so
    # the probe times the core the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    import workloads

    runner = workloads.Runner(ROOT, SCRATCH / f"run-{os.getpid()}")
    try:
        if args.trace:
            spans = SCRATCH / f"spans-{args.workload}-seed{args.seed}.csv"
            metrics, details, tally = bench.measure_traced(
                args.workload, args.seed, runner, spans)
            declared = spec["per_layer"]
        else:
            metrics, details, tally = bench.measure(
                args.workload, args.seed, args.seconds, runner)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(runner.scratch, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           f"do not match BENCHMARK.json")

    print(json.dumps({"environment": {**bench.environment(THREAD_PINS),
                                      "fixed_layout": fixed_layout,
                                      **vars(args)}}))
    print(json.dumps({"details": details, "failures": tally["wrong"],
                      "errors": tally["errors"], "cli_sha256": runner.sha256}))
    print(json.dumps({
        "correct": not tally["wrong"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
