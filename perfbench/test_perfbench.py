"""Smoke test of the benchmark itself.

Run from the root of the repository::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
EXACT_COUNTS = ("scheme.stages", "scheme.inner_iters", "spaces.solve_a.calls",
                "oracle.newton_iters")


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"] for m in spec["end_to_end"]},
            "per_layer": {m["name"] for m in spec["per_layer"]}}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_instances(workload):
    first = [wl.cycle(workload, 11, c) for c in range(2)]
    again = [wl.cycle(workload, 11, c) for c in range(2)]
    assert first == again
    assert first[0] != first[1]
    assert wl.cycle(workload, 12, 0) != first[0]


def _traced_counts(ops, tmp_path) -> dict:
    runner = wl.Runner(ROOT, tmp_path, subprocesses=False)
    tracer = tracing.Tracer()
    probe = wl.SpeedProbe()
    with tracing.instrument(tracer):
        for i, op in enumerate(ops):
            tracer.instance = i
            runner.run(op, wl.PhaseClock(probe))
    metrics = tracing.layer_metrics(tracer)
    return {name: metrics[name] for name in EXACT_COUNTS}


def test_exact_counts_repeat(tmp_path):
    alternation = [op for op in wl.cycle("alternation", 5, 0)
                   if op.kind != "import"]
    ops = [alternation[0], next(op for op in alternation if op.kind == "cli")]
    first = _traced_counts(ops, tmp_path / "a")
    assert first == _traced_counts(ops, tmp_path / "b")
    assert first["scheme.stages"] > 0 and first["oracle.newton_iters"] > 0
    assert first["spaces.solve_a.calls"] > 0


def test_instrument_restores_bindings():
    from partialcrit import cli, problems, spaces

    before = (spaces.solve_a, problems.solve_a, cli.run_scheme,
              spaces.SpdOperator.apply)
    with tracing.instrument(tracing.Tracer()):
        assert problems.solve_a is not before[1]
        assert cli.run_scheme is not before[2]
    assert (spaces.solve_a, problems.solve_a, cli.run_scheme,
            spaces.SpdOperator.apply) == before


def test_speed_probe_leaves_its_own_time_out():
    probe = wl.SpeedProbe(interval_s=0.005)
    handler = signal.getsignal(signal.SIGALRM)
    with probe.timing() as piece:
        t_end = time.perf_counter() + 0.1
        while time.perf_counter() < t_end:  # busy, so the timer probes
            pass
    # the block lasted 0.1 s; the probes inside it are not work
    assert piece.wall < 0.1 <= piece.wall + piece.probe_s
    assert piece.probe_s > 10 * probe.kernel_s()
    assert piece.scaled > 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       500 |     250000 |   scipy.sparse.linalg",
        "import time:      1000 |     400000 | scipy.optimize",
        "import time:       300 |        300 |   partialcrit.errors",
        "import time:       200 |     900000 | partialcrit",
    ])
    assert tracing.parse_importtime(stderr) == {
        "cli.import.scipy.sparse.linalg_s": 0.25,
        "cli.import.scipy.optimize_s": 0.4,
        "cli.import.partialcrit_self_s": 0.0005,
    }


def _run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    # one cycle: about 25 s untraced, 45 s traced on a 2-CPU box
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "alternation",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(trace, kind):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == _declared()[kind]
    for name, metric in result["metrics"].items():
        assert NAME.match(name), name
        assert set(metric) == {"value", "unit"}


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
