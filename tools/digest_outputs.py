"""Print one digest line per CLI run of the bundled configs.

Every config runs through each subcommand that applies to it (``lemma``
for a ``matrix`` problem; ``check``, ``solve`` and ``compare`` for the
others), in this process through ``partialcrit.cli.main``. Each line
names the config and subcommand, then gives the exit code and the sha256
of stdout, of stderr and of every data file the run wrote.
``manifest.json`` is left out: it carries a timestamp and the config
path.

The first two lines are a header naming the numpy and scipy versions,
so that

    PYTHONPATH=src python3 tools/digest_outputs.py > tests/data/digests.txt

regenerates the stored digests whole. Two trees give the same outputs
when their digests are equal:

    PYTHONPATH=<parent checkout>/src python3 tools/digest_outputs.py > a.txt
    PYTHONPATH=src python3 tools/digest_outputs.py > b.txt
    diff a.txt b.txt

``--out DIR`` keeps the files under ``DIR/<config>/<subcommand>/``, so
``diff -r`` of two such directories shows what changed.

BLAS runs on one thread, whatever the environment says, so that no
digest can move with the machine's thread count. The one step known to
round with it, the dense Newton solve behind ``compare``, runs only
where a config asks for it (``scalar_closed_form``, two unknowns), and
the Stokes solves are checked equal on one thread and on the default in
CI. The pin is set before numpy is imported, so run the tool as a
script, not from a process that already loaded numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# before numpy loads its BLAS, which reads these once
for _threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_threads] = "1"

import numpy as np
import scipy

from partialcrit import cli

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
HEADER = ("# Output of tools/digest_outputs.py on the bundled configs.",
          f"# numpy {np.__version__} scipy {scipy.__version__}")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _subcommands(config: Path) -> tuple[str, ...]:
    problem = json.loads(config.read_text(encoding="utf-8")).get("problem")
    if isinstance(problem, dict) and problem.get("kind") == "matrix":
        return ("lemma",)
    return ("check", "solve", "compare")


def digest(config: Path, command: str, out: Path) -> str:
    """Run one subcommand into `out` and return its digest line."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = str(cli.main([command, "--config", str(config),
                                 "--out", str(out)]))
        except Exception as exc:  # a crash is an outcome to compare too
            code = f"raised:{type(exc).__name__}"
            print(exc, file=sys.stderr)
    fields = [config.stem, command, f"exit={code}",
              f"stdout={_sha(stdout.getvalue().encode())}",
              f"stderr={_sha(stderr.getvalue().encode())}"]
    if out.is_dir():
        fields += [f"{path.name}={_sha(path.read_bytes())}"
                   for path in sorted(out.iterdir())
                   if path.name != "manifest.json"]
    return " ".join(fields)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="keep the outputs under this directory")
    args = parser.parse_args(argv)
    print(*HEADER, sep="\n")
    with tempfile.TemporaryDirectory() as scratch:
        root = args.out or Path(scratch)
        for config in sorted(CONFIGS.glob("*.json")):
            for command in _subcommands(config):
                print(digest(config, command, root / config.stem / command))
    return 0


if __name__ == "__main__":
    sys.exit(main())
