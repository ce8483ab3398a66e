"""Byte-identity of the CLI outputs: `tools/digest_outputs.py` on the
bundled configs must print `data/digests.txt`, header and all.

The stored digests hold for the numpy and scipy versions named in the
header that the tool prints; other versions may round differently, so
the test skips when the tool's version line differs from the stored one.
The tool pins BLAS to one thread before it imports numpy, so that the
dense Newton solve behind ``compare`` rounds the same on any machine; the
test therefore runs it as a script in a fresh interpreter, where the pin
takes effect, and the digests hold whatever thread count the test run
itself uses.
A change meant to move an output regenerates the file with

    PYTHONPATH=src python3 tools/digest_outputs.py > tests/data/digests.txt

and says why in CHANGES.md.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().parent / "data" / "digests.txt"


def _runs(lines):
    # {"<config> <subcommand>": {output: digest}} of the digest lines
    return {" ".join(line.split()[:2]): dict(field.split("=", 1)
                                             for field in line.split()[2:])
            for line in lines[2:]}


def _moved(printed, expected):
    """Name each run whose line differs, with the outputs that moved, in
    the stored order; a run on one side only is named as such."""
    got, want = _runs(printed), _runs(expected)
    moved = ["header"] if printed[:2] != expected[:2] else []
    for run in [*want, *(run for run in got if run not in want)]:
        a, b = got.get(run), want.get(run)
        if a is None or b is None:
            moved.append(f"{run}: {'not printed' if a is None else 'new'}")
        elif a != b:
            moved.append(f"{run}: " + ", ".join(
                name for name in [*b, *(n for n in a if n not in b)]
                if a.get(name) != b.get(name)))
    return moved or ["the lines are in another order"]


def test_moved_outputs_are_named_by_run():
    header = ["# h", "# numpy 1 scipy 1"]
    expected = header + ["a check exit=0 stdout=1", "a solve exit=0 stdout=2",
                         "b lemma exit=0 stdout=3 x.json=4"]
    printed = header + ["a check exit=0 stdout=1", "a solve exit=1 stdout=2",
                        "b lemma exit=0 stdout=3 x.json=5 y.json=6",
                        "c check exit=0 stdout=7"]
    assert _moved(printed, expected) == [
        "a solve: exit", "b lemma: x.json, y.json", "c check: new"]
    assert _moved(header, expected) == [
        "a check: not printed", "a solve: not printed", "b lemma: not printed"]
    assert _moved(["# g"] + printed[1:], printed)[0] == "header"
    assert _moved(header + printed[:1:-1], printed) == [
        "the lines are in another order"]


def test_outputs_match_the_stored_digests():
    expected = DIGESTS.read_text(encoding="utf-8").splitlines()
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
               if p)}
    printed = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "digest_outputs.py")], env=env,
        check=True, capture_output=True, text=True).stdout.splitlines()
    if printed[1] != expected[1]:
        pytest.skip(f"digests were taken with {expected[1][2:]}, "
                    f"this is {printed[1][2:]}")
    if printed != expected:
        pytest.fail("outputs moved:\n" + "\n".join(_moved(printed, expected)),
                    pytrace=False)
