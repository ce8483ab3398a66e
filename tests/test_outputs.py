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
    assert printed == expected
