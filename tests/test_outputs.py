"""Byte-identity of the CLI outputs: `tools/digest_outputs.py` on the
bundled configs must print `data/digests.txt`, header and all.

The stored digests hold for the numpy and scipy versions named in the
header that the tool prints; other versions may round differently, so
the test skips when the tool's version line differs from the stored one.
A change meant to move an output regenerates the file with

    PYTHONPATH=src python3 tools/digest_outputs.py > tests/data/digests.txt

and says why in CHANGES.md.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().parent / "data" / "digests.txt"


def _digest_tool():
    path = ROOT / "tools" / "digest_outputs.py"
    spec = importlib.util.spec_from_file_location("digest_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_stored_digests():
    expected = DIGESTS.read_text(encoding="utf-8").splitlines()
    tool = _digest_tool()
    stored, here = expected[1], tool.HEADER[1]
    if here != stored:
        pytest.skip(f"digests were taken with {stored[2:]}, "
                    f"this is {here[2:]}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert tool.main([]) == 0
    assert out.getvalue().splitlines() == expected
