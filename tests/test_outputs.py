"""Byte-identity of the CLI outputs: `tools/digest_outputs.py` on the
bundled configs must print the digests stored in `data/digests.txt`.

The stored digests hold for the numpy and scipy versions named in the
file's header; other versions may round differently, so the test skips
there. A change meant to move an output regenerates the file with

    PYTHONPATH=src python3 tools/digest_outputs.py

under the header's two lines, and says why in CHANGES.md.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest
import scipy

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().parent / "data" / "digests.txt"


def _stored() -> tuple[str, list[str]]:
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    versions = next(line for line in lines if line.startswith("# numpy "))
    return versions, [line for line in lines if not line.startswith("#")]


def _digest_tool():
    path = ROOT / "tools" / "digest_outputs.py"
    spec = importlib.util.spec_from_file_location("digest_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_stored_digests():
    versions, expected = _stored()
    here = f"# numpy {np.__version__} scipy {scipy.__version__}"
    if here != versions:
        pytest.skip(f"digests were taken with {versions[2:]}, "
                    f"this is {here[2:]}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert _digest_tool().main([]) == 0
    assert out.getvalue().splitlines() == expected
