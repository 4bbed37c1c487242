"""Checks on the package source itself."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_single_numpy_scipy_path():
    # one NumPy/SciPy code path: no JIT layer, decorator or switch between two
    banned = re.compile(r"numba|njit|FRACLAT_NUMBA|JIT_ENABLED")
    hits = [f"{path.relative_to(SRC)}:{no}"
            for path in sorted(SRC.rglob("*.py"))
            for no, line in enumerate(path.read_text().splitlines(), 1)
            if banned.search(line)]
    assert hits == []
