"""The four demos print exactly what they printed before: each runs
in-process and its stdout is pinned by SHA-256 digest.

A change that alters a demo's output on purpose updates its digest here,
from ``python demos/<name>.py | sha256sum``.
"""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

STDOUT_SHA256 = {
    "01_enumerate_and_statistics.py": "9793beac93e845adb13f8e30514d00bbbb7de7576cc765fb67e8ad64a822b7fe",
    "02_generating_functions.py": "612a515725b5ef1ed4b87aabc9eabefb603a289276e20f2845820d9d60e1e0ff",
    "03_exact_totals.py": "2c2d6ab3313f8a1cd5c0c22f16ffc53764fe58e5d35b0c78e13d604e68cc1b6f",
    "04_asymptotics.py": "8dfc5687a88b7ace8f385081fa364d65bb37719abb77f0bb9a18a725d3e3563b",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output_is_unchanged(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == STDOUT_SHA256[name]
