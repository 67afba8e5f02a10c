"""Smoke test for the demo scripts: each one runs to completion and prints
exactly what it printed when its digest was recorded.

The demos are deterministic, so a digest of stdout pins their whole output.
A change that alters a demo's output on purpose re-records its digest here.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "codec_walkthrough": "ccdf3147e7d2e04e770a3a788e402d9e86f12f43e7fee81780082cff0c25b3d8",
    "link_budget": "3b152fdbdcfeb314f502950c82c59cba1a10954b3ad8544aea6a53209816f3cf",
    "phantom_intercept": "7fb3b3d13c1d0c35d1724eeb9c6b53050235d82c58300ab3810981ba9a6dac2a",
    "risk_sensitivity": "12b757f70928c938d059fb2b8c4dfafc21322bcc07af475790796a0ab571430c",
}


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output_is_unchanged(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          capture_output=True, env=env, timeout=60, check=False)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[name]
