"""Smoke-run every demo script: each must exit 0 and print something,
with every warning raised as an error."""

import os
import pathlib
import subprocess
import sys

import pytest

import podsnap

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"
SRC = str(pathlib.Path(podsnap.__file__).resolve().parents[1])


@pytest.mark.parametrize(
    "script",
    [
        "01_smooth_vs_advected.py",
        "02_front_steepness.py",
        pytest.param("03_freezing_cavity.py", marks=pytest.mark.slow),
    ],
)
def test_demo_runs(script, tmp_path):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path, PYTHONWARNINGS="error"),
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
