"""Every script in ``demos/`` runs to completion against the package in ``src/``."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONIOENCODING="utf-8",
        TMPDIR=str(tmp_path),
    )
    # Text I/O without an explicit encoding fails the demo.
    result = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        encoding="utf-8",
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert list(tmp_path.iterdir()) == []  # no temporary file left behind
