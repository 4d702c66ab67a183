"""The four demos print the same bytes as the stdout pinned under tests/golden/demos/.

Each demo runs in its own temporary working directory, since some write
CSV files there.  Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_demos.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


def _stdout(demo: Path, workdir: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=workdir,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_stdout_matches_golden(demo, tmp_path):
    assert _stdout(demo, str(tmp_path)) == (GOLDEN / f"{demo.stem}.txt").read_text()


def regenerate() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / f"{demo.stem}.txt").write_text(_stdout(demo, tmp))


if __name__ == "__main__":
    sys.exit(regenerate())
