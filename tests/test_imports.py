"""numpy is the one runtime dependency: importing dimspect loads no other non-stdlib module."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import sys
before = set(sys.modules)
import dimspect, dimspect.cli
print(*sorted({name.partition(".")[0] for name in set(sys.modules) - before}))
"""


def test_imports_load_only_stdlib_numpy_and_dimspect():
    # a fresh interpreter: the test process has pytest, hypothesis and mpmath loaded
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(done.stdout.split())
    assert {"dimspect", "numpy"} <= loaded
    assert loaded - sys.stdlib_module_names <= {"dimspect", "numpy"}
