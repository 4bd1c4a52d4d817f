"""The perfbench tracer still finds every library name it wraps.

``perfbench/tracing.py`` patches functions, methods and module globals of
the library by name; a renamed or deleted one makes ``install`` raise.
This runs ``install`` in a fresh interpreter, the way the perfbench worker
does, so a missing name fails here and not only in a perfbench run.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path.insert(0, "perfbench")
from tracing import Tracer, install
install(Tracer(), service=True)
"""


def test_tracing_install_resolves_every_patched_name():
    env = dict(os.environ, PYTHONPATH="src")
    result = subprocess.run([sys.executable, "-c", INSTALL], cwd=ROOT,
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
