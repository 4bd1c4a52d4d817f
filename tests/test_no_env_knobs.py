"""``src/repro`` reads no ``REPRO_*`` environment variable.

Every knob is a CLI flag or a :class:`repro.config.SolverConfig` field, so a
run is reproduced by its command line alone.  The source is scanned
statically (``ast`` only; nothing is imported), the way
``test_module_reachability.py`` walks imports: no string literal may start
with ``REPRO_``, and every environment read must name its variable by a
literal, so the name cannot hide behind a constant or a parameter.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PATHS = sorted(SRC.glob("repro/**/*.py"))


def _is_environ(node: ast.AST) -> bool:
    """``os.environ`` or a bare ``environ``."""
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ")


def _env_names(tree: ast.AST):
    """The variable-name expression of every environment read or write."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_environ(node.value):
            yield node.slice
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if (func.attr in {"get", "pop", "setdefault"}
                    and _is_environ(func.value)) or func.attr == "getenv":
                yield node.args[0] if node.args else func


def findings(source: str) -> list[int]:
    """Lines naming a ``REPRO_*`` string or reading the environment
    through a non-literal name."""
    tree = ast.parse(source)
    repro_names = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Constant)
                   and isinstance(node.value, str)
                   and node.value.startswith("REPRO_")]
    indirect = [name.lineno for name in _env_names(tree)
                if not (isinstance(name, ast.Constant)
                        and isinstance(name.value, str))]
    return sorted(repro_names + indirect)


def test_source_reads_no_repro_environment_variable():
    assert PATHS, f"no sources under {SRC}"
    offenders = [f"{path.relative_to(SRC)}:{line}" for path in PATHS
                 for line in findings(path.read_text())]
    assert not offenders, f"REPRO_* or indirect environment reads: {offenders}"


@pytest.mark.parametrize("source", [
    'import os\nos.environ["REPRO_WORKERS"]\n',
    'import os\nBUDGET = "REPRO_CACHE_BUDGET"\n',
    'import os\ndef knob(name):\n    return os.environ.get(name)\n',
    'import os\nVARIABLE = "X"\nos.getenv(VARIABLE)\n',
    'from os import environ\nenviron.setdefault(f"REPRO_{1}", "1")\n',
])
def test_scan_flags_repro_names_and_indirect_reads(source):
    assert findings(source)


def test_scan_accepts_a_literal_non_repro_read():
    assert findings('import os\nos.environ.get("PYTHONPATH", "")\n') == []
