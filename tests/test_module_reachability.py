"""Every ``src/repro`` module is reached from a shipped entry point.

The import graph is walked statically (``ast`` only; nothing is imported)
from the CLI, the lint entry point and whatever ``examples/`` and
``scripts/`` import.  A re-export from a package ``__init__`` is not a use,
so a module that only its package's ``__all__`` keeps alive fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Modules no shipped path imports, kept on purpose.
ALLOWED = {
    "repro.network.axioms": "reference checker for Axioms 1-4 that tests "
                            "run every mechanism against",
    "repro.runner.compare": "golden diff used by test_golden.py and CI",
}


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {module_name(path): path for path in SRC.glob("repro/**/*.py")}


def imported(path: Path) -> set[str]:
    """The ``repro`` modules that the import statements of ``path`` name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names & MODULES.keys()


def reached() -> set[str]:
    stack = ["repro.cli", "repro.lint.__main__"]
    for path in sorted(ROOT.glob("examples/*.py")) + sorted(ROOT.glob("scripts/*.py")):
        stack.extend(imported(path))
    seen: set[str] = set()
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            if MODULES[name].name != "__init__.py":
                stack.extend(imported(MODULES[name]))
    return seen


def test_every_module_is_reached_or_allowed():
    modules = {name for name, path in MODULES.items() if path.name != "__init__.py"}
    unreached = modules - reached() - ALLOWED.keys()
    assert not unreached, f"no shipped path imports {sorted(unreached)}"


def test_allowlist_names_only_unreached_modules():
    assert ALLOWED.keys() <= MODULES.keys()
    assert not ALLOWED.keys() & reached()
