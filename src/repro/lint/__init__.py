"""Solver-invariant static analysis (``repro-lint``).

An AST-based lint pass with five repo-specific rules (RL001-RL003, RL005,
RL006) that protect the invariants the golden-regression suite can only
catch late: cache-key completeness, Population column immutability,
artifact determinism, tolerance discipline.  Run it as::

    python -m repro.lint src/
    repro-netneutrality lint --select RL001,RL006 --format json src/

See ``CONTRIBUTING.md`` for each rule's invariant and the suppression
policy (``# repro-lint: disable=RL###`` with a justification).
"""

from repro.lint.analyzer import (
    LintError,
    lint_paths,
    lint_source,
    resolve_codes,
    suppressed_codes,
)
from repro.lint.cli import main
from repro.lint.reporting import (
    REPORT_SCHEMA_VERSION,
    parse_json_report,
    render_json,
    render_rule_list,
    render_text,
)
from repro.lint.rules import RULES, Finding, Rule, get_rule, rule_codes

__all__ = [
    "LintError",
    "Finding",
    "Rule",
    "RULES",
    "REPORT_SCHEMA_VERSION",
    "get_rule",
    "rule_codes",
    "lint_paths",
    "lint_source",
    "resolve_codes",
    "suppressed_codes",
    "parse_json_report",
    "render_json",
    "render_rule_list",
    "render_text",
    "main",
]
