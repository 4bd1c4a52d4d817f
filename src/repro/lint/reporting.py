"""Text and JSON reporters for lint findings.

The text form is the familiar ``path:line:col: CODE message`` layout; the
JSON form is a versioned document that round-trips through
:meth:`repro.lint.rules.Finding.from_dict` (the lint tests assert this),
so CI annotations and editor integrations can consume it directly.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from repro.lint.rules import RULES, Finding

__all__ = ["REPORT_SCHEMA_VERSION", "render_text", "render_json",
           "parse_json_report", "render_rule_list"]

#: Version of the JSON report layout.
REPORT_SCHEMA_VERSION = 1


def render_text(findings: Sequence[Finding]) -> str:
    """One line per finding plus a trailing summary count."""
    lines = [finding.render() for finding in findings]
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"{len(findings)} {noun}")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """The findings as a canonical (sorted-keys) JSON document."""
    payload: Dict[str, Any] = {
        "schema": REPORT_SCHEMA_VERSION,
        "count": len(findings),
        "findings": [finding.to_dict() for finding in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def parse_json_report(text: str) -> List[Finding]:
    """Findings reloaded from :func:`render_json` output."""
    payload = json.loads(text)
    if payload.get("schema") != REPORT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported lint report schema {payload.get('schema')!r}")
    return [Finding.from_dict(entry) for entry in payload["findings"]]


def render_rule_list() -> str:
    """A table of every registered rule (``--list-rules``)."""
    lines = []
    for code in sorted(RULES):
        rule = RULES[code]
        scope = (" [" + "/".join(sorted(rule.path_components)) + "]"
                 if rule.path_components else "")
        lines.append(f"{code} {rule.name}{scope}: {rule.summary}")
    return "\n".join(lines)
