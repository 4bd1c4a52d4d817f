"""Reporter tests: text rendering, JSON round-trip, rule listing."""

import json
from pathlib import Path

import pytest

from repro.lint.analyzer import lint_paths
from repro.lint.reporting import (
    REPORT_SCHEMA_VERSION,
    parse_json_report,
    render_json,
    render_rule_list,
    render_text,
)
from repro.lint.rules import Finding, rule_codes

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture()
def corpus_findings():
    findings = lint_paths([str(FIXTURES)])
    assert findings
    return findings


def test_finding_render_format():
    finding = Finding(path="src/x.py", line=3, column=4, code="RL005",
                      message="exact equality")
    assert finding.render() == "src/x.py:3:4: RL005 exact equality"


def test_finding_dict_round_trip():
    finding = Finding(path="src/x.py", line=3, column=4, code="RL005",
                      message="exact equality")
    assert Finding.from_dict(finding.to_dict()) == finding


def test_render_text_lines_and_count(corpus_findings):
    text = render_text(corpus_findings)
    lines = text.splitlines()
    assert lines[-1] == f"{len(corpus_findings)} findings"
    assert lines[:-1] == [f.render() for f in corpus_findings]


def test_render_text_singular_noun():
    finding = Finding(path="x.py", line=1, column=0, code="RL001", message="m")
    assert render_text([finding]).splitlines()[-1] == "1 finding"
    assert render_text([]).splitlines() == ["0 findings"]


def test_json_round_trip(corpus_findings):
    document = render_json(corpus_findings)
    assert parse_json_report(document) == corpus_findings


def test_json_document_shape(corpus_findings):
    payload = json.loads(render_json(corpus_findings))
    assert payload["schema"] == REPORT_SCHEMA_VERSION
    assert payload["count"] == len(corpus_findings)
    assert len(payload["findings"]) == len(corpus_findings)
    # Canonical bytes: sorted keys at every level.
    assert list(payload) == sorted(payload)
    assert all(list(entry) == sorted(entry) for entry in payload["findings"])


def test_unsupported_schema_rejected():
    document = json.dumps({"schema": 99, "count": 0, "findings": []})
    with pytest.raises(ValueError, match="unsupported lint report schema"):
        parse_json_report(document)


def test_rule_list_mentions_every_rule_and_scope():
    listing = render_rule_list()
    for code in rule_codes():
        assert code in listing
    assert "runner" in listing and "simulation" in listing  # RL003 scope
