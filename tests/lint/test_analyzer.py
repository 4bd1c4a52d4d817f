"""Analyzer-layer tests: suppressions, --select/--ignore resolution,
path discovery and error handling."""

from pathlib import Path, PurePath

import pytest

from repro.lint.analyzer import (
    LintError,
    lint_paths,
    lint_source,
    resolve_codes,
    suppressed_codes,
)
from repro.lint.rules import rule_codes

FIXTURES = Path(__file__).parent / "fixtures"
BAD_RL005 = FIXTURES / "rl005" / "core" / "bad_float_equality.py"

CORE_PATH = PurePath("src/repro/core/module.py")
VIOLATING = "def converged(residual):\n    return abs(residual) < 1e-9\n"


class TestSuppressions:
    def test_parse_single_and_comma_list(self):
        source = ("x = 1  # repro-lint: disable=RL001\n"
                  "y = 2\n"
                  "z = 3  # repro-lint: disable=RL002, rl005\n")
        assert suppressed_codes(source) == {1: {"RL001"},
                                            3: {"RL002", "RL005"}}

    def test_matching_code_silences_line(self):
        suppressed = VIOLATING.replace(
            "< 1e-9", "< 1e-9  # repro-lint: disable=RL006")
        assert lint_source(VIOLATING, CORE_PATH) != []
        assert lint_source(suppressed, CORE_PATH) == []

    def test_other_code_does_not_silence(self):
        suppressed = VIOLATING.replace(
            "< 1e-9", "< 1e-9  # repro-lint: disable=RL005")
        assert [f.code for f in lint_source(suppressed, CORE_PATH)] == ["RL006"]

    def test_other_line_does_not_silence(self):
        source = "# repro-lint: disable=RL006\n" + VIOLATING
        assert [f.code for f in lint_source(source, CORE_PATH)] == ["RL006"]


class TestResolveCodes:
    def test_defaults_to_all_rules(self):
        assert resolve_codes() == frozenset(rule_codes())

    def test_select_restricts(self):
        assert resolve_codes(select=["RL001", "RL005"]) == {"RL001", "RL005"}

    def test_ignore_removes(self):
        active = resolve_codes(ignore=["RL003"])
        assert "RL003" not in active
        assert len(active) == len(rule_codes()) - 1

    def test_select_and_ignore_compose(self):
        assert resolve_codes(select=["RL001", "RL002"],
                             ignore=["RL002"]) == {"RL001"}

    def test_unknown_code_raises(self):
        with pytest.raises(LintError, match="unknown rule code"):
            resolve_codes(select=["RL999"])
        with pytest.raises(LintError, match="unknown rule code"):
            resolve_codes(ignore=["bogus"])


class TestLintPaths:
    def test_select_filters_findings(self):
        assert lint_paths([str(BAD_RL005)], select=["RL001"]) == []
        findings = lint_paths([str(BAD_RL005)], select=["RL005"])
        assert [f.code for f in findings] == ["RL005"]

    def test_ignore_filters_findings(self):
        assert lint_paths([str(BAD_RL005)], ignore=["RL005"]) == []

    def test_directory_recursion(self):
        findings = lint_paths([str(FIXTURES / "rl005")])
        assert {f.code for f in findings} == {"RL005"}
        assert {Path(f.path).name for f in findings} == {
            "bad_float_equality.py"}

    def test_missing_path_raises(self):
        with pytest.raises(LintError, match="no such file or directory"):
            lint_paths(["does/not/exist.py"])

    def test_syntax_error_raises(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n", encoding="utf-8")
        with pytest.raises(LintError, match="cannot parse"):
            lint_paths([str(broken)])

    def test_duplicate_paths_duplicate_findings(self):
        # lint_paths is a plain concatenation over its arguments; the CLI
        # passes each path once, so no dedup layer exists (pinned here).
        single = lint_paths([str(BAD_RL005)])
        double = lint_paths([str(BAD_RL005), str(BAD_RL005)])
        assert len(double) == 2 * len(single)


def test_source_tree_is_lint_clean():
    """The enforced gate: `python -m repro.lint src/` must stay at zero."""
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    assert src.is_dir()
    findings = lint_paths([str(src)])
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"src/repro has lint findings:\n{rendered}"
