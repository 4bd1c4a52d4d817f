"""Argument parsing and entry point shared by ``python -m repro.lint``
and the ``repro-netneutrality lint`` subcommand."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.lint.analyzer import LintError, lint_paths
from repro.lint.reporting import render_json, render_rule_list, render_text

__all__ = ["build_parser", "main", "run"]


def _split_codes(values: Optional[Sequence[str]]) -> Optional[List[str]]:
    """Flatten repeated/comma-separated ``--select``/``--ignore`` values."""
    if not values:
        return None
    codes = []
    for value in values:
        codes.extend(token.strip().upper()
                     for token in value.split(",") if token.strip())
    return codes


def build_parser(prog: str = "repro-lint") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Solver-invariant static analysis for the "
                    "repro-netneutrality codebase (rules RL001-RL003, "
                    "RL005, RL006)")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--select", action="append", metavar="CODES",
                        default=None,
                        help="run only these rule codes (comma list, "
                             "repeatable)")
    parser.add_argument("--ignore", action="append", metavar="CODES",
                        default=None,
                        help="skip these rule codes (comma list, repeatable)")
    parser.add_argument("--format", dest="output_format", default="text",
                        choices=("text", "json"),
                        help="report format (default: text)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered rules and exit")
    return parser


def run(args: argparse.Namespace) -> int:
    """Execute one parsed lint invocation; returns the exit code."""
    if args.list_rules:
        print(render_rule_list())
        return 0
    try:
        findings = lint_paths(args.paths,
                              select=_split_codes(args.select),
                              ignore=_split_codes(args.ignore))
    except LintError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.output_format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    return 1 if findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    return run(parser.parse_args(argv))
