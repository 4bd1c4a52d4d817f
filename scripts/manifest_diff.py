#!/usr/bin/env python
"""Diff two reproduce-all run manifests and fail on any mismatch.

Usage::

    python scripts/manifest_diff.py golden/manifest.json current/manifest.json

Prints a per-experiment table (golden hash, current hash, status) and exits
non-zero when any artifact hash, size or finding status differs, or when an
experiment is present in only one manifest.  Because reproduce-all's
artifact bytes are canonical, two manifests agree exactly when every
experiment produced byte-identical output — this is the CI check that the
sharded runner is deterministic across worker counts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


#: Mirrors repro.runner.artifacts; kept in sync so this script stays
#: stdlib-only and runnable without PYTHONPATH (like bench_compare.py).
MANIFEST_KIND = "repro-netneutrality/run-manifest"
MANIFEST_SCHEMA_VERSION = 1


def load_manifest(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"manifest_diff: cannot read {path}: {error}")
    if not isinstance(payload, dict) or \
            payload.get("kind") != MANIFEST_KIND:
        raise SystemExit(f"manifest_diff: {path} is not a run manifest")
    if payload.get("schema") != MANIFEST_SCHEMA_VERSION:
        raise SystemExit(
            f"manifest_diff: {path} has unsupported manifest schema "
            f"{payload.get('schema')!r} (this tool reads version "
            f"{MANIFEST_SCHEMA_VERSION})")
    experiments = payload.get("experiments")
    if not isinstance(experiments, dict):
        raise SystemExit(f"manifest_diff: {path} has no experiments table")
    for name, entry in experiments.items():
        if not isinstance(entry, dict) or not isinstance(
                entry.get("sha256"), str):
            raise SystemExit(
                f"manifest_diff: {path}: experiment {name!r} lacks a "
                "sha256 digest")
    return payload


def compare(golden: dict, current: dict) -> tuple[list[str], bool]:
    """Render the comparison table; returns (lines, any_mismatch)."""
    golden_entries = golden["experiments"]
    current_entries = current["experiments"]
    names = sorted(set(golden_entries) | set(current_entries))
    width = max([len(name) for name in names] + [10])
    header = f"{'experiment':<{width}} {'golden':>12} {'current':>12}  status"
    lines = [header, "-" * len(header)]
    mismatch = golden.get("scale") != current.get("scale")
    if mismatch:
        lines.append(f"scale mismatch: {golden.get('scale')!r} != "
                     f"{current.get('scale')!r}")
    if golden.get("solver") != current.get("solver"):
        # Comparing runs under different solver settings (tolerances or
        # cache policy) is apples-to-oranges even when the hashes happen to
        # agree — flag it exactly like a scale mismatch.
        lines.append(f"solver mismatch: {golden.get('solver')!r} != "
                     f"{current.get('solver')!r}")
        mismatch = True
    for name in names:
        before = golden_entries.get(name)
        after = current_entries.get(name)
        if before is None or after is None:
            status = "golden-only" if after is None else "current-only"
            lines.append(f"{name:<{width}} {'':>12} {'':>12}  {status}")
            mismatch = True
            continue
        short_before = before["sha256"][:12]
        short_after = after["sha256"][:12]
        if before["sha256"] != after["sha256"]:
            status = "HASH MISMATCH"
            mismatch = True
        elif before.get("failed_findings") != after.get("failed_findings"):
            status = "FINDINGS MISMATCH"
            mismatch = True
        else:
            status = "ok"
        lines.append(f"{name:<{width}} {short_before:>12} {short_after:>12}"
                     f"  {status}")
    return lines, mismatch


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when two reproduce-all manifests differ.")
    parser.add_argument("golden", type=Path,
                        help="manifest.json of the reference run")
    parser.add_argument("current", type=Path,
                        help="manifest.json of the run under test")
    args = parser.parse_args(argv)
    golden = load_manifest(args.golden)
    current = load_manifest(args.current)
    lines, mismatch = compare(golden, current)
    print("\n".join(lines))
    if mismatch:
        print("\nFAIL: manifests differ", file=sys.stderr)
        return 1
    print("\nOK: manifests agree on every artifact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
