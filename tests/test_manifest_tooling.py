"""Tests for the run-manifest comparison tooling (CI determinism gate)."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "manifest_diff.py"


def write_manifest(path: pathlib.Path, entries: dict[str, str],
                   scale: str = "smoke", solver: dict | None = None) -> None:
    payload = {
        "schema": 1,
        "kind": "repro-netneutrality/run-manifest",
        "scale": scale,
        "experiments": {
            name: {"artifact": f"{name}.json", "sha256": sha,
                   "bytes": 100, "failed_findings": []}
            for name, sha in entries.items()
        },
    }
    if solver is not None:
        payload["solver"] = solver
    path.write_text(json.dumps(payload), encoding="utf-8")


def run_diff(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True)


class TestManifestDiff:
    def test_ok_on_identical_manifests(self, tmp_path):
        golden = tmp_path / "golden.json"
        current = tmp_path / "current.json"
        write_manifest(golden, {"FIG2": "a" * 64, "THM4": "b" * 64})
        write_manifest(current, {"FIG2": "a" * 64, "THM4": "b" * 64})
        result = run_diff(str(golden), str(current))
        assert result.returncode == 0, result.stderr
        assert "OK" in result.stdout

    def test_fails_on_hash_mismatch(self, tmp_path):
        golden = tmp_path / "golden.json"
        current = tmp_path / "current.json"
        write_manifest(golden, {"FIG2": "a" * 64})
        write_manifest(current, {"FIG2": "c" * 64})
        result = run_diff(str(golden), str(current))
        assert result.returncode == 1
        assert "HASH MISMATCH" in result.stdout

    def test_fails_on_missing_experiment(self, tmp_path):
        golden = tmp_path / "golden.json"
        current = tmp_path / "current.json"
        write_manifest(golden, {"FIG2": "a" * 64, "THM4": "b" * 64})
        write_manifest(current, {"FIG2": "a" * 64})
        result = run_diff(str(golden), str(current))
        assert result.returncode == 1
        assert "golden-only" in result.stdout

    def test_fails_on_scale_mismatch(self, tmp_path):
        golden = tmp_path / "golden.json"
        current = tmp_path / "current.json"
        write_manifest(golden, {"FIG2": "a" * 64}, scale="smoke")
        write_manifest(current, {"FIG2": "a" * 64}, scale="default")
        result = run_diff(str(golden), str(current))
        assert result.returncode == 1
        assert "scale mismatch" in result.stdout

    def test_fails_on_solver_mismatch(self, tmp_path):
        golden = tmp_path / "golden.json"
        current = tmp_path / "current.json"
        write_manifest(golden, {"FIG2": "a" * 64},
                       solver={"tolerances": {"bisection": 1e-13}})
        write_manifest(current, {"FIG2": "a" * 64},
                       solver={"tolerances": {"bisection": 1e-12}})
        result = run_diff(str(golden), str(current))
        assert result.returncode == 1
        assert "solver mismatch" in result.stdout

    def test_solver_absent_in_both_is_ok(self, tmp_path):
        # Manifests older than solver provenance carry no solver block;
        # comparing two of them must not trip the solver check.
        golden = tmp_path / "golden.json"
        current = tmp_path / "current.json"
        write_manifest(golden, {"FIG2": "a" * 64})
        write_manifest(current, {"FIG2": "a" * 64})
        result = run_diff(str(golden), str(current))
        assert result.returncode == 0

    def test_rejects_non_manifest_file(self, tmp_path):
        golden = tmp_path / "golden.json"
        golden.write_text("[]")
        current = tmp_path / "current.json"
        write_manifest(current, {"FIG2": "a" * 64})
        result = run_diff(str(golden), str(current))
        assert result.returncode != 0
        assert "not a run manifest" in result.stderr

    def test_rejects_unsupported_schema_version(self, tmp_path):
        golden = tmp_path / "golden.json"
        current = tmp_path / "current.json"
        write_manifest(golden, {"FIG2": "a" * 64})
        payload = json.loads(golden.read_text())
        payload["schema"] = 99
        golden.write_text(json.dumps(payload))
        write_manifest(current, {"FIG2": "a" * 64})
        result = run_diff(str(golden), str(current))
        assert result.returncode != 0
        assert "unsupported manifest schema" in result.stderr

    def test_rejects_entry_without_sha256(self, tmp_path):
        golden = tmp_path / "golden.json"
        current = tmp_path / "current.json"
        write_manifest(golden, {"FIG2": "a" * 64})
        payload = json.loads(golden.read_text())
        del payload["experiments"]["FIG2"]["sha256"]
        golden.write_text(json.dumps(payload))
        write_manifest(current, {"FIG2": "a" * 64})
        result = run_diff(str(golden), str(current))
        assert result.returncode != 0
        assert "lacks a sha256" in result.stderr

    def test_real_golden_manifest_self_compare(self, tmp_path):
        golden = (pathlib.Path(__file__).resolve().parent
                  / "runner" / "golden" / "smoke" / "manifest.json")
        result = run_diff(str(golden), str(golden))
        assert result.returncode == 0, result.stderr
