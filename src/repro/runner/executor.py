"""Sharded multi-process execution of the full reproduction suite.

The executor distributes experiments across worker processes as *shards*
(round-robin groups).  Each worker process keeps its own solver caches
(:mod:`repro.cache` state is per-process), so experiments inside one shard
reuse each other's equilibria while workers never contend on shared state.
Because every cache hit is guaranteed bit-identical to recomputation and
each experiment is a pure function of its parameters, the artifact bytes —
and therefore the manifest — are **byte-identical for any worker count,
shard count and shard order** (a property the test suite asserts).

Artifacts and the manifest are written by the parent process only; workers
return canonical bytes.  ``run_info.json`` receives the non-deterministic
run metadata (wall times, worker count) and is excluded from all
determinism guarantees.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.context import BaseContext
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SolverConfig, resolve_config
from repro.errors import ModelValidationError
from repro.runner import artifacts as artifacts_mod
from repro.runner.registry import experiment_ids, get_spec

__all__ = ["RunSummary", "shard_experiments", "reproduce_all"]

#: File name of the non-deterministic run metadata.
RUN_INFO_FILENAME = "run_info.json"


@dataclass(frozen=True)
class RunSummary:
    """What one ``reproduce_all`` invocation produced."""

    scale: str
    output_dir: Path
    manifest_path: Path
    manifest_sha256: str
    experiment_ids: Tuple[str, ...]
    failed_findings: Dict[str, List[str]] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    workers: int = 1

    @property
    def ok(self) -> bool:
        """True when every expected finding of every experiment held."""
        return not any(self.failed_findings.values())


def shard_experiments(ids: Sequence[str], shards: int) -> List[List[str]]:
    """``ids`` distributed round-robin over ``shards`` non-empty groups."""
    if shards <= 0:
        raise ModelValidationError(f"shards must be positive, got {shards}")
    shards = min(shards, len(ids)) or 1
    groups: List[List[str]] = [[] for _ in range(shards)]
    for index, experiment_id in enumerate(ids):
        groups[index % shards].append(experiment_id)
    return groups


def _execute_shard(shard: Sequence[str], scale: str, count: Optional[int],
                   seed: Optional[int],
                   config: Optional[SolverConfig] = None,
                   ) -> List[Tuple[str, bytes, List[str], float]]:
    """Run one shard of experiments sequentially (inside one process).

    Returns ``(experiment_id, artifact_bytes, failed_findings, seconds)``
    tuples; module-level so it pickles under the ``spawn`` start method
    (:class:`SolverConfig` is a frozen dataclass and pickles with it).
    """
    results = []
    for experiment_id in shard:
        spec = get_spec(experiment_id)
        started = time.perf_counter()
        result = spec.run(scale=scale,
                          count=count if spec.count_aware else None,
                          seed=seed if spec.seed_aware else None,
                          config=config)
        elapsed = time.perf_counter() - started
        data = artifacts_mod.result_to_artifact_bytes(result)
        results.append((experiment_id, data, spec.failed_findings(result),
                        elapsed))
    return results


def _child_import_path() -> None:
    """Make ``repro`` importable in spawned workers.

    ``spawn`` children re-import this module from scratch; when the parent
    runs off ``PYTHONPATH=src`` (the repo is not pip-installed) the child
    inherits the environment, but a parent that manipulated ``sys.path``
    directly would not propagate it — so the source root is appended to
    ``PYTHONPATH`` explicitly before the pool starts.
    """
    import repro
    source_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = os.environ.get("PYTHONPATH", "")
    parts = existing.split(os.pathsep) if existing else []
    if source_root not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([source_root] + parts)


def _pool_context() -> BaseContext:
    """The multiprocessing context for worker pools.

    ``fork`` (where the platform offers it) starts instantly and — unlike
    ``spawn`` — works under parents whose ``__main__`` is not a re-runnable
    file (stdin scripts, REPLs).  The output bytes are independent of the
    start method either way.
    """
    try:
        return get_context("fork")
    except ValueError:
        _child_import_path()
        return get_context("spawn")


def reproduce_all(ids: Optional[Sequence[str]] = None,
                  scale: str = "smoke",
                  workers: int = 1,
                  shards: Optional[int] = None,
                  output_dir: Path = Path("artifacts"),
                  count: Optional[int] = None,
                  seed: Optional[int] = None,
                  shard_order: Optional[Sequence[int]] = None,
                  config: Optional[SolverConfig] = None) -> RunSummary:
    """Run the whole suite (or ``ids``) and write artifacts + manifest.

    ``workers`` processes execute ``shards`` round-robin groups of
    experiments (default: one shard per worker).  ``shard_order`` permutes
    the shard submission order — exposed so tests can assert that neither
    sharding nor scheduling affects the output bytes.  ``config`` selects
    the solver tolerances for every experiment; its provenance is
    recorded in each artifact and in the manifest's ``solver`` block.
    Returns a :class:`RunSummary`; artifacts land in ``output_dir/<scale>/``.
    """
    started = time.perf_counter()
    config = resolve_config(config)
    if ids is None:
        ids = experiment_ids()
    ids = list(dict.fromkeys(ids))
    if not ids:
        raise ModelValidationError("no experiments selected")
    specs = [get_spec(experiment_id) for experiment_id in ids]
    if workers <= 0:
        raise ModelValidationError(f"workers must be positive, got {workers}")
    del specs  # validation only; shards re-resolve by id

    groups = shard_experiments(ids, shards if shards is not None else workers)
    if shard_order is not None:
        if sorted(shard_order) != list(range(len(groups))):
            raise ModelValidationError(
                f"shard_order must be a permutation of 0..{len(groups) - 1}")
        groups = [groups[index] for index in shard_order]

    collected: Dict[str, Tuple[bytes, List[str], float]] = {}
    if workers == 1:
        shard_results = [_execute_shard(group, scale, count, seed, config)
                         for group in groups]
    else:
        context = _pool_context()
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=context) as pool:
            futures = [pool.submit(_execute_shard, group, scale, count, seed,
                                   config)
                       for group in groups]
            shard_results = [future.result() for future in futures]
    for shard_result in shard_results:
        for experiment_id, data, failed, elapsed in shard_result:
            collected[experiment_id] = (data, failed, elapsed)

    run_dir = Path(output_dir) / scale
    run_dir.mkdir(parents=True, exist_ok=True)
    # The run directory is this runner's namespace: drop artifacts from
    # earlier runs so the manifest always describes exactly the files on
    # disk (a re-run with --only, or after renaming an experiment, must
    # not leave stale artifacts beside a manifest that omits them).
    for stale in run_dir.glob("*.json"):
        stale.unlink()
    artifact_bytes = {experiment_id: collected[experiment_id][0]
                      for experiment_id in ids}
    failed_findings = {experiment_id: collected[experiment_id][1]
                       for experiment_id in ids}
    for experiment_id, data in artifact_bytes.items():
        (run_dir / artifacts_mod.artifact_filename(experiment_id)
         ).write_bytes(data)
    manifest = artifacts_mod.build_manifest(scale, artifact_bytes,
                                            failed_findings,
                                            solver=config.provenance())
    manifest_data = artifacts_mod.manifest_bytes(manifest)
    manifest_path = run_dir / "manifest.json"
    manifest_path.write_bytes(manifest_data)

    elapsed_total = time.perf_counter() - started
    run_info = {
        "workers": workers,
        "shards": [list(group) for group in groups],
        "elapsed_seconds": round(elapsed_total, 3),
        "experiment_seconds": {
            experiment_id: round(collected[experiment_id][2], 3)
            for experiment_id in sorted(ids)},
        "python": sys.version.split()[0],
    }
    (run_dir / RUN_INFO_FILENAME).write_bytes(
        artifacts_mod.canonical_json_bytes(run_info))

    return RunSummary(
        scale=scale,
        output_dir=run_dir,
        manifest_path=manifest_path,
        manifest_sha256=artifacts_mod.sha256_bytes(manifest_data),
        experiment_ids=tuple(sorted(ids)),
        failed_findings={k: v for k, v in failed_findings.items() if v},
        elapsed_seconds=elapsed_total,
        workers=workers,
    )
