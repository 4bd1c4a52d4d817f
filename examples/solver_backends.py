#!/usr/bin/env python
"""SolverConfig: choosing a kernel backend and tuning solver tolerances.

Every layer of the stack — the Theorem-1 cap solver, the CP partition game,
the migration equilibrium, the sweeps and the runner — accepts a single
frozen ``SolverConfig`` that bundles:

* ``backend``: which carried-load kernel to use (``"reference"`` — the
  exact numpy implementation, the numerical baseline of every golden
  artifact — or ``"numba"``, njit-compiled loops that agree with the
  reference to <= 1e-10 and fall back to it, with a warning, when numba
  is not installed);
* the solver tolerances that used to be hard-coded per layer
  (``migration_tolerance``, ``switching_tolerance``, ``surplus_tolerance``,
  ``bisection_tolerance``);
* ``cache_policy``: ``"shared"`` (the registered process-wide caches,
  entries keyed per config so backends never alias) or ``"bypass"``.

Run with ``python examples/solver_backends.py``.
"""

from __future__ import annotations

from repro import (
    ISPStrategy,
    MonopolyGame,
    SolverConfig,
    archetype_population,
    solve_rate_equilibrium,
    use_config,
)
from repro.backends import available_backends


def main() -> None:
    population = archetype_population()
    strategy = ISPStrategy(kappa=1.0, price=0.4)

    # ------------------------------------------------------------------ #
    # 1. The default config: reference backend, documented tolerances.
    # ------------------------------------------------------------------ #
    default = SolverConfig()
    print(f"backends on this machine: {available_backends()}")
    print(f"default config: {default}")

    # ------------------------------------------------------------------ #
    # 2. Explicit config= on any game or solver entry point.
    # ------------------------------------------------------------------ #
    config = SolverConfig(backend="numba")  # degrades gracefully w/o numba
    equilibrium = solve_rate_equilibrium(population, 4.0, config=config)
    outcome = MonopolyGame(population, 4.0, config=config).outcome(strategy)
    print(f"\nbackend {config.backend!r} resolved to "
          f"{config.effective_backend()!r}")
    print(f"aggregate rate at nu=4: {equilibrium.aggregate_rate:.6f}")
    print(f"monopoly Psi: {outcome.isp_surplus:.6f}")

    # ------------------------------------------------------------------ #
    # 3. Ambient config: experiment functions never mention the config,
    #    but everything constructed inside a use_config block inherits it.
    #    (This is how `repro-netneutrality run --backend numba` works.)
    # ------------------------------------------------------------------ #
    with use_config(SolverConfig(cache_policy="bypass")):
        bypass = MonopolyGame(population, 4.0).outcome(strategy)
    print(f"\nbypass-policy Psi matches: {bypass.isp_surplus == outcome.isp_surplus}")

    # ------------------------------------------------------------------ #
    # 4. Provenance: what gets stamped into artifacts and the manifest.
    # ------------------------------------------------------------------ #
    print("\nsolver provenance recorded by the runner:")
    for key, value in sorted(config.provenance().items()):
        print(f"  {key}: {value}")


if __name__ == "__main__":
    main()
