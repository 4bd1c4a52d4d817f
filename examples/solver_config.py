#!/usr/bin/env python
"""SolverConfig: tuning solver tolerances and the cache policy.

Every layer of the stack — the Theorem-1 cap solver, the CP partition game,
the migration equilibrium, the sweeps and the runner — accepts a single
frozen ``SolverConfig`` that bundles:

* the solver tolerances that used to be hard-coded per layer
  (``migration_tolerance``, ``switching_tolerance``, ``surplus_tolerance``,
  ``bisection_tolerance``);
* ``cache_policy``: ``"shared"`` (the registered process-wide caches,
  entries keyed per config so tolerance variants never alias) or
  ``"bypass"``.

Run with ``python examples/solver_config.py``.
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


def main() -> None:
    population = archetype_population()
    strategy = ISPStrategy(kappa=1.0, price=0.4)

    # ------------------------------------------------------------------ #
    # 1. The default config: the documented tolerances, shared caches.
    # ------------------------------------------------------------------ #
    default = SolverConfig()
    print(f"default config: {default}")

    # ------------------------------------------------------------------ #
    # 2. Explicit config= on any game or solver entry point.
    # ------------------------------------------------------------------ #
    config = SolverConfig(bisection_tolerance=1e-12)
    equilibrium = solve_rate_equilibrium(population, 4.0, config=config)
    outcome = MonopolyGame(population, 4.0, config=config).outcome(strategy)
    print(f"\naggregate rate at nu=4: {equilibrium.aggregate_rate:.6f}")
    print(f"monopoly Psi: {outcome.isp_surplus:.6f}")

    # ------------------------------------------------------------------ #
    # 3. Ambient config: experiment functions never mention the config,
    #    but everything constructed inside a use_config block inherits it.
    #    (This is how the runner threads its config through experiments.)
    # ------------------------------------------------------------------ #
    with use_config(SolverConfig(bisection_tolerance=1e-12,
                                 cache_policy="bypass")):
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
