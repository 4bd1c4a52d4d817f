"""Parameter sweeps over the monopoly and duopoly games.

Each sweep returns a :class:`~repro.simulation.results.SweepResult` with the
per-capita ISP surplus ``Psi``, consumer surplus ``Phi`` and (for the
duopoly) the strategic ISP's market share ``m_I`` as named series — exactly
the quantities plotted in the paper's Figures 4, 5, 7 and 8.

All four sweeps run on the batched equilibrium engine
(:mod:`repro.simulation.batch`): the full population's Theorem-1 caps at
every service-class capacity in the grid are solved in one grid cap solve
up front and seeded into the class-cap cache, and the per-point
second-stage games then read their class caps and partition outcomes from
that shared memoisation (each class's rates follow from its cap).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.config import SolverConfig
from repro.core.duopoly import DuopolyGame
from repro.core.monopoly import MonopolyGame
from repro.core.strategy import ISPStrategy, PUBLIC_OPTION_STRATEGY
from repro.network.allocation import RateAllocationMechanism
from repro.network.provider import Population
from repro.simulation.batch import warm_equilibrium_cache
from repro.simulation.results import Series, SweepResult

__all__ = [
    "monopoly_price_sweep",
    "monopoly_capacity_sweep",
    "duopoly_price_sweep",
    "duopoly_capacity_sweep",
]


def _class_capacities(nus: Sequence[float],
                      kappas: Iterable[float]) -> tuple[float, ...]:
    """Every service-class capacity a sweep grid will need, de-duplicated."""
    capacities = set()
    for nu in nus:
        for kappa in kappas:
            capacities.add(kappa * float(nu))
            capacities.add((1.0 - kappa) * float(nu))
    return tuple(sorted(capacities))


def monopoly_price_sweep(population: Population, nus: Iterable[float],
                         prices: Sequence[float], kappa: float = 1.0,
                         mechanism: Optional[RateAllocationMechanism] = None,
                         config: Optional[SolverConfig] = None,
                         ) -> tuple[SweepResult, SweepResult]:
    """ISP surplus and consumer surplus versus premium price (Figure 4).

    Returns two panels (``Psi`` and ``Phi``), each with one series per
    per-capita capacity value in ``nus``.
    """
    price_grid = tuple(float(p) for p in prices)
    nus = tuple(float(nu) for nu in nus)
    # One vectorised pass solves the full population's cap at every class
    # capacity the grid can produce (all-ordinary / all-premium
    # partitions); the per-point games below then start from cache hits.
    warm_equilibrium_cache(population, _class_capacities(nus, (kappa,)),
                           mechanism, config=config)
    psi_panel = SweepResult(title=f"Per capita ISP surplus Psi vs price (kappa={kappa})",
                            parameters={"kappa": kappa})
    phi_panel = SweepResult(title=f"Per capita consumer surplus Phi vs price (kappa={kappa})",
                            parameters={"kappa": kappa})
    for nu in nus:
        game = MonopolyGame(population, float(nu), mechanism, config=config)
        outcomes = game.price_sweep(price_grid, kappa=kappa)
        psi_panel.add(Series(name=f"nu={float(nu):g}", x=price_grid,
                             y=tuple(o.isp_surplus for o in outcomes),
                             x_label="price c", y_label="Psi"))
        phi_panel.add(Series(name=f"nu={float(nu):g}", x=price_grid,
                             y=tuple(o.consumer_surplus for o in outcomes),
                             x_label="price c", y_label="Phi"))
    return psi_panel, phi_panel


def monopoly_capacity_sweep(population: Population,
                            strategies: Sequence[ISPStrategy],
                            nus: Sequence[float],
                            mechanism: Optional[RateAllocationMechanism] = None,
                            config: Optional[SolverConfig] = None,
                            ) -> tuple[SweepResult, SweepResult]:
    """ISP surplus and consumer surplus versus capacity (Figure 5).

    Returns two panels (``Psi`` and ``Phi``), each with one series per
    strategy in ``strategies``.
    """
    nu_grid = tuple(float(nu) for nu in nus)
    warm_equilibrium_cache(
        population,
        _class_capacities(nu_grid, {s.kappa for s in strategies}),
        mechanism, config=config)
    grid_parameters = {"strategies": [s.describe() for s in strategies]}
    psi_panel = SweepResult(title="Per capita ISP surplus Psi vs capacity nu",
                            parameters=dict(grid_parameters))
    phi_panel = SweepResult(title="Per capita consumer surplus Phi vs capacity nu",
                            parameters=dict(grid_parameters))
    for strategy in strategies:
        outcomes = MonopolyGame(population, nu_grid[0], mechanism,
                                config=config).capacity_sweep(strategy, nu_grid)
        label = f"kappa={strategy.kappa:g},c={strategy.price:g}"
        psi_panel.add(Series(name=label, x=nu_grid,
                             y=tuple(o.isp_surplus for o in outcomes),
                             x_label="nu", y_label="Psi"))
        phi_panel.add(Series(name=label, x=nu_grid,
                             y=tuple(o.consumer_surplus for o in outcomes),
                             x_label="nu", y_label="Phi"))
    return psi_panel, phi_panel


def duopoly_price_sweep(population: Population, nus: Iterable[float],
                        prices: Sequence[float], kappa: float = 1.0,
                        strategic_capacity_share: float = 0.5,
                        opponent_strategy: ISPStrategy = PUBLIC_OPTION_STRATEGY,
                        mechanism: Optional[RateAllocationMechanism] = None,
                        config: Optional[SolverConfig] = None,
                        ) -> tuple[SweepResult, SweepResult, SweepResult]:
    """Market share, ISP surplus and consumer surplus vs price (Figure 7).

    The duopoly's class capacities depend on the migration equilibrium's
    market shares, so they cannot be pre-batched; instead the sweep relies
    on the engine's shared memoisation, under which e.g. the Public Option
    ISP's surplus curve — identical across all price points — is solved once.
    """
    price_grid = tuple(float(p) for p in prices)
    grid_parameters = {
        "kappa": kappa,
        "strategic_capacity_share": strategic_capacity_share,
        "opponent_strategy": opponent_strategy.describe(),
    }
    share_panel = SweepResult(title=f"Market share m_I vs price (kappa={kappa})",
                              parameters=dict(grid_parameters))
    psi_panel = SweepResult(title=f"Per capita ISP surplus Psi_I vs price (kappa={kappa})",
                            parameters=dict(grid_parameters))
    phi_panel = SweepResult(title=f"Per capita consumer surplus Phi vs price (kappa={kappa})",
                            parameters=dict(grid_parameters))
    for nu in nus:
        game = DuopolyGame(population, float(nu), strategic_capacity_share,
                           mechanism, config=config)
        outcomes = game.price_sweep(price_grid, kappa=kappa,
                                    opponent_strategy=opponent_strategy)
        label = f"nu={float(nu):g}"
        share_panel.add(Series(name=label, x=price_grid,
                               y=tuple(o.market_share for o in outcomes),
                               x_label="price c_I", y_label="m_I"))
        psi_panel.add(Series(name=label, x=price_grid,
                             y=tuple(o.isp_surplus for o in outcomes),
                             x_label="price c_I", y_label="Psi_I"))
        phi_panel.add(Series(name=label, x=price_grid,
                             y=tuple(o.consumer_surplus for o in outcomes),
                             x_label="price c_I", y_label="Phi"))
    return share_panel, psi_panel, phi_panel


def duopoly_capacity_sweep(population: Population,
                           strategies: Sequence[ISPStrategy],
                           nus: Sequence[float],
                           strategic_capacity_share: float = 0.5,
                           opponent_strategy: ISPStrategy = PUBLIC_OPTION_STRATEGY,
                           mechanism: Optional[RateAllocationMechanism] = None,
                           config: Optional[SolverConfig] = None,
                           ) -> tuple[SweepResult, SweepResult, SweepResult]:
    """Market share, ISP surplus and consumer surplus vs capacity (Figure 8)."""
    nu_grid = tuple(float(nu) for nu in nus)
    grid_parameters = {
        "strategies": [s.describe() for s in strategies],
        "strategic_capacity_share": strategic_capacity_share,
        "opponent_strategy": opponent_strategy.describe(),
    }
    share_panel = SweepResult(title="Market share m_I vs capacity nu",
                              parameters=dict(grid_parameters))
    psi_panel = SweepResult(title="Per capita ISP surplus Psi_I vs capacity nu",
                            parameters=dict(grid_parameters))
    phi_panel = SweepResult(title="Per capita consumer surplus Phi vs capacity nu",
                            parameters=dict(grid_parameters))
    for strategy in strategies:
        game = DuopolyGame(population, nu_grid[0], strategic_capacity_share,
                           mechanism, config=config)
        outcomes = game.capacity_sweep(strategy, nu_grid,
                                       opponent_strategy=opponent_strategy)
        label = f"kappa={strategy.kappa:g},c={strategy.price:g}"
        share_panel.add(Series(name=label, x=nu_grid,
                               y=tuple(o.market_share for o in outcomes),
                               x_label="nu", y_label="m_I"))
        psi_panel.add(Series(name=label, x=nu_grid,
                             y=tuple(o.isp_surplus for o in outcomes),
                             x_label="nu", y_label="Psi_I"))
        phi_panel.add(Series(name=label, x=nu_grid,
                             y=tuple(o.consumer_surplus for o in outcomes),
                             x_label="nu", y_label="Phi"))
    return share_panel, psi_panel, phi_panel
