"""Parameter sweeps over the monopoly and duopoly games.

Each sweep returns a :class:`~repro.simulation.results.SweepResult` with the
per-capita ISP surplus ``Psi``, consumer surplus ``Phi`` and (for the
duopoly) the strategic ISP's market share ``m_I`` as named series — exactly
the quantities plotted in the paper's Figures 4, 5, 7 and 8.

Every per-point game reads its partition outcome through the shared
partition-outcome cache, so a grid point whose game another point already
played (the Public Option ISP's, say, across a price sweep) is a lookup.
A game solves each class cap when it first needs it and keeps it for its
own later best-response rounds; only the full population's caps are shared
across games, through
:func:`repro.network.equilibrium.cached_class_cap`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.config import SolverConfig
from repro.core.duopoly import DuopolyGame
from repro.core.monopoly import MonopolyGame
from repro.core.strategy import ISPStrategy, PUBLIC_OPTION_STRATEGY
from repro.network.allocation import CommonCapAllocation
from repro.network.provider import Population
from repro.simulation.results import Series, SweepResult

__all__ = [
    "monopoly_price_sweep",
    "monopoly_capacity_sweep",
    "duopoly_price_sweep",
    "duopoly_capacity_sweep",
]


def monopoly_price_sweep(population: Population, nus: Iterable[float],
                         prices: Sequence[float], kappa: float = 1.0,
                         mechanism: Optional[CommonCapAllocation] = None,
                         config: Optional[SolverConfig] = None,
                         ) -> tuple[SweepResult, SweepResult]:
    """ISP surplus and consumer surplus versus premium price (Figure 4).

    Returns two panels (``Psi`` and ``Phi``), each with one series per
    per-capita capacity value in ``nus``.
    """
    price_grid = tuple(float(p) for p in prices)
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
                            mechanism: Optional[CommonCapAllocation] = None,
                            config: Optional[SolverConfig] = None,
                            ) -> tuple[SweepResult, SweepResult]:
    """ISP surplus and consumer surplus versus capacity (Figure 5).

    Returns two panels (``Psi`` and ``Phi``), each with one series per
    strategy in ``strategies``.
    """
    nu_grid = tuple(float(nu) for nu in nus)
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
                        mechanism: Optional[CommonCapAllocation] = None,
                        config: Optional[SolverConfig] = None,
                        ) -> tuple[SweepResult, SweepResult, SweepResult]:
    """Market share, ISP surplus and consumer surplus vs price (Figure 7).

    The sweep relies on the game layer's shared memoisation, under which
    e.g. the Public Option ISP's surplus curve — identical across all price
    points — is solved once.
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
                           mechanism: Optional[CommonCapAllocation] = None,
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
