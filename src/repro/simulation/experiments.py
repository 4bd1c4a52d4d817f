"""Reproductions of every figure and analytic claim in the paper.

Each ``figure*`` function regenerates the data behind one figure of the
paper (the paper's evaluation has no numbered tables); the ``theorem*`` /
``lemma*`` functions check the analytic claims numerically.  All functions
return an :class:`~repro.simulation.results.ExperimentResult` whose panels
hold the plotted series and whose ``findings`` record the qualitative
"shape" checks that the experiment registry
(:mod:`repro.runner.registry`) declares and the golden-artifact
regression tests pin (see ``ARTIFACTS.md``).

The default parameters use the paper's workload (1000 random CPs, seeded)
but moderately sized grids so the full benchmark suite completes in
minutes; every grid can be widened through the function arguments, and the
random workload's size and seed are tunable via ``count`` / ``seed`` on
every experiment that draws one (``FIG2`` and ``FIG3`` are analytic and
take neither).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.alignment import (
    capacity_surplus_profile,
    market_share_discontinuity,
    surplus_discontinuity,
)
from repro.core.duopoly import DuopolyGame
from repro.core.monopoly import MonopolyGame
from repro.core.oligopoly import OligopolyGame
from repro.core.regulation import compare_regimes
from repro.core.strategy import ISPStrategy, strategy_grid
from repro.network.allocation import MaxMinFairAllocation
from repro.network.demand import ExponentialSensitivityDemand, sample_demand_curve
from repro.network.provider import Population
from repro.simulation.batch import solve_rate_equilibria
from repro.simulation.results import ExperimentResult, Series, SweepResult
from repro.simulation.sweep import (
    duopoly_capacity_sweep,
    duopoly_price_sweep,
    monopoly_capacity_sweep,
    monopoly_price_sweep,
)
from repro.workloads.archetypes import archetype_population
from repro.workloads.populations import DEFAULT_SEED, paper_population

__all__ = [
    "figure2_demand_curves",
    "figure3_maxmin_throughput",
    "figure4_monopoly_price",
    "figure5_monopoly_capacity",
    "figure7_duopoly_price",
    "figure8_duopoly_capacity",
    "figure9_appendix_monopoly_price",
    "figure10_appendix_monopoly_capacity",
    "figure11_appendix_duopoly_price",
    "figure12_appendix_duopoly_capacity",
    "theorem4_kappa_dominance",
    "theorem5_public_option_alignment",
    "lemma4_proportional_shares",
    "theorem6_alignment",
    "regulation_regimes",
]

_DEFAULT_PRICES = tuple(np.round(np.linspace(0.0, 1.0, 21), 6))
_DEFAULT_NUS_PRICE_SWEEP = (20.0, 50.0, 100.0, 150.0, 200.0)
_DEFAULT_CAPACITY_GRID = tuple(np.round(np.linspace(20.0, 500.0, 13), 6))
_DEFAULT_STRATEGY_KAPPAS = (0.3, 0.6, 0.9)
_DEFAULT_STRATEGY_PRICES = (0.2, 0.5, 0.8)


def _population(population: Optional[Population], utility_model: str,
                count: int, seed: int) -> Population:
    if population is not None:
        return population
    return paper_population(count=count, utility_model=utility_model,
                            seed=seed)


# --------------------------------------------------------------------------- #
# Figure 2 — demand as a function of throughput sensitivity
# --------------------------------------------------------------------------- #
def figure2_demand_curves(betas: Sequence[float] = (0.1, 0.5, 1.0, 3.0, 5.0, 10.0),
                          points: int = 101) -> ExperimentResult:
    """Figure 2: demand ``d_i(omega_i)`` for a range of sensitivities ``beta``."""
    panel = SweepResult(title="Demand d(omega) for throughput sensitivities beta")
    omegas = tuple(k / (points - 1) for k in range(points))
    for beta in betas:
        demand = ExponentialSensitivityDemand(theta_hat=1.0, beta=float(beta))
        samples = sample_demand_curve(demand, points=points)
        panel.add(Series(name=f"beta={float(beta):g}", x=omegas,
                         y=tuple(s.demand for s in samples),
                         x_label="omega", y_label="demand"))
    result = ExperimentResult(
        experiment_id="FIG2",
        description="Demand function d_i(omega_i) of Equation (3)",
        parameters={"betas": tuple(float(b) for b in betas), "points": points},
    )
    result.add_panel(panel)
    # Paper shape check: with beta = 5, a 10% throughput drop roughly halves
    # the demand; with beta = 0.1 demand stays close to 1.
    sharp = panel.get("beta=5").value_at(0.9)
    flat = panel.get("beta=0.1").value_at(0.9)
    result.findings["beta5_demand_at_90pct_throughput"] = sharp
    result.findings["beta5_halved_by_10pct_drop"] = bool(0.4 <= sharp <= 0.7)
    result.findings["beta0.1_demand_at_90pct_throughput"] = flat
    result.findings["low_beta_insensitive"] = bool(flat > 0.95)
    return result


# --------------------------------------------------------------------------- #
# Figure 3 — throughput under the max-min fair mechanism
# --------------------------------------------------------------------------- #
def figure3_maxmin_throughput(capacities: Optional[Sequence[float]] = None,
                              consumers: float = 1000.0) -> ExperimentResult:
    """Figure 3: rates and demands of the three archetype CPs vs capacity.

    The paper sweeps the capacity from 0 to 6000 for a region whose consumer
    size makes the saturation point (every CP unconstrained) land at
    ``mu = 5500``; we use ``M = 1000`` consumers so the per-capita capacity
    spans 0 to 6.
    """
    population = archetype_population()
    if capacities is None:
        capacities = tuple(np.linspace(0.0, 6000.0, 61))
    nu_grid = tuple(float(c) / consumers for c in capacities)
    mechanism = MaxMinFairAllocation()
    throughput_panel = SweepResult(title="Per-user throughput theta_i vs capacity")
    demand_panel = SweepResult(title="Demand d_i vs capacity")
    rate_panel = SweepResult(title="Per capita rate alpha_i d_i theta_i vs capacity")
    # The whole capacity grid is one batched solve (one cap per point).
    batch = solve_rate_equilibria(population, nu_grid, mechanism)
    per_capita_rates = batch.per_capita_rates
    capacity_axis = tuple(float(c) for c in capacities)
    for index, name in enumerate(population.names):
        throughput_panel.add(Series(name=name, x=capacity_axis,
                                    y=tuple(batch.thetas[:, index]),
                                    x_label="capacity mu", y_label="theta"))
        demand_panel.add(Series(name=name, x=capacity_axis,
                                y=tuple(batch.demands[:, index]),
                                x_label="capacity mu", y_label="demand"))
        rate_panel.add(Series(name=name, x=capacity_axis,
                              y=tuple(per_capita_rates[:, index]),
                              x_label="capacity mu", y_label="rate"))
    result = ExperimentResult(
        experiment_id="FIG3",
        description="Throughput and demand of Google/Netflix/Skype-type CPs "
                    "under max-min fairness",
        parameters={"consumers": consumers,
                    "max_capacity": capacity_axis[-1] if capacity_axis else 0.0},
    )
    for panel in (throughput_panel, demand_panel, rate_panel):
        result.add_panel(panel)

    def capacity_where_demand_reaches(name: str, level: float) -> float:
        series = demand_panel.get(name)
        for x, y in zip(series.x, series.y):
            if y >= level:
                return x
        return float("inf")

    google_at = capacity_where_demand_reaches("google", 0.9)
    skype_at = capacity_where_demand_reaches("skype", 0.9)
    netflix_at = capacity_where_demand_reaches("netflix", 0.9)
    result.findings["capacity_for_90pct_demand"] = {
        "google": google_at, "skype": skype_at, "netflix": netflix_at,
    }
    result.findings["google_saturates_before_skype_before_netflix"] = bool(
        google_at <= skype_at <= netflix_at)
    return result


# --------------------------------------------------------------------------- #
# Figures 4/9 — monopoly price sweep
# --------------------------------------------------------------------------- #
def _monopoly_price_experiment(experiment_id: str, utility_model: str,
                               population: Optional[Population],
                               nus: Sequence[float], prices: Sequence[float],
                               kappa: float, count: int,
                               seed: int) -> ExperimentResult:
    population = _population(population, utility_model, count, seed)
    psi_panel, phi_panel = monopoly_price_sweep(population, nus, prices, kappa)
    result = ExperimentResult(
        experiment_id=experiment_id,
        description=f"Monopoly per-capita surplus vs premium price (kappa={kappa}, "
                    f"phi model: {utility_model})",
        parameters={"nus": tuple(float(n) for n in nus),
                    "prices": (float(prices[0]), float(prices[-1]), len(prices)),
                    "kappa": kappa, "utility_model": utility_model,
                    "providers": len(population), "seed": seed},
    )
    result.add_panel(psi_panel)
    result.add_panel(phi_panel)

    # Shape checks from the paper's three pricing regimes.
    findings = {}
    smallest_nu = f"nu={float(min(nus)):g}"
    largest_nu = f"nu={float(max(nus)):g}"
    psi_small = psi_panel.get(smallest_nu)
    low_price = [p for p in psi_small.x if p > 0.0][0]
    findings["psi_linear_small_c"] = bool(
        abs(psi_small.value_at(low_price) - low_price * float(min(nus)))
        <= 0.05 * max(1.0, low_price * float(min(nus))))
    psi_large = psi_panel.get(largest_nu)
    phi_large = phi_panel.get(largest_nu)
    optimal_price = psi_large.argmax_x()
    findings["revenue_optimal_price_largest_nu"] = optimal_price
    findings["phi_at_optimal_price"] = phi_large.value_at(optimal_price)
    findings["phi_maximum"] = phi_large.y_max
    findings["monopoly_misaligned_when_capacity_abundant"] = bool(
        phi_large.value_at(optimal_price) < phi_large.y_max * (1.0 - 1e-6))
    findings["psi_collapses_at_high_c"] = bool(
        psi_large.y[-1] <= 0.25 * psi_large.y_max + 1e-12)
    result.findings.update(findings)
    return result


def figure4_monopoly_price(population: Optional[Population] = None,
                           nus: Sequence[float] = _DEFAULT_NUS_PRICE_SWEEP,
                           prices: Sequence[float] = _DEFAULT_PRICES,
                           kappa: float = 1.0, count: int = 1000,
                           seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Figure 4: ``Psi`` and ``Phi`` vs price under ``kappa = 1``."""
    return _monopoly_price_experiment("FIG4", "beta_correlated", population,
                                      nus, prices, kappa, count, seed)


def figure9_appendix_monopoly_price(population: Optional[Population] = None,
                                    nus: Sequence[float] = _DEFAULT_NUS_PRICE_SWEEP,
                                    prices: Sequence[float] = _DEFAULT_PRICES,
                                    kappa: float = 1.0, count: int = 1000,
                                    seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Figure 9 (appendix): Figure 4 with ``phi`` independent of ``beta``."""
    return _monopoly_price_experiment("FIG9", "independent", population,
                                      nus, prices, kappa, count, seed)


# --------------------------------------------------------------------------- #
# Figures 5/10 — monopoly capacity sweep over a strategy grid
# --------------------------------------------------------------------------- #
def _monopoly_capacity_experiment(experiment_id: str, utility_model: str,
                                  population: Optional[Population],
                                  kappas: Sequence[float],
                                  prices: Sequence[float],
                                  nus: Sequence[float],
                                  count: int, seed: int) -> ExperimentResult:
    population = _population(population, utility_model, count, seed)
    strategies = strategy_grid(kappas, prices)
    psi_panel, phi_panel = monopoly_capacity_sweep(population, strategies, nus)
    result = ExperimentResult(
        experiment_id=experiment_id,
        description="Monopoly per-capita surplus vs capacity for a strategy grid "
                    f"(phi model: {utility_model})",
        parameters={"kappas": tuple(float(k) for k in kappas),
                    "prices": tuple(float(c) for c in prices),
                    "nus": (float(nus[0]), float(nus[-1]), len(nus)),
                    "utility_model": utility_model,
                    "providers": len(population), "seed": seed},
    )
    result.add_panel(psi_panel)
    result.add_panel(phi_panel)

    # Shape checks: at the largest capacity, higher kappa yields (weakly)
    # higher ISP revenue but (weakly) lower consumer surplus; small-kappa
    # strategies see Psi fall to ~0 when capacity is abundant.
    largest_nu = float(nus[-1])
    price_ref = float(prices[len(prices) // 2])
    low_kappa = f"kappa={float(min(kappas)):g},c={price_ref:g}"
    high_kappa = f"kappa={float(max(kappas)):g},c={price_ref:g}"
    psi_low = psi_panel.get(low_kappa).value_at(largest_nu)
    psi_high = psi_panel.get(high_kappa).value_at(largest_nu)
    phi_low = phi_panel.get(low_kappa).value_at(largest_nu)
    phi_high = phi_panel.get(high_kappa).value_at(largest_nu)
    result.findings["psi_high_kappa_geq_low_kappa_at_large_nu"] = bool(
        psi_high >= psi_low - 1e-9)
    result.findings["phi_low_kappa_geq_high_kappa_at_large_nu"] = bool(
        phi_low >= phi_high - 1e-9)
    result.findings["psi_low_kappa_vanishes_at_large_nu"] = bool(
        psi_low <= 0.05 * max(psi_panel.get(low_kappa).y_max, 1e-12))
    epsilon = {name: surplus_discontinuity(phi_panel.get(name).y)
               for name in phi_panel.names}
    result.findings["epsilon_discontinuity_by_strategy"] = epsilon
    result.findings["max_epsilon"] = max(epsilon.values())
    return result


def figure5_monopoly_capacity(population: Optional[Population] = None,
                              kappas: Sequence[float] = _DEFAULT_STRATEGY_KAPPAS,
                              prices: Sequence[float] = _DEFAULT_STRATEGY_PRICES,
                              nus: Sequence[float] = _DEFAULT_CAPACITY_GRID,
                              count: int = 1000,
                              seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Figure 5: ``Psi`` and ``Phi`` vs capacity under a ``(kappa, c)`` grid."""
    return _monopoly_capacity_experiment("FIG5", "beta_correlated", population,
                                         kappas, prices, nus, count, seed)


def figure10_appendix_monopoly_capacity(population: Optional[Population] = None,
                                        kappas: Sequence[float] = _DEFAULT_STRATEGY_KAPPAS,
                                        prices: Sequence[float] = _DEFAULT_STRATEGY_PRICES,
                                        nus: Sequence[float] = _DEFAULT_CAPACITY_GRID,
                                        count: int = 1000,
                                        seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Figure 10 (appendix): Figure 5 with ``phi`` independent of ``beta``."""
    return _monopoly_capacity_experiment("FIG10", "independent", population,
                                         kappas, prices, nus, count, seed)


# --------------------------------------------------------------------------- #
# Figures 7/11 — duopoly (vs Public Option) price sweep
# --------------------------------------------------------------------------- #
def _duopoly_price_experiment(experiment_id: str, utility_model: str,
                              population: Optional[Population],
                              nus: Sequence[float], prices: Sequence[float],
                              kappa: float, count: int,
                              seed: int) -> ExperimentResult:
    population = _population(population, utility_model, count, seed)
    share_panel, psi_panel, phi_panel = duopoly_price_sweep(
        population, nus, prices, kappa=kappa)
    result = ExperimentResult(
        experiment_id=experiment_id,
        description="Duopoly against a Public Option: market share and surplus "
                    f"vs price (kappa={kappa}, phi model: {utility_model})",
        parameters={"nus": tuple(float(n) for n in nus),
                    "prices": (float(prices[0]), float(prices[-1]), len(prices)),
                    "kappa": kappa, "utility_model": utility_model,
                    "providers": len(population), "seed": seed},
    )
    for panel in (share_panel, psi_panel, phi_panel):
        result.add_panel(panel)

    largest_nu = f"nu={float(max(nus)):g}"
    share = share_panel.get(largest_nu)
    phi = phi_panel.get(largest_nu)
    psi = psi_panel.get(largest_nu)
    peak_share_price = share.argmax_x()
    result.findings["market_share_peak_price_largest_nu"] = peak_share_price
    result.findings["market_share_peak_value"] = share.y_max
    result.findings["share_collapses_after_peak"] = bool(
        share.y[-1] <= 0.5 * share.y_max + 1e-9)
    result.findings["phi_stays_positive_at_c1"] = bool(phi.y[-1] > 0.0)
    result.findings["psi_drops_to_zero_at_c1"] = bool(
        psi.y[-1] <= 0.05 * max(psi.y_max, 1e-12))
    # The paper observes the maximum Psi_I can be lower at nu=200 than nu=150
    # (capacity expansion reduces CP-side revenue under kappa=1).
    if len(nus) >= 2:
        second_largest = f"nu={float(sorted(nus)[-2]):g}"
        result.findings["max_psi_largest_nu"] = psi.y_max
        result.findings["max_psi_second_largest_nu"] = psi_panel.get(second_largest).y_max
    return result


def figure7_duopoly_price(population: Optional[Population] = None,
                          nus: Sequence[float] = _DEFAULT_NUS_PRICE_SWEEP,
                          prices: Sequence[float] = _DEFAULT_PRICES,
                          kappa: float = 1.0, count: int = 1000,
                          seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Figure 7: duopoly market share / surplus vs the strategic ISP's price."""
    return _duopoly_price_experiment("FIG7", "beta_correlated", population,
                                     nus, prices, kappa, count, seed)


def figure11_appendix_duopoly_price(population: Optional[Population] = None,
                                    nus: Sequence[float] = _DEFAULT_NUS_PRICE_SWEEP,
                                    prices: Sequence[float] = _DEFAULT_PRICES,
                                    kappa: float = 1.0, count: int = 1000,
                                    seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Figure 11 (appendix): Figure 7 with ``phi`` independent of ``beta``."""
    return _duopoly_price_experiment("FIG11", "independent", population,
                                     nus, prices, kappa, count, seed)


# --------------------------------------------------------------------------- #
# Figures 8/12 — duopoly capacity sweep over a strategy grid
# --------------------------------------------------------------------------- #
def _duopoly_capacity_experiment(experiment_id: str, utility_model: str,
                                 population: Optional[Population],
                                 kappas: Sequence[float],
                                 prices: Sequence[float],
                                 nus: Sequence[float],
                                 count: int, seed: int) -> ExperimentResult:
    population = _population(population, utility_model, count, seed)
    strategies = strategy_grid(kappas, prices)
    share_panel, psi_panel, phi_panel = duopoly_capacity_sweep(
        population, strategies, nus)
    result = ExperimentResult(
        experiment_id=experiment_id,
        description="Duopoly against a Public Option: market share and surplus "
                    f"vs capacity (phi model: {utility_model})",
        parameters={"kappas": tuple(float(k) for k in kappas),
                    "prices": tuple(float(c) for c in prices),
                    "nus": (float(nus[0]), float(nus[-1]), len(nus)),
                    "utility_model": utility_model,
                    "providers": len(population), "seed": seed},
    )
    for panel in (share_panel, psi_panel, phi_panel):
        result.add_panel(panel)

    largest_nu = float(nus[-1])
    shares_at_large_nu = {name: share_panel.get(name).value_at(largest_nu)
                          for name in share_panel.names}
    result.findings["market_share_at_largest_nu"] = shares_at_large_nu
    result.findings["strategic_isp_capped_near_half_at_large_nu"] = bool(
        all(value <= 0.60 for value in shares_at_large_nu.values()))
    # Consumer surplus should be insensitive to the strategic ISP's strategy.
    phi_at_large_nu = [phi_panel.get(name).value_at(largest_nu)
                       for name in phi_panel.names]
    spread = (max(phi_at_large_nu) - min(phi_at_large_nu)) / max(max(phi_at_large_nu), 1e-12)
    result.findings["phi_relative_spread_across_strategies_at_large_nu"] = spread
    result.findings["phi_insensitive_to_strategy"] = bool(spread <= 0.15)
    delta = {name: market_share_discontinuity(share_panel.get(name).y,
                                              phi_panel.get(name).y)
             for name in share_panel.names}
    result.findings["delta_discontinuity_by_strategy"] = delta
    return result


def figure8_duopoly_capacity(population: Optional[Population] = None,
                             kappas: Sequence[float] = _DEFAULT_STRATEGY_KAPPAS,
                             prices: Sequence[float] = _DEFAULT_STRATEGY_PRICES,
                             nus: Sequence[float] = _DEFAULT_CAPACITY_GRID,
                             count: int = 1000,
                             seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Figure 8: duopoly market share / surplus vs capacity for a strategy grid."""
    return _duopoly_capacity_experiment("FIG8", "beta_correlated", population,
                                        kappas, prices, nus, count, seed)


def figure12_appendix_duopoly_capacity(population: Optional[Population] = None,
                                       kappas: Sequence[float] = _DEFAULT_STRATEGY_KAPPAS,
                                       prices: Sequence[float] = _DEFAULT_STRATEGY_PRICES,
                                       nus: Sequence[float] = _DEFAULT_CAPACITY_GRID,
                                       count: int = 1000,
                                       seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Figure 12 (appendix): Figure 8 with ``phi`` independent of ``beta``."""
    return _duopoly_capacity_experiment("FIG12", "independent", population,
                                        kappas, prices, nus, count, seed)


# --------------------------------------------------------------------------- #
# Theorem 4 — kappa dominance for the monopolist
# --------------------------------------------------------------------------- #
def theorem4_kappa_dominance(population: Optional[Population] = None,
                             nus: Sequence[float] = (50.0, 150.0, 300.0),
                             prices: Sequence[float] = (0.2, 0.5, 0.8),
                             kappas: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
                             count: int = 1000,
                             seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Theorem 4: at any price, ``kappa = 1`` maximises the monopolist's revenue."""
    population = _population(population, "beta_correlated", count, seed)
    result = ExperimentResult(
        experiment_id="THM4",
        description="kappa = 1 (weakly) dominates smaller premium capacity shares",
        parameters={"nus": tuple(float(n) for n in nus),
                    "prices": tuple(float(c) for c in prices),
                    "kappas": tuple(float(k) for k in kappas),
                    "providers": len(population), "seed": seed},
    )
    all_hold = True
    for nu in nus:
        game = MonopolyGame(population, float(nu))
        panel = SweepResult(title=f"Psi vs kappa at nu={float(nu):g}")
        for price in prices:
            report = game.verify_kappa_dominance(float(price), kappas)
            all_hold = all_hold and report["holds"]
            kappa_axis = tuple(sorted(report["revenues"]))
            panel.add(Series(name=f"c={float(price):g}", x=kappa_axis,
                             y=tuple(report["revenues"][k] for k in kappa_axis),
                             x_label="kappa", y_label="Psi"))
        result.add_panel(panel)
    result.findings["kappa_one_dominates_everywhere"] = bool(all_hold)
    return result


# --------------------------------------------------------------------------- #
# Theorem 5 — Public Option aligns market share with consumer surplus
# --------------------------------------------------------------------------- #
def theorem5_public_option_alignment(population: Optional[Population] = None,
                                     nu: float = 150.0,
                                     kappas: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
                                     prices: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
                                     strategic_capacity_share: float = 0.5,
                                     count: int = 1000,
                                     seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Theorem 5: against a Public Option, maximising market share maximises Phi."""
    population = _population(population, "beta_correlated", count, seed)
    duopoly = DuopolyGame(population, nu, strategic_capacity_share)
    strategies = strategy_grid(kappas, prices, include_public_option=True)
    report = duopoly.alignment_report(strategies)
    panel = SweepResult(title=f"Duopoly outcomes over the strategy grid (nu={nu:g})")
    index_axis = tuple(range(len(report["outcomes"])))
    panel.add(Series(name="market_share", x=index_axis,
                     y=tuple(o.market_share for o in report["outcomes"]),
                     x_label="strategy index", y_label="m_I"))
    panel.add(Series(name="consumer_surplus", x=index_axis,
                     y=tuple(o.consumer_surplus for o in report["outcomes"]),
                     x_label="strategy index", y_label="Phi"))
    result = ExperimentResult(
        experiment_id="THM5",
        description="Market-share-optimal strategy against a Public Option also "
                    "maximises consumer surplus",
        parameters={"nu": nu, "strategies": len(strategies),
                    "strategic_capacity_share": strategic_capacity_share,
                    "providers": len(population), "seed": seed},
    )
    result.add_panel(panel)
    by_share = report["market_share_optimum"]
    by_surplus = report["surplus_optimum"]
    scale = max(abs(by_surplus.consumer_surplus), 1e-12)
    result.findings["market_share_optimal_strategy"] = by_share.strategy_strategic.describe()
    result.findings["surplus_optimal_strategy"] = by_surplus.strategy_strategic.describe()
    result.findings["surplus_shortfall"] = report["surplus_shortfall"]
    result.findings["relative_shortfall"] = report["surplus_shortfall"] / scale
    result.findings["theorem5_holds_within_tolerance"] = bool(
        report["surplus_shortfall"] <= 0.02 * scale)
    return result


# --------------------------------------------------------------------------- #
# Lemma 4 — proportional market shares under homogeneous strategies
# --------------------------------------------------------------------------- #
def lemma4_proportional_shares(population: Optional[Population] = None,
                               nu: float = 150.0,
                               capacity_shares: Optional[Dict[str, float]] = None,
                               strategy: ISPStrategy = ISPStrategy(0.6, 0.4),
                               count: int = 300,
                               seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Lemma 4: homogeneous strategies give market shares equal to capacity shares."""
    population = _population(population, "beta_correlated", count, seed)
    if capacity_shares is None:
        capacity_shares = {"ISP-A": 0.5, "ISP-B": 0.3, "ISP-C": 0.2}
    game = OligopolyGame(population, nu, capacity_shares)
    # The tolerance absorbs the migration solver's equalisation resolution.
    report = game.verify_proportional_shares(strategy, tolerance=0.02)
    panel = SweepResult(title=f"Market share vs capacity share (nu={nu:g})")
    names = sorted(capacity_shares)
    panel.add(Series(name="capacity_share", x=tuple(range(len(names))),
                     y=tuple(capacity_shares[name] for name in names),
                     x_label="ISP index", y_label="gamma_I"))
    panel.add(Series(name="market_share", x=tuple(range(len(names))),
                     y=tuple(report["market_shares"][name] for name in names),
                     x_label="ISP index", y_label="m_I"))
    result = ExperimentResult(
        experiment_id="LEM4",
        description="Homogeneous-strategy oligopoly equilibrium has m_I = gamma_I",
        parameters={"nu": nu, "strategy": strategy.describe(),
                    "capacity_shares": dict(capacity_shares),
                    "providers": len(population), "seed": seed},
    )
    result.add_panel(panel)
    result.findings["max_share_gap"] = report["max_gap"]
    result.findings["lemma4_holds"] = bool(report["holds"])
    return result


# --------------------------------------------------------------------------- #
# Theorem 6 / Corollary 1 — alignment under oligopolistic competition
# --------------------------------------------------------------------------- #
def theorem6_alignment(population: Optional[Population] = None,
                       nu: float = 150.0,
                       capacity_shares: Optional[Dict[str, float]] = None,
                       kappas: Sequence[float] = (0.5, 1.0),
                       prices: Sequence[float] = (0.2, 0.5, 0.8),
                       count: int = 300,
                       seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Theorem 6: market-share best responses are epsilon-best for consumer surplus."""
    population = _population(population, "beta_correlated", count, seed)
    if capacity_shares is None:
        capacity_shares = {"ISP-A": 0.5, "ISP-B": 0.5}
    game = OligopolyGame(population, nu, capacity_shares)
    candidates = strategy_grid(kappas, prices, include_public_option=True)
    baseline = {name: candidates[len(candidates) // 2] for name in capacity_shares}
    target = sorted(capacity_shares)[0]
    best_share, share_outcome, share_outcomes = game.best_response(
        target, baseline, candidates, objective="market_share")
    best_phi, phi_outcome, _ = game.best_response(
        target, baseline, candidates, objective="consumer_surplus")

    # epsilon_{s_-I}: the surplus discontinuity of the *other* ISPs' strategies.
    other = [name for name in capacity_shares if name != target]
    nu_grid = tuple(np.linspace(max(nu * 0.2, 1.0), nu * 2.0, 9))
    epsilon_values = []
    for name in other:
        _, profile = capacity_surplus_profile(population, baseline[name], nu_grid)
        epsilon_values.append(surplus_discontinuity(profile))
    epsilon = max(epsilon_values) if epsilon_values else 0.0

    panel = SweepResult(title=f"Best-response candidates for {target} (nu={nu:g})")
    index_axis = tuple(range(len(share_outcomes)))
    panel.add(Series(name="market_share", x=index_axis,
                     y=tuple(o.market_share(target) for o in share_outcomes),
                     x_label="candidate index", y_label="m_I"))
    panel.add(Series(name="consumer_surplus", x=index_axis,
                     y=tuple(o.consumer_surplus for o in share_outcomes),
                     x_label="candidate index", y_label="Phi"))
    result = ExperimentResult(
        experiment_id="THM6",
        description="Market-share and consumer-surplus best responses are aligned "
                    "under oligopolistic competition",
        parameters={"nu": nu, "capacity_shares": dict(capacity_shares),
                    "candidates": len(candidates), "providers": len(population),
                    "seed": seed},
    )
    result.add_panel(panel)
    shortfall = phi_outcome.consumer_surplus - share_outcome.consumer_surplus
    result.findings["market_share_best_response"] = best_share.describe()
    result.findings["surplus_best_response"] = best_phi.describe()
    result.findings["surplus_shortfall"] = shortfall
    result.findings["epsilon_bound"] = epsilon
    result.findings["theorem6_bound_holds"] = bool(
        shortfall <= epsilon + 0.02 * max(abs(phi_outcome.consumer_surplus), 1e-12))
    return result


# --------------------------------------------------------------------------- #
# Regulatory-regime comparison (the paper's headline ordering)
# --------------------------------------------------------------------------- #
def regulation_regimes(population: Optional[Population] = None,
                       nu: float = 200.0,
                       kappas: Sequence[float] = (0.5, 1.0),
                       prices: Sequence[float] = (0.2, 0.45, 0.7),
                       count: int = 1000,
                       seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Consumer surplus under the four regimes discussed by the paper."""
    population = _population(population, "beta_correlated", count, seed)
    strategies = strategy_grid(kappas, prices)
    comparison = compare_regimes(population, nu, strategies)
    panel = SweepResult(title=f"Consumer and ISP surplus by regime (nu={nu:g})")
    ranked = comparison.ranking()
    panel.add(Series(name="consumer_surplus", x=tuple(range(len(ranked))),
                     y=tuple(r.consumer_surplus for r in ranked),
                     x_label="regime rank", y_label="Phi"))
    panel.add(Series(name="isp_surplus", x=tuple(range(len(ranked))),
                     y=tuple(r.isp_surplus for r in ranked),
                     x_label="regime rank", y_label="Psi"))
    result = ExperimentResult(
        experiment_id="REG",
        description="Regulatory-regime comparison: unregulated monopoly vs "
                    "neutral regulation vs Public Option vs competition",
        parameters={"nu": nu, "strategies": len(strategies),
                    "providers": len(population), "seed": seed},
    )
    result.add_panel(panel)
    result.findings["ranking"] = [r.regime for r in ranked]
    result.findings["surplus_by_regime"] = {
        r.regime: r.consumer_surplus for r in ranked}
    result.findings["paper_ordering_holds"] = bool(comparison.paper_ordering_holds())
    result.findings["summary"] = comparison.summary_table()
    return result
