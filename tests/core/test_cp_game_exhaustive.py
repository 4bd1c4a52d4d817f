"""Exhaustive small-n audit of the CP partition game (Definitions 2-3).

For a population of at most six Equation-(3) providers every one of the
``2^n`` partitions is enumerated and judged against the paper's two
equilibrium conditions by an oracle that shares no code path with the
game: each class cap comes from :func:`solve_rate_equilibrium` on the
class's own sub-population (caches bypassed, never the ``class_caps`` cache
or a restricted profile), and every utility is evaluated from Equation (3)
directly, ``rho_i(theta) = theta exp(-beta_i (theta_hat_i / theta - 1))``
with ``theta = min(theta_hat_i, cap)``.

Condition (8), the throughput-taking equilibrium, is judged under the band
the game documents: a CP moves only when its gain exceeds
``max(switching_tolerance, impact_i)`` of the larger utility, where
``impact_i`` is its unconstrained load over the destination class capacity,
and an exact tie (within ``surplus_tolerance``) sends it to the ordinary
class.  Condition (7), the Nash equilibrium, recomputes each class with the
CP included and breaks ties (within ``surplus_tolerance``) towards the
ordinary class.  A CP whose utility gap lies within a 1e-9 relative band of
a decision threshold is left undecided, since the oracle's caps and the
game's may differ in their last bits.

The competitive solver is held to condition (8) only when some partition
satisfies it: for example at ``count=2, seed=0, kappa=0.875, price=0,
load_fraction=0.5`` one CP violates (8) in all four partitions, and the
solver's repair phase still reports convergence after that CP has used its
two moves.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.config import SolverConfig
from repro.core.cp_game import CPPartitionGame, PartitionOutcome
from repro.core.strategy import ISPStrategy
from repro.network.equilibrium import solve_rate_equilibrium
from repro.workloads.populations import PopulationSpec, random_population

#: Relative width of the undecided band around every decision threshold.
BAND = 1e-9

#: Oracle solves never read or write a shared cache.
_BYPASS = SolverConfig(cache_policy="bypass")


class Oracle:
    """Conditions (7) and (8) from first principles for one game."""

    def __init__(self, population, nu, strategy, config=SolverConfig()):
        self.population = population
        self.strategy = strategy
        self.ordinary_nu = (1.0 - strategy.kappa) * nu
        self.premium_nu = strategy.kappa * nu
        self.switching = config.switching_tolerance
        self.tie = config.surplus_tolerance
        self._caps = {}

    def cap(self, members, class_nu):
        """Theorem-1 cap of the class ``members`` at ``class_nu``."""
        if class_nu <= 0.0:
            return 0.0
        if not members:
            return math.inf
        key = (members, class_nu)
        if key not in self._caps:
            subset = self.population.subset(members)
            self._caps[key] = solve_rate_equilibrium(
                subset, class_nu, config=_BYPASS).common_cap
        return self._caps[key]

    def utility(self, i, cap, price):
        """``(v_i - price) rho_i`` at throughput ``min(theta_hat_i, cap)``."""
        theta_hat = float(self.population.theta_hats[i])
        theta = min(theta_hat, cap)
        rho = 0.0
        if theta > 0.0:
            beta = float(self.population.betas[i])
            rho = theta * math.exp(-beta * (theta_hat / theta - 1.0))
        return (float(self.population.revenue_rates[i]) - price) * rho

    def _impact(self, i, destination_nu):
        if destination_nu <= 0.0:
            return 1.0
        own_load = float(self.population.alphas[i] * self.population.theta_hats[i])
        return min(own_load, destination_nu) / destination_nu

    def competitive_violators(self, mask):
        """``(violators, undecided)`` index sets under condition (8)."""
        size = len(mask)
        cap_ordinary = self.cap(
            tuple(j for j in range(size) if not mask[j]), self.ordinary_nu)
        cap_premium = self.cap(
            tuple(j for j in range(size) if mask[j]), self.premium_nu)
        violators, undecided = set(), set()
        for i in range(size):
            u_ordinary = self.utility(i, cap_ordinary, 0.0)
            u_premium = self.utility(i, cap_premium, self.strategy.price)
            gap = u_premium - u_ordinary
            scale = max(1e-12, abs(u_ordinary), abs(u_premium))
            tie = self.tie * max(1.0, scale)
            if mask[i]:
                margin = -max(self.switching, self._impact(i, self.ordinary_nu)) * scale
                violates = gap <= margin or abs(gap) <= tie
            else:
                margin = max(self.switching, self._impact(i, self.premium_nu)) * scale
                violates = gap > margin and abs(gap) > tie
            if any(abs(gap - threshold) <= BAND * scale
                   for threshold in (margin, tie, -tie)):
                undecided.add(i)
            elif violates:
                violators.add(i)
        return violators, undecided

    def nash_violators(self, mask):
        """``(violators, undecided)`` index sets under condition (7)."""
        size = len(mask)
        violators, undecided = set(), set()
        for i in range(size):
            ordinary = tuple(j for j in range(size) if j == i or not mask[j])
            premium = tuple(j for j in range(size) if j == i or mask[j])
            u_ordinary = self.utility(i, self.cap(ordinary, self.ordinary_nu), 0.0)
            u_premium = self.utility(i, self.cap(premium, self.premium_nu),
                                     self.strategy.price)
            gap = u_premium - u_ordinary
            scale = max(1e-12, abs(u_ordinary), abs(u_premium))
            margin = self.tie * max(1.0, scale)
            if abs(gap - margin) <= BAND * scale:
                undecided.add(i)
            elif (gap > margin) != bool(mask[i]):
                violators.add(i)
        return violators, undecided


def _outcome(game, mask):
    """A partition to hand to ``verify_*`` (which read only the mask)."""
    return PartitionOutcome(population=game.population, nu=game.nu,
                            strategy=game.strategy, premium_mask=mask,
                            rates=np.zeros(len(mask)))


def _assert_agrees(reported_names, population, violators, undecided):
    reported = {population.index_of(name) for name in reported_names}
    assert reported - undecided == violators - undecided


@given(count=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=10_000),
       kappa=st.floats(min_value=0.05, max_value=1.0) | st.just(1.0),
       price=st.floats(min_value=0.0, max_value=1.0),
       load_fraction=st.sampled_from([0.02, 0.2, 0.5, 0.9, 1.5]))
@example(count=2, seed=0, kappa=0.875, price=0.0, load_fraction=0.5)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_exhaustive_partition_audit(count, seed, kappa, price, load_fraction):
    population = random_population(PopulationSpec(count=count), seed=seed)
    nu = load_fraction * population.unconstrained_per_capita_load
    strategy = ISPStrategy(kappa, price)
    game = CPPartitionGame(population, nu, strategy)
    oracle = Oracle(population, nu, strategy)

    competitive_partition_exists = nash_partition_may_exist = False
    for bits in itertools.product((False, True), repeat=count):
        mask = np.array(bits, dtype=bool)
        outcome = _outcome(game, mask)
        violators, undecided = oracle.competitive_violators(mask)
        _assert_agrees(game.verify_competitive(outcome), population,
                       violators, undecided)
        if not violators | undecided:
            competitive_partition_exists = True
        violators, undecided = oracle.nash_violators(mask)
        _assert_agrees(game.verify_nash(outcome), population,
                       violators, undecided)
        if not violators:
            nash_partition_may_exist = True

    competitive = game.competitive_equilibrium()
    violators, _ = oracle.competitive_violators(competitive.premium_mask)
    if competitive_partition_exists:
        assert not violators

    nash = game.nash_equilibrium()
    if nash.converged:
        violators, _ = oracle.nash_violators(nash.premium_mask)
        assert not violators
    if not nash_partition_may_exist:
        assert not nash.converged
