"""Tests for the oligopoly competition game (Lemma 4, Theorem 6)."""

from __future__ import annotations

import pytest

from repro.config import SolverConfig
from repro.errors import ModelValidationError
from repro.core.duopoly import DuopolyGame
from repro.core.oligopoly import OligopolyGame
from repro.core.strategy import ISPStrategy, PUBLIC_OPTION_STRATEGY, strategy_grid


@pytest.fixture
def duopoly_shares():
    return {"ISP-A": 0.5, "ISP-B": 0.5}


@pytest.fixture
def game(small_random_population, duopoly_shares):
    return OligopolyGame(small_random_population, total_nu=4.0,
                         capacity_shares=duopoly_shares)


class TestConstruction:
    def test_shares_must_sum_to_one(self, small_random_population):
        with pytest.raises(ModelValidationError):
            OligopolyGame(small_random_population, 4.0, {"a": 0.5, "b": 0.4})

    def test_shares_must_be_positive(self, small_random_population):
        with pytest.raises(ModelValidationError):
            OligopolyGame(small_random_population, 4.0, {"a": 1.0, "b": 0.0})

    def test_needs_at_least_one_isp(self, small_random_population):
        with pytest.raises(ModelValidationError):
            OligopolyGame(small_random_population, 4.0, {})

    def test_invalid_nu(self, small_random_population):
        with pytest.raises(ModelValidationError):
            OligopolyGame(small_random_population, -1.0, {"a": 1.0})


class TestOutcome:
    def test_missing_strategy_rejected(self, game):
        with pytest.raises(ModelValidationError):
            game.outcome({"ISP-A": PUBLIC_OPTION_STRATEGY})

    def test_outcome_accounting(self, game):
        strategies = {"ISP-A": ISPStrategy(1.0, 0.3), "ISP-B": PUBLIC_OPTION_STRATEGY}
        outcome = game.outcome(strategies)
        assert sum(outcome.market_shares.values()) == pytest.approx(1.0)
        assert outcome.consumer_surplus >= 0.0
        assert outcome.isp_surplus("ISP-B") == 0.0
        assert outcome.isp_surplus("ISP-A") >= 0.0
        assert outcome.market_share("ISP-A") == outcome.market_shares["ISP-A"]


class TestLemma4:
    def test_homogeneous_symmetric_duopoly(self, game):
        report = game.verify_proportional_shares(ISPStrategy(1.0, 0.3))
        assert report["holds"], report

    def test_homogeneous_neutral_strategy(self, game):
        report = game.verify_proportional_shares(PUBLIC_OPTION_STRATEGY)
        assert report["holds"], report

    def test_asymmetric_capacities_three_isps(self, small_random_population):
        game = OligopolyGame(small_random_population, total_nu=4.0,
                             capacity_shares={"a": 0.5, "b": 0.3, "c": 0.2})
        report = game.verify_proportional_shares(ISPStrategy(0.8, 0.4),
                                                 tolerance=0.03)
        assert report["holds"], report
        assert report["max_gap"] <= 0.03


class TestBestResponse:
    def test_best_response_is_best_on_grid(self, game):
        candidates = strategy_grid(kappas=(1.0,), prices=(0.2, 0.6),
                                   include_public_option=True)
        baseline = {"ISP-A": candidates[0], "ISP-B": candidates[0]}
        best, best_outcome, outcomes = game.best_response(
            "ISP-A", baseline, candidates, objective="market_share")
        assert best in candidates
        assert len(outcomes) == len(candidates)
        assert best_outcome.market_share("ISP-A") == pytest.approx(
            max(o.market_share("ISP-A") for o in outcomes))

    def test_best_response_validation(self, game):
        candidates = [PUBLIC_OPTION_STRATEGY]
        baseline = {"ISP-A": PUBLIC_OPTION_STRATEGY, "ISP-B": PUBLIC_OPTION_STRATEGY}
        with pytest.raises(ModelValidationError):
            game.best_response("nope", baseline, candidates)
        with pytest.raises(ModelValidationError):
            game.best_response("ISP-A", baseline, [])
        with pytest.raises(ModelValidationError):
            game.best_response("ISP-A", baseline, candidates, objective="bogus")

    def test_theorem6_alignment_on_small_grid(self, game):
        """The market-share best response loses little consumer surplus
        relative to the surplus best response (Theorem 6)."""
        candidates = strategy_grid(kappas=(1.0,), prices=(0.2, 0.5, 0.8),
                                   include_public_option=True)
        baseline = {"ISP-A": candidates[0], "ISP-B": candidates[1]}
        _, share_outcome, _ = game.best_response("ISP-A", baseline, candidates,
                                                 objective="market_share")
        _, phi_outcome, _ = game.best_response("ISP-A", baseline, candidates,
                                               objective="consumer_surplus")
        scale = max(abs(phi_outcome.consumer_surplus), 1e-9)
        shortfall = phi_outcome.consumer_surplus - share_outcome.consumer_surplus
        assert shortfall <= 0.10 * scale


class TestAgainstDuopolySolver:
    """At N=2 the oligopoly game must agree exactly with ``DuopolyGame``.

    Both front-ends drive the identical ``solve_market_split`` share search
    (same ISP order, same tolerances; its share-width rule stops it within
    17 steps, under either game's step budget) on the same capacity floats,
    so the agreement is exact equality, not approximate.  The capacities
    must match to the last bit: the cap solver's iterates depend on the
    carried-load values, so a one-ulp change in an ISP's capacity can move
    its caps.
    """

    @pytest.mark.parametrize("strategy", [ISPStrategy(1.0, 0.3),
                                          ISPStrategy(0.6, 0.1),
                                          PUBLIC_OPTION_STRATEGY])
    def test_two_provider_outcomes_pin_to_duopoly(self, small_random_population,
                                                  strategy):
        duopoly = DuopolyGame(small_random_population, total_nu=4.0,
                              strategic_capacity_share=0.5)
        oligopoly = OligopolyGame(
            small_random_population, total_nu=4.0,
            capacity_shares={"ISP-I": 0.5, "ISP-J": 0.5},
            config=SolverConfig(migration_tolerance=duopoly.migration_tolerance))
        expected = duopoly.outcome(strategy)
        actual = oligopoly.outcome({"ISP-I": strategy,
                                    "ISP-J": PUBLIC_OPTION_STRATEGY})
        assert actual.market_share("ISP-I") == expected.market_share
        assert actual.market_share("ISP-J") == expected.other_market_share
        assert actual.consumer_surplus == expected.consumer_surplus
        assert actual.isp_surplus("ISP-I") == expected.isp_surplus
        assert actual.isp_surplus("ISP-J") == expected.other_isp_surplus
        assert actual.split.common_surplus == expected.split.common_surplus

    def test_asymmetric_capacity_share_pins_too(self, small_random_population):
        duopoly = DuopolyGame(small_random_population, total_nu=3.0,
                              strategic_capacity_share=0.7)
        oligopoly = OligopolyGame(
            small_random_population, total_nu=3.0,
            # ``DuopolyGame`` gives the other ISP ``1 - 0.7``, which is
            # 0.30000000000000004, not 0.3.
            capacity_shares={"ISP-I": 0.7, "ISP-J": 1.0 - 0.7},
            config=SolverConfig(migration_tolerance=duopoly.migration_tolerance))
        strategy = ISPStrategy(1.0, 0.4)
        expected = duopoly.outcome(strategy)
        actual = oligopoly.outcome({"ISP-I": strategy,
                                    "ISP-J": PUBLIC_OPTION_STRATEGY})
        assert actual.market_shares == expected.split.shares
        assert actual.consumer_surplus == expected.consumer_surplus


class TestMultiProviderInvariants:
    """Share/surplus invariants on the 3- and 4-ISP tatonnement path."""

    @pytest.mark.parametrize("capacity_shares", [
        {"a": 0.5, "b": 0.3, "c": 0.2},
        {"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1},
    ])
    def test_share_and_surplus_invariants(self, small_random_population,
                                          capacity_shares):
        game = OligopolyGame(small_random_population, total_nu=4.0,
                             capacity_shares=capacity_shares)
        strategies = {name: (ISPStrategy(1.0, 0.3) if name == "a"
                             else PUBLIC_OPTION_STRATEGY)
                      for name in capacity_shares}
        outcome = game.outcome(strategies)
        shares = outcome.market_shares
        assert set(shares) == set(capacity_shares)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert all(share >= 0.0 for share in shares.values())
        # Public Option ISPs sell no premium class: zero ISP surplus.
        for name in capacity_shares:
            if strategies[name] is PUBLIC_OPTION_STRATEGY:
                assert outcome.isp_surplus(name) == 0.0
            else:
                assert outcome.isp_surplus(name) >= 0.0
        # The aggregate surplus is the share-weighted mean of per-ISP levels.
        weighted = sum(shares[name] * outcome.split.surpluses[name]
                       for name in shares)
        assert outcome.consumer_surplus == pytest.approx(weighted, rel=1e-12)
        assert outcome.consumer_surplus >= 0.0

    @pytest.mark.parametrize("count", [3, 4])
    def test_homogeneous_profile_tracks_capacity_shares(
            self, small_random_population, count):
        names = [f"isp{i}" for i in range(count)]
        capacity_shares = {name: 1.0 / count for name in names}
        game = OligopolyGame(small_random_population, total_nu=4.0,
                             capacity_shares=capacity_shares)
        outcome = game.homogeneous_outcome(ISPStrategy(1.0, 0.3))
        # Lemma 4: under homogeneous strategies the capacity-proportional
        # split equalises surplus, so the solver should stay close to it.
        assert outcome.share_capacity_gap <= 0.05
        assert sum(outcome.market_shares.values()) == pytest.approx(1.0)


class TestNashSearch:
    def test_iterated_best_response_returns_profile(self, game):
        candidates = strategy_grid(kappas=(1.0,), prices=(0.2, 0.6),
                                   include_public_option=True)
        profile, outcome, converged = game.find_nash_equilibrium(
            candidates, objective="market_share", max_rounds=3)
        assert set(profile) == {"ISP-A", "ISP-B"}
        assert all(strategy in candidates for strategy in profile.values())
        assert sum(outcome.market_shares.values()) == pytest.approx(1.0)

    def test_empty_candidates_rejected(self, game):
        with pytest.raises(ModelValidationError):
            game.find_nash_equilibrium([], objective="market_share")
