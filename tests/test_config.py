"""SolverConfig: defaults, validation, resolution and cache identity.

These tests pin the config's guarantees: the per-game tolerance defaults
stay exactly what each game documented before SolverConfig existed,
config values beat game defaults, every tolerance is a finite real number
and reaches the games only through the config, and cache keys never alias
across configs.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.config import (
    SolverConfig,
    active_config,
    default_config,
    resolve_config,
    use_config,
)
from repro.core.cp_game import CPPartitionGame
from repro.core.duopoly import DUOPOLY_MIGRATION_TOLERANCE, DuopolyGame
from repro.core.migration import DEFAULT_MIGRATION_TOLERANCE
from repro.core.oligopoly import OLIGOPOLY_MIGRATION_TOLERANCE, OligopolyGame
from repro.core.strategy import PUBLIC_OPTION_STRATEGY
from repro.errors import ModelValidationError
from repro.network.allocation import MaxMinFairAllocation
from repro.runner.registry import get_spec


# --------------------------------------------------------------------------- #
# Defaults and validation
# --------------------------------------------------------------------------- #

def test_default_config_pins_pre_refactor_tolerances():
    config = SolverConfig()
    assert config.migration_tolerance is None
    assert config.switching_tolerance == 1e-6
    assert config.surplus_tolerance == 1e-9
    assert config.bisection_tolerance == 1e-13
    assert config.cache_policy == "shared"


@pytest.mark.parametrize("kwargs", [
    {"bisection_tolerance": True},
    {"migration_tolerance": 0.0},
    {"migration_tolerance": -1e-4},
    {"switching_tolerance": -1e-6},
    {"surplus_tolerance": -1e-9},
    {"bisection_tolerance": 0.0},
    {"cache_policy": "write-through"},
    {"migration_tolerance": float("inf")},
    {"switching_tolerance": float("inf")},
    {"surplus_tolerance": float("nan")},
    {"bisection_tolerance": float("inf")},
    {"migration_tolerance": True},
    {"switching_tolerance": False},
    {"surplus_tolerance": "1e-9"},
])
def test_invalid_config_rejected(kwargs):
    with pytest.raises(ModelValidationError):
        SolverConfig(**kwargs)


def test_default_config_is_one_instance():
    assert default_config() is default_config()
    assert default_config() == SolverConfig()


# --------------------------------------------------------------------------- #
# Per-game migration/switching defaults (the inconsistency satellite)
# --------------------------------------------------------------------------- #

def test_documented_per_game_defaults_are_pinned():
    # These three constants document the historical (and deliberate)
    # asymmetry: the duopoly bisection is tighter than the oligopoly one.
    assert DUOPOLY_MIGRATION_TOLERANCE == 1e-4
    assert OLIGOPOLY_MIGRATION_TOLERANCE == 1e-3
    assert DEFAULT_MIGRATION_TOLERANCE == 1e-4


def test_game_defaults_without_config(small_random_population):
    duopoly = DuopolyGame(small_random_population, 100.0, 0.5)
    assert duopoly.migration_tolerance == DUOPOLY_MIGRATION_TOLERANCE
    oligopoly = OligopolyGame(small_random_population, 100.0,
                              {"a": 0.5, "b": 0.5})
    assert oligopoly.migration_tolerance == OLIGOPOLY_MIGRATION_TOLERANCE
    cp_game = CPPartitionGame(small_random_population, 100.0,
                              PUBLIC_OPTION_STRATEGY, MaxMinFairAllocation())
    assert cp_game.config.switching_tolerance == 1e-6


def test_config_overrides_game_default_and_explicit_beats_config(
        small_random_population):
    config = SolverConfig(migration_tolerance=1e-5, switching_tolerance=1e-7)
    duopoly = DuopolyGame(small_random_population, 100.0, 0.5, config=config)
    assert duopoly.migration_tolerance == 1e-5
    oligopoly = OligopolyGame(small_random_population, 100.0,
                              {"a": 0.5, "b": 0.5}, config=config)
    assert oligopoly.migration_tolerance == 1e-5
    cp_game = CPPartitionGame(small_random_population, 100.0,
                              PUBLIC_OPTION_STRATEGY, MaxMinFairAllocation(),
                              config=config)
    assert cp_game.config.switching_tolerance == 1e-7
    # An explicit config= beats the ambient one.
    with use_config(SolverConfig(migration_tolerance=1e-2)):
        explicit = DuopolyGame(small_random_population, 100.0, 0.5,
                               config=config)
    assert explicit.migration_tolerance == 1e-5


@pytest.mark.parametrize("game, keyword", [
    (lambda population, **kw: DuopolyGame(population, 100.0, 0.5, **kw),
     "migration_tolerance"),
    (lambda population, **kw: OligopolyGame(
        population, 100.0, {"a": 0.5, "b": 0.5}, **kw), "migration_tolerance"),
    (lambda population, **kw: CPPartitionGame(
        population, 100.0, PUBLIC_OPTION_STRATEGY, **kw), "switching_tolerance"),
])
def test_games_take_tolerances_only_from_the_validated_config(
        small_random_population, game, keyword):
    # A per-game keyword would bypass SolverConfig's validation (``True``,
    # ``nan`` and ``inf`` used to be accepted there); only ``config=`` is.
    with pytest.raises(TypeError, match=keyword):
        game(small_random_population, **{keyword: True})


# --------------------------------------------------------------------------- #
# Resolution: explicit > ambient > default
# --------------------------------------------------------------------------- #

def test_resolve_config_prefers_explicit_then_ambient():
    explicit = SolverConfig(switching_tolerance=1e-8)
    ambient = SolverConfig(switching_tolerance=1e-7)
    assert active_config() is None
    assert resolve_config(None) == SolverConfig()
    with use_config(ambient):
        assert active_config() is ambient
        assert resolve_config(None) is ambient
        assert resolve_config(explicit) is explicit
    assert active_config() is None


def test_ambient_config_is_private_to_its_thread():
    first = SolverConfig(switching_tolerance=1e-8)
    second = SolverConfig(switching_tolerance=1e-7)
    both_inside = threading.Barrier(2)
    both_resolved = threading.Barrier(2)
    seen: dict[str, object] = {}

    def run(name: str, config: SolverConfig) -> None:
        with use_config(config):
            both_inside.wait(timeout=10)
            seen[name] = resolve_config(None)
            both_resolved.wait(timeout=10)
        seen[name + " after"] = active_config()

    threads = [threading.Thread(target=run, args=("first", first)),
               threading.Thread(target=run, args=("second", second))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert seen == {"first": first, "second": second,
                    "first after": None, "second after": None}
    assert active_config() is None


def test_games_inherit_ambient_config(small_random_population):
    ambient = SolverConfig(migration_tolerance=2e-5)
    with use_config(ambient):
        game = DuopolyGame(small_random_population, 100.0, 0.5)
    assert game.config is ambient
    assert game.migration_tolerance == 2e-5


# --------------------------------------------------------------------------- #
# Cache identity
# --------------------------------------------------------------------------- #

def test_cache_keys_distinct_across_tolerances():
    keys = {SolverConfig().cache_key(),
            SolverConfig(switching_tolerance=1e-7).cache_key(),
            SolverConfig(surplus_tolerance=1e-8).cache_key(),
            SolverConfig(bisection_tolerance=1e-12).cache_key(),
            SolverConfig(migration_tolerance=1e-5).cache_key(),
            SolverConfig(cache_policy="bypass").cache_key()}
    assert len(keys) == 6


def test_cache_key_is_memoized():
    config = SolverConfig()
    assert config.cache_key() is config.cache_key()


# --------------------------------------------------------------------------- #
# Provenance
# --------------------------------------------------------------------------- #

def test_default_provenance_is_stable():
    assert SolverConfig().provenance() == {
        "cache_policy": "shared",
        "tolerances": {"migration": None, "switching": 1e-6,
                       "surplus": 1e-9, "bisection": 1e-13},
    }


def test_experiment_run_records_solver_provenance():
    result = get_spec("FIG2").run(scale="smoke")
    assert result.parameters["solver"] == SolverConfig().provenance()
    custom = SolverConfig(switching_tolerance=1e-7)
    result = get_spec("FIG2").run(scale="smoke", config=custom)
    assert result.parameters["solver"] == custom.provenance()


# --------------------------------------------------------------------------- #
# Cache policy
# --------------------------------------------------------------------------- #

def test_bypass_policy_matches_shared_results(small_random_population):
    from repro.core.monopoly import MonopolyGame
    from repro.core.strategy import ISPStrategy

    strategy = ISPStrategy(kappa=1.0, price=0.4)
    shared = MonopolyGame(small_random_population, 120.0).outcome(strategy)
    bypass_game = MonopolyGame(small_random_population, 120.0,
                               config=SolverConfig(cache_policy="bypass"))
    bypass = bypass_game.outcome(strategy)
    assert bypass.isp_surplus == shared.isp_surplus
    assert bypass.consumer_surplus == shared.consumer_surplus


def test_bypass_policy_never_touches_registered_caches(
        small_random_population):
    from repro.cache import all_cache_stats
    from repro.network.equilibrium import cached_class_cap, class_cap

    config = SolverConfig(cache_policy="bypass")
    before = all_cache_stats()
    mask = np.zeros(len(small_random_population), dtype=bool)
    mask[::2] = True
    cached_class_cap(small_random_population, 123.456,
                     MaxMinFairAllocation(), config=config)
    class_cap(small_random_population, mask, 123.456,
              MaxMinFairAllocation(), config=config)
    after = all_cache_stats()
    for name, entry in after.items():
        assert entry["size"] == before[name]["size"], name
        assert entry["misses"] == before[name]["misses"], name
