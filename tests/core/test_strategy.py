"""Tests for ISP strategies and strategy grids."""

from __future__ import annotations

import pytest

from repro.errors import ModelValidationError
from repro.core.strategy import (
    NEUTRAL_STRATEGY,
    PUBLIC_OPTION_STRATEGY,
    ISPStrategy,
    strategy_grid,
)


class TestISPStrategy:
    def test_valid_strategy(self):
        strategy = ISPStrategy(kappa=0.5, price=0.3)
        assert strategy.ordinary_share == pytest.approx(0.5)
        assert not strategy.is_neutral
        assert not strategy.is_public_option

    @pytest.mark.parametrize("kappa", [-0.1, 1.1])
    def test_invalid_kappa(self, kappa):
        with pytest.raises(ModelValidationError):
            ISPStrategy(kappa=kappa, price=0.1)

    @pytest.mark.parametrize("price", [-0.1, float("inf"), float("nan")])
    def test_invalid_price(self, price):
        with pytest.raises(ModelValidationError):
            ISPStrategy(kappa=0.5, price=price)

    def test_neutrality_conditions(self):
        assert ISPStrategy(0.0, 0.7).is_neutral
        assert ISPStrategy(0.4, 0.0).is_neutral
        assert not ISPStrategy(0.4, 0.7).is_neutral

    def test_public_option_constant(self):
        assert PUBLIC_OPTION_STRATEGY.kappa == 0.0
        assert PUBLIC_OPTION_STRATEGY.price == 0.0
        assert PUBLIC_OPTION_STRATEGY.is_public_option
        assert NEUTRAL_STRATEGY == PUBLIC_OPTION_STRATEGY

    def test_only_exact_zero_zero_is_public_option(self):
        assert not ISPStrategy(0.0, 0.5).is_public_option
        assert not ISPStrategy(0.5, 0.0).is_public_option

    def test_ordering_and_hashability(self):
        strategies = {ISPStrategy(0.5, 0.3), ISPStrategy(0.5, 0.3), ISPStrategy(1.0, 0.3)}
        assert len(strategies) == 2
        assert ISPStrategy(0.2, 0.1) < ISPStrategy(0.5, 0.1)

    def test_describe(self):
        assert "public option" in PUBLIC_OPTION_STRATEGY.describe()
        assert "kappa=0.5" in ISPStrategy(0.5, 0.3).describe()


class TestStrategyGrid:
    def test_cartesian_product(self):
        grid = strategy_grid(kappas=(0.5, 1.0), prices=(0.1, 0.2, 0.3))
        assert len(grid) == 6
        assert ISPStrategy(0.5, 0.1) in grid
        assert ISPStrategy(1.0, 0.3) in grid

    def test_deduplication(self):
        grid = strategy_grid(kappas=(0.5, 0.5), prices=(0.1,))
        assert len(grid) == 1

    def test_include_public_option(self):
        grid = strategy_grid(kappas=(0.5,), prices=(0.1,), include_public_option=True)
        assert PUBLIC_OPTION_STRATEGY in grid
        # Not duplicated if already present.
        grid2 = strategy_grid(kappas=(0.0,), prices=(0.0,),
                              include_public_option=True)
        assert grid2.count(PUBLIC_OPTION_STRATEGY) == 1

    def test_empty_grid_rejected(self):
        with pytest.raises(ModelValidationError):
            strategy_grid(kappas=(), prices=(0.1,))
        with pytest.raises(ModelValidationError):
            strategy_grid(kappas=(0.5,), prices=())
