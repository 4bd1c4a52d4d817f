"""The carried-load kernel against a direct per-provider evaluation.

``ExponentialMaxMinProfile`` sorts providers by ``theta_hat``, looks the
saturated ones up in a prefix sum and runs a vectorised pass over the
congested tail.  These tests evaluate the same work-conservation sum one
provider at a time, in input order, with ``math`` scalars, and require the
kernel to agree with it to ``1e-10`` (they differ only in summation order).
They also check the kernel's edge cases (empty profiles, caps ``<= 0``,
subnormal caps), that ``solve_cap`` returns a root of the direct sum, that
``rhos_at`` reproduces the population's demand row bit for bit, and that
the profile's sort order is exactly the stable ``theta_hat`` order.

The columns reach ``beta = 1000`` and ``alpha = 1e-300``, where ``alpha *
e^beta`` overflows: the kernel's tail works with ``log(alpha) + beta``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.network.equilibrium import (
    ExponentialMaxMinProfile,
    exponential_profile,
)
from repro.network.provider import Population
from repro.workloads.populations import PopulationSpec, random_population

#: Agreement with the direct sum (absolute + relative).
TOL = 1e-10


def direct_rates(alphas, theta_hats, betas, cap: float) -> list[float]:
    """Per-consumer rate ``alpha_i d_i(theta_i) theta_i`` of each provider.

    Max-min fairness serves provider ``i`` at ``theta_i = min(theta_hat_i,
    cap)``; exponential demand is ``exp(-beta_i (theta_hat_i / theta_i -
    1))``.  A ``beta = 0`` provider has demand exactly 1 at every cap.
    """
    if cap <= 0.0:
        return [0.0] * len(alphas)
    rates = []
    for alpha, theta_hat, beta in zip(alphas, theta_hats, betas):
        if theta_hat <= cap:
            rates.append(alpha * theta_hat)
        elif beta == 0.0:
            rates.append(alpha * cap)
        else:
            rates.append(alpha * math.exp(-beta * (theta_hat / cap - 1.0))
                         * cap)
    return rates


def make_profile(alphas, theta_hats, betas) -> ExponentialMaxMinProfile:
    return ExponentialMaxMinProfile(*(np.asarray(column, dtype=float)
                                      for column in (alphas, theta_hats,
                                                     betas)))


def assert_close(a: float, b: float) -> None:
    assert a == pytest.approx(b, rel=TOL, abs=TOL)


def test_empty_profile_edge_case():
    profile = make_profile([], [], [])
    assert profile.carried_scalar(1.0) == math.fsum(
        direct_rates([], [], [], 1.0)) == 0.0
    assert profile.carried(np.array([0.5, 1.0])).tolist() == [0.0, 0.0]
    assert math.isinf(profile.solve_cap(1.0))


def test_nonpositive_caps_edge_case():
    columns = ([1.0, 0.5], [1.0, 3.0], [2.0, 0.0])
    profile = make_profile(*columns)
    for cap in (0.0, -1.0):
        assert profile.carried_scalar(cap) == 0.0
    grid = np.array([-1.0, 0.0, 0.5])
    expected = [math.fsum(direct_rates(*columns, float(cap))) for cap in grid]
    np.testing.assert_allclose(profile.carried(grid), expected,
                               rtol=TOL, atol=TOL)


# --------------------------------------------------------------------------- #
# Property tests: random columns and targets
# --------------------------------------------------------------------------- #

#: Popularities from 1e-300 (``alpha * e^beta`` overflows beside a large
#: ``beta``) up to 2, and sensitivities from 0 up to 1000.
alphas_st = st.floats(min_value=1e-300, max_value=2.0)
betas_st = st.floats(min_value=0.0, max_value=1000.0)

columns_st = st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.tuples(
        st.lists(alphas_st, min_size=n, max_size=n),
        st.lists(st.floats(min_value=0.05, max_value=20.0),
                 min_size=n, max_size=n),
        st.lists(betas_st, min_size=n, max_size=n)))

#: The cap solver's columns keep ``alpha >= 0.01``: its uncongested test
#: has an absolute slack of 1e-15, so a population whose whole load is
#: below that (``alpha = 1e-300``) reads as uncongested at every capacity.
solver_columns_st = st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(min_value=0.01, max_value=2.0),
                 min_size=n, max_size=n),
        st.lists(st.floats(min_value=0.05, max_value=20.0),
                 min_size=n, max_size=n),
        st.lists(betas_st, min_size=n, max_size=n)))


@given(columns=columns_st,
       cap_fraction=st.floats(min_value=0.0, max_value=1.5))
# A subnormal cap once overflowed ``theta_hat / cap`` to inf, and the
# ``beta = 0`` column then gave ``exp(-0 * inf) = NaN``.
@example(columns=([1.0], [1.0], [0.0]), cap_fraction=2.225073858507e-311)
# ``alpha * e^beta`` overflows to inf here; ``log(alpha) + beta`` does not.
@example(columns=([1e-300, 0.5], [10.0, 1.0], [1000.0, 2.0]),
         cap_fraction=0.99)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_carried_scalar_property(columns, cap_fraction):
    profile = make_profile(*columns)
    cap = cap_fraction * profile.upper
    value = profile.carried_scalar(cap)
    assert math.isfinite(value)
    assert_close(value, math.fsum(direct_rates(*columns, cap)))
    # The fused carried-load + surplus pass shares this tail arithmetic.
    weights = profile.surplus_weights(np.ones(profile.size))
    assert profile.carried_and_surplus(cap, weights)[0] == value


@given(columns=solver_columns_st,
       nu_fraction=st.floats(min_value=0.0, max_value=1.2))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_solve_cap_property(columns, nu_fraction):
    profile = make_profile(*columns)
    load = math.fsum(alpha * theta_hat
                     for alpha, theta_hat in zip(columns[0], columns[1]))
    nu = nu_fraction * profile.unconstrained_load
    cap = profile.solve_cap(float(nu))
    if nu >= profile.unconstrained_load:
        assert math.isinf(cap)
    elif nu <= 0.0:
        assert cap == 0.0
    else:
        # The solved cap carries the capacity under the direct sum too.
        assert 0.0 < cap <= profile.upper
        assert math.fsum(direct_rates(*columns, cap)) == pytest.approx(
            nu, rel=1e-9, abs=1e-9 * max(1.0, load))


# --------------------------------------------------------------------------- #
# The fused carried-load + surplus pass
# --------------------------------------------------------------------------- #

weighted_columns_st = st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.tuples(
        st.lists(alphas_st, min_size=n, max_size=n),
        st.lists(st.sampled_from([0.5, 1.0, 2.5, 7.0]) | st.floats(
            min_value=0.05, max_value=20.0), min_size=n, max_size=n),
        st.lists(st.just(0.0) | betas_st, min_size=n, max_size=n),
        st.lists(st.floats(min_value=0.0, max_value=5.0),
                 min_size=n, max_size=n)))


@given(columns=weighted_columns_st,
       cap_fraction=st.floats(min_value=0.0, max_value=1.5))
@example(columns=([1.0], [1.0], [0.0], [2.0]),
         cap_fraction=2.225073858507e-311)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_carried_and_surplus_property(columns, cap_fraction):
    alphas, theta_hats, betas, phis = columns
    profile = make_profile(alphas, theta_hats, betas)
    order = np.argsort(np.asarray(theta_hats, dtype=float), kind="stable")
    weights = profile.surplus_weights(np.asarray(phis, dtype=float)[order])
    cap = cap_fraction * profile.upper
    carried, surplus = profile.carried_and_surplus(cap, weights)
    assert math.isfinite(carried) and math.isfinite(surplus)
    # The fused pass shares the scalar pass's tail arithmetic: its carried
    # load is the scalar carried load bit for bit.
    assert carried == profile.carried_scalar(cap)
    rates = direct_rates(alphas, theta_hats, betas, cap)
    assert_close(carried, math.fsum(rates))
    assert_close(surplus, math.fsum(phi * rate
                                    for phi, rate in zip(phis, rates)))


# --------------------------------------------------------------------------- #
# The rho row read off the sorted profile
# --------------------------------------------------------------------------- #

@given(columns=weighted_columns_st,
       cap_fraction=st.floats(min_value=0.0, max_value=1.5))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_rhos_at_matches_demand_row_exactly(columns, cap_fraction):
    alphas, theta_hats, betas, _ = columns
    population = Population.from_columns(np.minimum(alphas, 1.0), theta_hats,
                                         betas)
    profile = exponential_profile(population)
    upper = profile.upper
    # Zero, the smallest subnormal, the largest cap below the overflow-safe
    # threshold, every theta_hat exactly (ties included), the saturation
    # cap, beyond it, infinity and one drawn cap.
    caps = [0.0, 5e-324, float(np.nextafter(upper * 1e-200, 0.0)),
            *population.theta_hats.tolist(), upper, 10.0 * upper, math.inf,
            cap_fraction * upper]
    for cap in caps:
        thetas = np.minimum(population.theta_hats, cap)
        expected = population.demands_at(thetas) * thetas
        np.testing.assert_array_equal(profile.rhos_at(cap), expected)


# --------------------------------------------------------------------------- #
# The stable sort order, and class profiles gathered from it
# --------------------------------------------------------------------------- #

#: Every column a profile keeps, in its sorted order.
PROFILE_COLUMNS = ("_alphas", "_theta_hats", "_neg_betas", "_log_weights",
                   "_neg_beta_thetas", "_prefix")


def assert_restricted_is_fresh(profile, mask, alphas, theta_hats, betas):
    """``profile.restricted(mask)``, gathered from the parent, equals a fresh
    profile of the class, column for column."""
    restricted = profile.restricted(mask)
    fresh = make_profile(alphas[mask], theta_hats[mask], betas[mask])
    np.testing.assert_array_equal(restricted.order,
                                  np.flatnonzero(mask)[fresh.order])
    for name in PROFILE_COLUMNS:
        np.testing.assert_array_equal(getattr(restricted, name),
                                      getattr(fresh, name), err_msg=name)
    assert (restricted.size, restricted.upper, restricted.unconstrained_load
            ) == (fresh.size, fresh.upper, fresh.unconstrained_load)


#: Few distinct ``theta_hat`` values, so nearly every provider is tied.
tied_columns_st = st.integers(min_value=1, max_value=300).flatmap(
    lambda n: st.tuples(
        st.lists(alphas_st, min_size=n, max_size=n),
        st.lists(st.integers(min_value=1, max_value=6).map(float),
                 min_size=n, max_size=n),
        st.lists(betas_st, min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n)))


@given(columns=tied_columns_st)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_order_is_the_stable_theta_order_under_ties(columns):
    alphas, theta_hats, betas, mask = (np.asarray(column)
                                       for column in columns)
    profile = make_profile(alphas, theta_hats, betas)
    np.testing.assert_array_equal(
        profile.order, np.argsort(theta_hats, kind="stable"))
    np.testing.assert_array_equal(profile._theta_hats, np.sort(theta_hats))
    assert_restricted_is_fresh(profile, mask, alphas, theta_hats, betas)


def test_order_is_stable_on_the_floor_tied_population():
    # ``random_population`` floors theta_hat, so 10^5 CPs hold ties.
    population = random_population(PopulationSpec(count=100_000),
                                   seed=20111106)
    theta_hats = population.theta_hats
    stable = np.argsort(theta_hats, kind="stable")
    ordered = theta_hats[stable]
    assert np.count_nonzero(ordered[1:] <= ordered[:-1]) > 0
    profile = exponential_profile(population)
    np.testing.assert_array_equal(profile.order, stable)
    np.testing.assert_array_equal(profile._theta_hats, ordered)
    mask = np.random.default_rng(3).random(len(population)) < 0.5
    assert_restricted_is_fresh(profile, mask, population.alphas, theta_hats,
                               population.betas)
