"""Numba-kernel ≡ reference-kernel equivalence to <= 1e-10.

The numba kernel is a plain Python function that gets njit-compiled only
when numba is importable, so this suite runs it *interpreted* through a
:class:`NumbaBackend` built from the undecorated function — the kernel
arithmetic (serial tail summation, inlined binary search) is validated even
on machines without numba, and since ``njit`` compiles exactly this
bytecode the compiled path computes the same floating-point operations in
the same order.  Both backends' profiles run the same cap solver.

The contract under test: for every profile the backends agree on carried
loads and solved caps to an absolute-plus-relative tolerance of ``1e-10``
(they differ only in summation order — numpy's pairwise tree vs. the
loop's left-to-right accumulation).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.backends import NumbaBackend, SolverConfig, reference_backend
from repro.backends import registry as backends_registry
from repro.backends.numba_backend import _kernel_carried_sums
from repro.network.allocation import (
    MaxMinFairAllocation,
    ProportionalFairAllocation,
    WeightedFairAllocation,
)
from repro.network.equilibrium import (
    ExponentialMaxMinProfile,
    solve_rate_equilibrium,
)
from repro.network.provider import ContentProvider, Population
from repro.workloads.archetypes import archetype_population
from repro.workloads.populations import PopulationSpec, random_population

#: The backend-contract equivalence bound (absolute + relative).
TOL = 1e-10


def python_numba_backend() -> NumbaBackend:
    """A NumbaBackend running the uncompiled (interpreted) kernel."""
    return NumbaBackend(_kernel_carried_sums)


def make_profiles(alphas, theta_hats, betas):
    """The same columns wrapped in a reference- and a numba-backed profile."""
    columns = (np.asarray(alphas, dtype=float),
               np.asarray(theta_hats, dtype=float),
               np.asarray(betas, dtype=float))
    return (ExponentialMaxMinProfile(*columns, backend=reference_backend()),
            ExponentialMaxMinProfile(*columns, backend=python_numba_backend()))


def assert_close(a: float, b: float) -> None:
    assert a == pytest.approx(b, rel=TOL, abs=TOL)


# --------------------------------------------------------------------------- #
# Fixed workloads, including every edge case the ISSUE names
# --------------------------------------------------------------------------- #

WORKLOADS = {
    "archetypes": lambda: archetype_population(),
    "random40": lambda: random_population(PopulationSpec(count=40), seed=11),
    "elastic_only": lambda: Population([
        ContentProvider(name=f"e{i}", alpha=0.5, theta_hat=1.0 + i,
                        beta=0.0, revenue_rate=0.5, utility_rate=1.0)
        for i in range(5)]),
    "stiff_betas": lambda: Population([
        ContentProvider(name=f"s{i}", alpha=0.2, theta_hat=0.5 * (i + 1),
                        beta=50.0, revenue_rate=0.5, utility_rate=1.0)
        for i in range(6)]),
    "tied_theta_hats": lambda: Population([
        ContentProvider(name=f"t{i}", alpha=1.0, theta_hat=2.0,
                        beta=float(i), revenue_rate=0.5, utility_rate=1.0)
        for i in range(4)]),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_carried_load_equivalence_on_workloads(workload):
    population = WORKLOADS[workload]()
    reference, numba_like = make_profiles(
        population.alphas, population.theta_hats, population.betas)
    caps = np.concatenate([
        np.linspace(0.0, 1.5 * reference.upper, 41),
        [1e-9, reference.upper, 10.0 * reference.upper]])
    ref_grid = reference.carried(caps)
    num_grid = numba_like.carried(caps)
    np.testing.assert_allclose(num_grid, ref_grid, rtol=TOL, atol=TOL)
    for cap in caps:
        assert_close(numba_like.carried_scalar(float(cap)),
                     reference.carried_scalar(float(cap)))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_solve_cap_equivalence_on_workloads(workload):
    population = WORKLOADS[workload]()
    reference, numba_like = make_profiles(
        population.alphas, population.theta_hats, population.betas)
    load = reference.unconstrained_load
    for nu in (0.0, -1.0, 0.05 * load, 0.4 * load, 0.9 * load,
               load, 2.0 * load):
        ref_cap = reference.solve_cap(float(nu))
        num_cap = numba_like.solve_cap(float(nu))
        if math.isinf(ref_cap) or ref_cap == 0.0:
            # Uncongested / zero-capacity guards fire identically on both
            # paths (the numba override replicates them before the kernel).
            assert num_cap == ref_cap
        else:
            assert num_cap == pytest.approx(
                ref_cap, rel=TOL, abs=TOL * max(1.0, reference.upper))
            # Both caps must satisfy work conservation to the solver's own
            # residual tolerance (not merely be close to the reference's
            # answer).
            target = min(nu, load)
            assert abs(numba_like.carried_scalar(num_cap) - target) <= \
                1e-12 * max(1.0, target)


def test_empty_profile_edge_case():
    reference, numba_like = make_profiles([], [], [])
    assert numba_like.carried_scalar(1.0) == reference.carried_scalar(1.0) == 0.0
    assert math.isinf(numba_like.solve_cap(1.0))
    assert math.isinf(reference.solve_cap(1.0))


def test_nonpositive_caps_edge_case():
    reference, numba_like = make_profiles([1.0, 0.5], [1.0, 3.0], [2.0, 0.0])
    for cap in (0.0, -1.0):
        assert reference.carried_scalar(cap) == 0.0
        assert numba_like.carried_scalar(cap) == 0.0
    grid = np.array([-1.0, 0.0, 0.5])
    np.testing.assert_allclose(numba_like.carried(grid),
                               reference.carried(grid), rtol=TOL, atol=TOL)


# --------------------------------------------------------------------------- #
# Property tests: random columns and targets
# --------------------------------------------------------------------------- #

columns_st = st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(min_value=0.01, max_value=2.0),
                 min_size=n, max_size=n),
        st.lists(st.floats(min_value=0.05, max_value=20.0),
                 min_size=n, max_size=n),
        st.lists(st.floats(min_value=0.0, max_value=30.0),
                 min_size=n, max_size=n)))


@given(columns=columns_st,
       cap_fraction=st.floats(min_value=0.0, max_value=1.5))
# A subnormal cap once overflowed ``theta_hat / cap`` to inf, and the
# ``beta = 0`` column then gave ``exp(-0 * inf) = NaN`` on both backends.
@example(columns=([1.0], [1.0], [0.0]), cap_fraction=2.225073858507e-311)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_carried_scalar_property(columns, cap_fraction):
    reference, numba_like = make_profiles(*columns)
    cap = cap_fraction * reference.upper
    value = reference.carried_scalar(cap)
    assert math.isfinite(value)
    assert_close(numba_like.carried_scalar(cap), value)


@given(columns=columns_st,
       nu_fraction=st.floats(min_value=0.0, max_value=1.2))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_solve_cap_property(columns, nu_fraction):
    reference, numba_like = make_profiles(*columns)
    nu = nu_fraction * reference.unconstrained_load
    ref_cap = reference.solve_cap(float(nu))
    num_cap = numba_like.solve_cap(float(nu))
    if math.isinf(ref_cap) or math.isinf(num_cap):
        assert math.isinf(ref_cap) == math.isinf(num_cap)
    else:
        assert num_cap == pytest.approx(
            ref_cap, rel=1e-9, abs=1e-9 * max(1.0, reference.upper))


# --------------------------------------------------------------------------- #
# The fused carried-load + surplus pass
# --------------------------------------------------------------------------- #

weighted_columns_st = st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(min_value=0.01, max_value=2.0),
                 min_size=n, max_size=n),
        st.lists(st.sampled_from([0.5, 1.0, 2.5, 7.0]) | st.floats(
            min_value=0.05, max_value=20.0), min_size=n, max_size=n),
        st.lists(st.just(0.0) | st.floats(min_value=0.0, max_value=30.0),
                 min_size=n, max_size=n),
        st.lists(st.floats(min_value=0.0, max_value=5.0),
                 min_size=n, max_size=n)))


def make_weighted_profiles(alphas, theta_hats, betas, phis):
    """Reference- and numba-backed profiles, plus their surplus weights."""
    columns = [np.asarray(column, dtype=float)
               for column in (alphas, theta_hats, betas)]
    profiles = tuple(ExponentialMaxMinProfile(*columns, backend=backend)
                     for backend in (reference_backend(),
                                     python_numba_backend()))
    order = np.argsort(columns[1], kind="stable")
    weights = profiles[0].surplus_weights(np.asarray(phis, dtype=float)[order])
    return profiles + (weights,)


@given(columns=weighted_columns_st,
       cap_fraction=st.floats(min_value=0.0, max_value=1.5))
@example(columns=([1.0], [1.0], [0.0], [2.0]),
         cap_fraction=2.225073858507e-311)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_carried_and_surplus_property(columns, cap_fraction):
    reference, numba_like, weights = make_weighted_profiles(*columns)
    cap = cap_fraction * reference.upper
    carried, surplus = reference.carried_and_surplus(cap, weights)
    assert math.isfinite(carried) and math.isfinite(surplus)
    # The fused pass shares the scalar pass's tail arithmetic: its carried
    # load is the scalar carried load bit for bit, on both backends.
    assert carried == reference.carried_scalar(cap)
    numba_carried, numba_surplus = numba_like.carried_and_surplus(cap,
                                                                  weights)
    assert numba_carried == numba_like.carried_scalar(cap)
    assert_close(numba_carried, carried)
    assert_close(numba_surplus, surplus)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_carried_and_surplus_equivalence_on_workloads(workload):
    population = WORKLOADS[workload]()
    reference, numba_like, weights = make_weighted_profiles(
        population.alphas, population.theta_hats, population.betas,
        population.utility_rates)
    for cap in np.concatenate([np.linspace(0.0, 1.5 * reference.upper, 23),
                               [-1.0, 1e-9, reference.upper, math.inf]]):
        ref_sums = reference.carried_and_surplus(float(cap), weights)
        num_sums = numba_like.carried_and_surplus(float(cap), weights)
        assert_close(num_sums[0], ref_sums[0])
        assert_close(num_sums[1], ref_sums[1])


# --------------------------------------------------------------------------- #
# End-to-end: a numba-backed config through the full solver stack
# --------------------------------------------------------------------------- #

@pytest.fixture
def simulated_numba(monkeypatch):
    """Make get_backend('numba') resolve to the interpreted kernels."""
    backend = python_numba_backend()
    monkeypatch.setattr(backends_registry, "load_numba_backend",
                        lambda: backend)
    return SolverConfig(backend="numba")


@pytest.mark.parametrize("mechanism_factory", [
    MaxMinFairAllocation,
    ProportionalFairAllocation,
    lambda: WeightedFairAllocation({}, default_weight=2.0),
], ids=["maxmin", "proportional", "weighted"])
def test_rate_equilibrium_matches_reference_across_mechanisms(
        simulated_numba, mechanism_factory):
    population = random_population(PopulationSpec(count=30), seed=23)
    mechanism = mechanism_factory()
    load = population.unconstrained_per_capita_load
    for nu in (0.0, 0.3 * load, 0.8 * load, 1.5 * load):
        ref = solve_rate_equilibrium(population, nu, mechanism)
        alt = solve_rate_equilibrium(population, nu, mechanism,
                                     config=simulated_numba)
        assert alt.aggregate_rate == pytest.approx(
            ref.aggregate_rate, rel=TOL, abs=TOL)
        np.testing.assert_allclose(alt.thetas, ref.thetas,
                                   rtol=1e-9, atol=1e-9)


def test_monopoly_outcome_matches_reference(simulated_numba):
    from repro.core.monopoly import MonopolyGame
    from repro.core.strategy import ISPStrategy

    population = random_population(PopulationSpec(count=30), seed=29)
    strategy = ISPStrategy(kappa=0.8, price=0.35)
    ref = MonopolyGame(population, 100.0).outcome(strategy)
    alt = MonopolyGame(population, 100.0,
                       config=simulated_numba).outcome(strategy)
    assert alt.isp_surplus == pytest.approx(ref.isp_surplus,
                                            rel=TOL, abs=TOL)
    assert alt.consumer_surplus == pytest.approx(ref.consumer_surplus,
                                                 rel=TOL, abs=TOL)


def test_simulated_backend_has_its_own_profile_cache(simulated_numba):
    from repro.network.equilibrium import common_cap_profile

    population = archetype_population()
    mechanism = MaxMinFairAllocation()
    ref_profile = common_cap_profile(population, mechanism)
    alt_profile = common_cap_profile(population, mechanism,
                                     config=simulated_numba)
    # One cached profile per backend name — reference and numba entries
    # never alias.
    assert ref_profile is not alt_profile
    assert ref_profile is common_cap_profile(population, mechanism)
    assert alt_profile is common_cap_profile(population, mechanism,
                                             config=simulated_numba)
