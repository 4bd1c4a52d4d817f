"""The Theorem-1 cap solver against an independent oracle.

``CommonCapProfile.solve_cap`` finds the root of the carried-load function
with a bracketed Illinois secant, for the sorted-prefix max-min profile and
for the generic profile of every other cap mechanism alike.  These tests
check it against a plain sign-only bisection written here (it shares
nothing with the solver but ``carried_scalar``), check the solver's own
exit conditions from the outside, bound its evaluation count, and check
that grids and threads do not change a single bit of its answers.  The
carried-load pass itself is checked at the degenerate caps: empty
profiles, caps ``<= 0`` and subnormal caps; the closed-form carried loads
of alpha-fair and strict priority are checked against the inversion of
``rho`` that their rows use.
"""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.network.allocation import (
    AlphaFairAllocation,
    CommonCapAllocation,
    MaxMinFairAllocation,
    ProportionalFairAllocation,
    ProportionalToDemandAllocation,
    StrictPriorityAllocation,
    WeightedFairAllocation,
    _throughputs_at_rhos,
)
from repro.network.demand import LinearDemand, SigmoidDemand, StepDemand
from repro.network.equilibrium import (
    CommonCapProfile,
    ExponentialMaxMinProfile,
    GenericCapProfile,
    common_cap_profile,
)
from repro.network.provider import ContentProvider, Population
from repro.workloads.populations import paper_population

#: The solver's documented exits (``_RESIDUAL_TOLERANCE`` and
#: ``_CAP_WIDTH_TOLERANCE`` in ``repro.network.equilibrium``).
RESIDUAL_TOLERANCE = 1e-13
WIDTH_TOLERANCE = 1e-14
#: Agreement with the oracle, relative to the cap.
AGREEMENT = 1e-10
#: Evaluations a single solve may spend (plain bisection needs ~45).
MAX_EVALUATIONS = 60


def oracle_cap(profile: CommonCapProfile, target: float) -> float:
    """Root of ``carried(cap) = target`` by bisection to ``1e-15 * upper``."""
    low, high = 0.0, profile.upper
    while high - low > 1e-15 * profile.upper:
        mid = 0.5 * (low + high)
        if not low < mid < high:
            break
        if profile.carried_scalar(mid) < target:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def counted_solve(profile: CommonCapProfile,
                  nu: float) -> tuple[float, int]:
    """``profile.solve_cap(nu)`` and the number of carried evaluations."""
    calls = []
    carried = profile.carried_scalar
    profile.carried_scalar = lambda cap: (calls.append(cap), carried(cap))[1]
    try:
        cap = profile.solve_cap(nu)
    finally:
        del profile.carried_scalar
    return cap, len(calls)


def check_against_oracle(profile: CommonCapProfile,
                         nu: float) -> None:
    cap, evaluations = counted_solve(profile, nu)
    assert evaluations <= MAX_EVALUATIONS
    target = min(nu, profile.unconstrained_load)
    if np.isinf(cap):
        # The uncongested slack is relative to the load.
        assert nu >= profile.unconstrained_load * (1.0 - 1e-15)
        return
    width_tolerance = WIDTH_TOLERANCE * max(1.0, profile.upper)
    value = profile.carried_scalar(cap)
    # Either the relative residual exit held, or the width exit did: the
    # cap is the top of a bracket narrower than the width tolerance whose
    # bottom still carried less than the target.
    assert (abs(value - target) <= RESIDUAL_TOLERANCE * target
            or (value >= target
                and profile.carried_scalar(max(cap - width_tolerance, 0.0))
                < target))
    expected = oracle_cap(profile, target)
    assert abs(cap - expected) <= AGREEMENT * expected + width_tolerance


# Ties come from a small pool of theta_hat values; beta mixes elastic
# (beta = 0) and stiff (beta = 50) columns with a continuous range.
thetas_st = st.one_of(st.sampled_from([0.5, 1.0, 2.0]),
                      st.floats(min_value=0.05, max_value=20.0))
betas_st = st.one_of(st.sampled_from([0.0, 50.0]),
                     st.floats(min_value=0.0, max_value=30.0))
columns_st = st.integers(min_value=1, max_value=25).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(min_value=0.01, max_value=2.0),
                 min_size=n, max_size=n),
        st.lists(thetas_st, min_size=n, max_size=n),
        st.lists(betas_st, min_size=n, max_size=n)))


@given(columns=columns_st,
       nu_fraction=st.floats(min_value=1e-3, max_value=1.0))
@example(columns=([1.0], [1.0], [0.0]), nu_fraction=0.5)
@example(columns=([0.3], [2.0], [50.0]), nu_fraction=0.01)
@example(columns=([1.0] * 4, [2.0] * 4, [0.0, 1.0, 2.0, 3.0]),
         nu_fraction=0.25)
# The guards: zero capacity gives cap 0, more than the load gives inf.
@example(columns=([0.5, 1.0], [1.0, 3.0], [2.0, 0.0]), nu_fraction=0.0)
@example(columns=([0.5, 1.0], [1.0, 3.0], [2.0, 0.0]), nu_fraction=1.2)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_solve_cap_matches_oracle(columns, nu_fraction):
    profile = ExponentialMaxMinProfile(*(np.asarray(column, dtype=float)
                                         for column in columns))
    check_against_oracle(profile, nu_fraction * profile.unconstrained_load)


@pytest.fixture(scope="module")
def paper_profile() -> ExponentialMaxMinProfile:
    population = paper_population(count=1000)
    return ExponentialMaxMinProfile(population.alphas,
                                    *population.exponential_parameters)


@pytest.mark.parametrize("fraction", [1e-3, 0.01, 0.05, 0.2, 0.5, 0.8, 0.99,
                                      0.999999])
def test_paper_population_matches_oracle(paper_profile, fraction):
    check_against_oracle(paper_profile,
                         fraction * paper_profile.unconstrained_load)


def mixed_family_population(count: int = 60) -> Population:
    """Equation-(3), linear, step and sigmoid demand in turn: max-min over
    it has no sorted-prefix profile."""
    rng = np.random.default_rng(5)
    providers = []
    for index in range(count):
        theta_hat = float(rng.uniform(0.2, 5.0))
        beta = float(rng.uniform(0.0, 5.0))
        demand = (None,
                  LinearDemand(theta_hat, floor=0.2),
                  StepDemand(theta_hat, threshold=0.6, width=0.1),
                  SigmoidDemand(theta_hat, midpoint=0.4, steepness=8.0),
                  )[index % 4]
        providers.append(ContentProvider(
            f"mixed-{index}", alpha=float(rng.uniform(0.1, 1.0)),
            theta_hat=theta_hat, beta=beta if demand is None else 0.0,
            revenue_rate=0.5, utility_rate=1.0, demand=demand))
    return Population(providers)


@pytest.fixture(scope="module",
                params=["proportional", "weighted", "maxmin-mixed",
                        "alpha-fair", "strict-priority"])
def generic_profile(request) -> CommonCapProfile:
    population = paper_population(count=200)
    if request.param == "proportional":
        mechanism: CommonCapAllocation = ProportionalToDemandAllocation()
    elif request.param == "weighted":
        mechanism = WeightedFairAllocation(
            {name: 1.0 + index % 5
             for index, name in enumerate(population.names[::3])})
    elif request.param == "alpha-fair":
        population, mechanism = mixed_family_population(), AlphaFairAllocation()
    elif request.param == "strict-priority":
        mechanism = StrictPriorityAllocation(population.names[::-2])
    else:
        population, mechanism = mixed_family_population(), MaxMinFairAllocation()
    profile = common_cap_profile(population, mechanism)
    assert type(profile) is GenericCapProfile
    return profile


def priority_fills(population, priority_order, cap):
    """Strict priority's fill vector, ranked here by a plain stable sort."""
    position = {name: rank for rank, name in enumerate(priority_order)}
    order = sorted(range(len(population)),
                   key=lambda i: position.get(population.names[i],
                                              len(position)))
    ranks = np.empty(len(population))
    ranks[order] = np.arange(len(population))
    return np.clip(cap - ranks, 0.0, 1.0)


@pytest.mark.parametrize("mechanism", [
    AlphaFairAllocation(alpha=2.0), ProportionalFairAllocation(),
    StrictPriorityAllocation(priority_order=["mixed-7", "mixed-3", "cp-0009",
                                             "mixed-0", "cp-0001"]),
], ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("population", [
    paper_population(count=40), mixed_family_population(count=40),
], ids=["equation3", "mixed-family"])
@given(fraction=st.floats(min_value=1e-9, max_value=1.0))
@example(fraction=1e-9)
@example(fraction=1.0)
@settings(max_examples=40, deadline=None)
def test_closed_form_carried_load_matches_inversion(mechanism, population,
                                                    fraction):
    """The closed-form ``carried_at_cap`` of alpha-fair and strict priority
    equals ``sum_i alpha_i d_i(theta_i) theta_i`` at the throughputs that
    invert ``rho_i`` at the level (the row path), to 1e-9 relative.

    The inversion returns the smallest double ``theta_i`` with ``rho_i >=
    rhos_i``, so the exact load lies between the loads at ``theta`` and at
    the double below it.  Where ``rho_i`` is steep (the smoothed step
    demand at a level near 1e-9 of the largest) those two differ by more
    than 1e-9 (up to 4e-8 seen), and the closed form must lie between them.
    """
    cap = fraction * mechanism.cap_upper_bound(population)
    if isinstance(mechanism, StrictPriorityAllocation):
        rhos = (priority_fills(population, mechanism.priority_order, cap)
                * population.theta_hats)
    else:
        rhos = cap / population.alphas
    thetas = _throughputs_at_rhos(population, rhos)
    below = np.nextafter(thetas, 0.0)
    reference, floor = (
        float(np.sum(population.alphas * population.demands_at(row) * row))
        for row in (thetas, below))
    carried = mechanism.carried_at_cap(population, cap)
    assert floor - 1e-9 * reference <= carried <= reference * (1.0 + 1e-9)
    np.testing.assert_array_equal(mechanism.theta_at_cap(population, cap),
                                  thetas)


@pytest.mark.parametrize("fraction", [1e-15, 1e-9, 1e-3, 0.05, 0.3, 0.7,
                                      0.99, 0.999999])
def test_generic_profiles_match_oracle(generic_profile, fraction):
    check_against_oracle(generic_profile,
                         fraction * generic_profile.unconstrained_load)


def test_guards_spend_no_evaluation(paper_profile):
    load = paper_profile.unconstrained_load
    for nu, expected in ((0.0, 0.0), (-1.0, 0.0), (load, np.inf),
                         (2.0 * load, np.inf)):
        assert counted_solve(paper_profile, nu) == (expected, 0)
    # An empty profile carries nothing and is never congested.
    empty = ExponentialMaxMinProfile(np.zeros(0), np.zeros(0), np.zeros(0))
    assert empty.carried_scalar(1.0) == 0.0
    assert counted_solve(empty, 1.0) == (np.inf, 0)


def test_degenerate_caps_carry_exact_loads():
    profile = ExponentialMaxMinProfile(np.array([1.0, 0.5]),
                                       np.array([1.0, 3.0]),
                                       np.array([2.0, 0.0]))
    weights = profile.surplus_weights(np.array([2.0, 1.0]))
    for cap in (0.0, -1.0):
        assert profile.carried_scalar(cap) == 0.0
        assert profile.carried_and_surplus(cap, weights) == (0.0, 0.0)
    assert profile.carried(np.array([-1.0, 0.0])).tolist() == [0.0, 0.0]
    # A subnormal cap overflows ``theta_hat / cap`` to inf; a ``beta = 0``
    # provider must still carry exactly ``alpha * cap`` (``exp(-0 * inf)``
    # would be NaN) and a ``beta > 0`` one nothing.
    cap = 2.225073858507e-311
    carried = profile.carried_scalar(cap)
    assert math.isfinite(carried)
    assert carried == 0.5 * cap
    fused = profile.carried_and_surplus(cap, weights)
    assert fused[0] == carried and math.isfinite(fused[1])


def test_grid_entries_equal_single_point_solves(paper_profile):
    load = paper_profile.unconstrained_load
    nus = np.array([0.0, 1e-9, 0.05, 0.3, 0.7, 1.0, 1.5]) * load
    grid = paper_profile.solve_caps(nus)
    assert grid.tolist() == [paper_profile.solve_cap(float(nu)) for nu in nus]


def test_threads_sharing_a_profile_match_a_serial_run(paper_profile):
    load = paper_profile.unconstrained_load
    nus = [fraction * load for fraction in np.linspace(0.01, 0.99, 200)]
    serial = [paper_profile.solve_cap(nu) for nu in nus]
    results: dict[int, list[float]] = {}
    start = threading.Barrier(4)

    def work(index: int) -> None:
        start.wait()
        results[index] = [paper_profile.solve_cap(nu) for nu in nus]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(index,))
                   for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert [results[index] for index in range(4)] == [serial] * 4
