"""Micro-batching and coalescing semantics of the scheduler.

The acceptance contract lives here: identical concurrent requests cost one
engine solve, a grid already answered is served again from the retained
outcome without a solve, compatible overlapping grids fuse into one union
solve with exact per-request fan-out, and every served series is
bit-identical to a direct ``solve_rate_equilibria`` call (property-tested;
the per-point secant cap solver treats grid points independently).
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SolverConfig
from repro.network.allocation import (
    MaxMinFairAllocation,
    ProportionalToDemandAllocation,
)
from repro.service import scheduler as scheduler_module
from repro.service.protocol import SolveRequest, build_solve_response
from repro.service.scheduler import MicroBatchScheduler
from repro.simulation import batch as batch_module
from repro.simulation.batch import solve_rate_equilibria
from repro.workloads.populations import paper_population

POPULATION = paper_population(count=60, seed=13)
MAXMIN = MaxMinFairAllocation()
CONFIG = SolverConfig()


def run(coro):
    return asyncio.run(coro)


async def with_scheduler(body, **kwargs):
    scheduler = MicroBatchScheduler(**kwargs)
    try:
        return await body(scheduler)
    finally:
        await scheduler.drain()


def assert_batches_equal(served, direct):
    """Bit-identity: every served array equals the direct solve's exactly."""
    np.testing.assert_array_equal(served.nus, direct.nus)
    np.testing.assert_array_equal(served.thetas, direct.thetas)
    np.testing.assert_array_equal(served.demands, direct.demands)
    np.testing.assert_array_equal(served.per_capita_rates,
                                  direct.per_capita_rates)
    np.testing.assert_array_equal(served.consumer_surpluses(),
                                  direct.consumer_surpluses())


class TestCoalescing:
    def test_identical_concurrent_requests_cost_one_solve(self):
        async def body(scheduler):
            nus = (50.0, 100.0)
            outcomes = await asyncio.gather(*[
                scheduler.solve(POPULATION, nus, MAXMIN, CONFIG)
                for _ in range(10)])
            return outcomes, scheduler.stats()

        outcomes, stats = run(with_scheduler(body, window_seconds=0.01))
        assert stats["engine_solves"] == 1
        assert stats["requests"] == 10
        assert stats["coalesced"] == 9
        assert stats["coalesce_rate"] == pytest.approx(0.9)
        coalesced_flags = sorted(flag for _, _, flag in outcomes)
        assert coalesced_flags == [False] + [True] * 9
        direct = solve_rate_equilibria(POPULATION, (50.0, 100.0), MAXMIN,
                                       CONFIG)
        for batch, batch_size, _ in outcomes:
            assert batch_size == 1  # one pending entry: the leader
            assert_batches_equal(batch, direct)

    def test_different_grids_are_not_coalesced(self):
        async def body(scheduler):
            await asyncio.gather(
                scheduler.solve(POPULATION, (50.0,), MAXMIN, CONFIG),
                scheduler.solve(POPULATION, (60.0,), MAXMIN, CONFIG))
            return scheduler.stats()

        stats = run(with_scheduler(body, window_seconds=0.01))
        assert stats["coalesced"] == 0
        assert stats["engine_solves"] == 1  # fused instead: one union solve


class TestRetainedOutcomes:
    def test_repeated_grid_skips_the_window_and_the_solve(self):
        async def body(scheduler):
            task = asyncio.create_task(
                scheduler.solve(POPULATION, (50.0, 100.0), MAXMIN, CONFIG))
            await asyncio.sleep(0)  # let the request register
            await scheduler.drain()
            first = await task
            # A 30 s window: only a retained hit can answer at once.
            repeat = await asyncio.wait_for(
                scheduler.solve(POPULATION, (50.0, 100.0), MAXMIN, CONFIG),
                timeout=5.0)
            return first, repeat, scheduler.stats()

        (first, size, _), (batch, repeat_size, coalesced), stats = run(
            with_scheduler(body, window_seconds=30.0))
        assert batch is first  # the very object that answered first
        assert (repeat_size, coalesced) == (size, True)
        assert stats["engine_solves"] == 1
        assert stats["coalesced"] == 1
        assert stats["retained_hits"] == 1
        assert stats["retained_points"] == 2

    def test_failed_solve_is_not_retained(self, monkeypatch):
        real = batch_module.warm_equilibrium_cache
        calls = []

        def fail_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise RuntimeError("bisection diverged")
            return real(*args, **kwargs)

        monkeypatch.setattr("repro.service.scheduler.warm_equilibrium_cache",
                            fail_once)

        async def body(scheduler):
            with pytest.raises(RuntimeError):
                await scheduler.solve(POPULATION, (50.0,), MAXMIN, CONFIG)
            assert scheduler.stats()["retained_points"] == 0
            retried = await scheduler.solve(POPULATION, (50.0,), MAXMIN,
                                            CONFIG)
            repeat = await scheduler.solve(POPULATION, (50.0,), MAXMIN,
                                           CONFIG)
            return retried, repeat, scheduler.stats()

        retried, repeat, stats = run(with_scheduler(body,
                                                    window_seconds=0.0))
        assert retried[2] is False and repeat[2] is True
        assert repeat[0] is retried[0]
        assert stats["engine_solves"] == 2
        assert stats["errors"] == 1
        assert stats["retained_hits"] == 1
        assert_batches_equal(retried[0], solve_rate_equilibria(
            POPULATION, (50.0,), MAXMIN, CONFIG))

    def test_points_budget_evicts_least_recently_used_grid(self,
                                                           monkeypatch):
        monkeypatch.setattr(scheduler_module, "RETAINED_POINTS", 4)
        grid_a, grid_b, grid_c = (50.0, 60.0), (70.0, 80.0), (90.0, 95.0)

        async def body(scheduler):
            for grid in (grid_a, grid_b, grid_a, grid_c):
                await scheduler.solve(POPULATION, grid, MAXMIN, CONFIG)
            # a was used after b, so c evicted b, the oldest.
            assert scheduler.stats()["retained_points"] == 4
            hits = scheduler.stats()["retained_hits"]
            for grid in (grid_a, grid_c):
                await scheduler.solve(POPULATION, grid, MAXMIN, CONFIG)
            assert scheduler.stats()["retained_hits"] == hits + 2
            _, _, coalesced = await scheduler.solve(POPULATION, grid_b,
                                                    MAXMIN, CONFIG)
            return coalesced, scheduler.stats()

        coalesced, stats = run(with_scheduler(body, window_seconds=0.0))
        assert coalesced is False
        assert stats["engine_solves"] == 4  # a, b, c, then b again
        assert stats["retained_points"] == 4

    def test_grid_larger_than_the_budget_is_not_retained(self,
                                                         monkeypatch):
        monkeypatch.setattr(scheduler_module, "RETAINED_POINTS", 1)

        async def body(scheduler):
            for _ in range(2):
                await scheduler.solve(POPULATION, (50.0, 60.0), MAXMIN,
                                      CONFIG)
            return scheduler.stats()

        stats = run(with_scheduler(body, window_seconds=0.0))
        assert stats["engine_solves"] == 2
        assert stats["retained_points"] == 0

    def test_other_mechanism_or_config_never_shares_an_outcome(self):
        async def body(scheduler):
            for mechanism, config in (
                    (MAXMIN, CONFIG),
                    (ProportionalToDemandAllocation(), CONFIG),
                    (MAXMIN, SolverConfig(bisection_tolerance=1e-12))):
                _, _, coalesced = await scheduler.solve(
                    POPULATION, (50.0,), mechanism, config)
                assert coalesced is False
            return scheduler.stats()

        stats = run(with_scheduler(body, window_seconds=0.0))
        assert stats["engine_solves"] == 3
        assert stats["coalesced"] == 0
        assert stats["retained_points"] == 3

    def test_naive_mode_never_retains(self):
        async def body(scheduler):
            for _ in range(3):
                await scheduler.solve(POPULATION, (50.0,), MAXMIN, CONFIG)
            return scheduler.stats()

        stats = run(with_scheduler(body, naive=True, window_seconds=0.0))
        assert stats["engine_solves"] == 3
        assert stats["coalesced"] == stats["retained_hits"] == 0
        assert stats["retained_points"] == 0

    def test_buffered_detail_response_memoises_no_matrix(self):
        nus = (50.0, 100.0, 150.0)
        request = SolveRequest(population=POPULATION, mechanism_name="maxmin",
                               mechanism=MAXMIN, nus=nus, price=1.0,
                               detail=True, config=CONFIG)

        async def body(scheduler):
            batch, size, coalesced = await scheduler.solve(
                POPULATION, nus, MAXMIN, CONFIG)
            response = build_solve_response(request, batch,
                                             coalesced=coalesced,
                                             batch_size=size)
            retained, _, _ = await scheduler.solve(POPULATION, nus, MAXMIN,
                                                   CONFIG)
            return batch, retained, response

        batch, retained, response = run(with_scheduler(body,
                                                       window_seconds=0.0))
        assert retained is batch
        memoised = [np.asarray(array) for value in batch._memo.values()
                    for array in (value if isinstance(value, tuple)
                                  else (value,))]
        assert memoised and all(array.ndim == 1 for array in memoised)
        direct = solve_rate_equilibria(POPULATION, nus, MAXMIN, CONFIG)
        assert response["providers"] == {
            "thetas": direct.thetas.tolist(),
            "demands": direct.demands.tolist(),
            "per_capita_rates": direct.per_capita_rates.tolist(),
        }


class TestUnionGridFusion:
    def test_each_client_gets_exactly_its_grid(self):
        grids = [(50.0, 100.0), (100.0, 150.0), (75.0,),
                 (150.0, 50.0, 125.0)]

        async def body(scheduler):
            outcomes = await asyncio.gather(*[
                scheduler.solve(POPULATION, grid, MAXMIN, CONFIG)
                for grid in grids])
            return outcomes, scheduler.stats()

        outcomes, stats = run(with_scheduler(body, window_seconds=0.02))
        assert stats["engine_solves"] == 1
        assert stats["batches"] == 1
        assert stats["fused_requests"] == len(grids)
        assert stats["union_points"] == 5  # |{50, 75, 100, 125, 150}|
        for grid, (batch, batch_size, coalesced) in zip(grids, outcomes):
            assert batch_size == len(grids)
            assert not coalesced
            assert tuple(batch.nus.tolist()) == grid  # request order kept
            assert_batches_equal(
                batch, solve_rate_equilibria(POPULATION, grid, MAXMIN,
                                             CONFIG))

    def test_fanout_rows_do_not_alias_each_other(self):
        async def body(scheduler):
            return await asyncio.gather(
                scheduler.solve(POPULATION, (50.0, 100.0), MAXMIN, CONFIG),
                scheduler.solve(POPULATION, (100.0, 50.0), MAXMIN, CONFIG))

        (first, _, _), (second, _, _) = run(
            with_scheduler(body, window_seconds=0.02))
        assert not np.shares_memory(first.thetas, second.thetas)
        np.testing.assert_array_equal(first.thetas, second.thetas[::-1])

    def test_incompatible_requests_solve_separately(self):
        async def body(scheduler):
            await asyncio.gather(
                scheduler.solve(POPULATION, (50.0,), MAXMIN, CONFIG),
                scheduler.solve(POPULATION, (50.0,),
                                ProportionalToDemandAllocation(), CONFIG),
                scheduler.solve(
                    POPULATION, (50.0,), MAXMIN,
                    SolverConfig(bisection_tolerance=1e-12)))
            return scheduler.stats()

        stats = run(with_scheduler(body, window_seconds=0.02))
        assert stats["engine_solves"] == 3
        assert stats["coalesced"] == 0
        assert stats["fused_requests"] == 0


class TestSolveSlices:
    """A fused union is solved in slices of at most ``SOLVE_SLICE_CELLS``
    grid points x CPs, one ``warm_equilibrium_cache`` call each."""

    @staticmethod
    def record_slices(monkeypatch, cells):
        monkeypatch.setattr(scheduler_module, "SOLVE_SLICE_CELLS", cells)
        real = batch_module.warm_equilibrium_cache
        slices = []

        def recording(population, nus, *args, **kwargs):
            slices.append(list(nus))
            return real(population, nus, *args, **kwargs)

        monkeypatch.setattr(scheduler_module, "warm_equilibrium_cache",
                            recording)
        return slices

    @pytest.mark.parametrize("points_per_slice", [1, 3, 4, 10, 11])
    def test_union_takes_ceil_cells_over_budget_slices(self, monkeypatch,
                                                       points_per_slice):
        cells = points_per_slice * len(POPULATION)
        slices = self.record_slices(monkeypatch, cells)
        grids = [tuple(10.0 * k for k in range(1, 7)),
                 tuple(10.0 * k for k in range(5, 11))]
        union = sorted(set(grids[0]) | set(grids[1]))

        async def body(scheduler):
            outcomes = await asyncio.gather(*[
                scheduler.solve(POPULATION, grid, MAXMIN, CONFIG)
                for grid in grids])
            return outcomes, scheduler.stats()

        outcomes, stats = run(with_scheduler(body, window_seconds=0.02))
        assert len(slices) == -(-len(union) * len(POPULATION) // cells)
        assert all(len(part) <= points_per_slice for part in slices)
        assert [nu for part in slices for nu in part] == union
        assert stats["engine_solves"] == 1
        for grid, (batch, size, _) in zip(grids, outcomes):
            assert size == 2
            assert_batches_equal(batch, solve_rate_equilibria(
                POPULATION, grid, MAXMIN, CONFIG))

    def test_a_slice_holds_at_least_one_point(self, monkeypatch):
        slices = self.record_slices(monkeypatch, len(POPULATION) // 2)
        grid = (20.0, 40.0, 60.0)

        async def body(scheduler):
            return await scheduler.solve(POPULATION, grid, MAXMIN, CONFIG)

        batch, _, _ = run(with_scheduler(body, window_seconds=0.0))
        assert slices == [[nu] for nu in grid]
        assert_batches_equal(batch, solve_rate_equilibria(
            POPULATION, grid, MAXMIN, CONFIG))

    def test_the_loop_turns_between_slices(self, monkeypatch):
        slices = self.record_slices(monkeypatch, len(POPULATION))
        grid = tuple(5.0 * k for k in range(1, 41))

        async def body(scheduler):
            solving = asyncio.create_task(
                scheduler.solve(POPULATION, grid, MAXMIN, CONFIG))
            turns = 0
            while not solving.done():
                turns += 1
                await asyncio.sleep(0)
            return turns, await solving

        turns, (batch, _, _) = run(with_scheduler(body, window_seconds=0.0))
        assert len(slices) == len(grid)
        assert turns >= len(grid)  # the solve never held the loop
        assert_batches_equal(batch, solve_rate_equilibria(
            POPULATION, grid, MAXMIN, CONFIG))


async def turn_loop(times=10):
    """Let every ready callback run ``times`` times over."""
    for _ in range(times):
        await asyncio.sleep(0)


def solve_task(scheduler, nus):
    return asyncio.create_task(
        scheduler.solve(POPULATION, nus, MAXMIN, CONFIG))


class TestWorkConservingFlush:
    """A batch closes as soon as every admitted request waits on it; the
    30 s windows below make any window flush show up as a hang."""

    def test_batch_stays_open_while_an_admitted_request_is_not_waiting(self):
        async def body(scheduler):
            scheduler.admit()
            scheduler.admit()
            first = solve_task(scheduler, (50.0, 100.0))
            await turn_loop()
            still_open = not first.done()
            flushes_before = scheduler.stats()["idle_flushes"]
            second = solve_task(scheduler, (100.0, 150.0))
            outcomes = await asyncio.wait_for(
                asyncio.gather(first, second), timeout=5.0)
            scheduler.release()
            scheduler.release()
            return still_open, flushes_before, outcomes, scheduler.stats()

        still_open, flushes_before, outcomes, stats = run(
            with_scheduler(body, window_seconds=30.0))
        assert still_open and flushes_before == 0
        assert [size for _, size, _ in outcomes] == [2, 2]
        assert stats["batches"] == 1
        assert stats["fused_requests"] == 2
        assert (stats["idle_flushes"], stats["window_flushes"]) == (1, 0)

    def test_releasing_a_request_that_is_not_waiting_flushes(self):
        async def body(scheduler):
            scheduler.admit()
            scheduler.admit()
            task = solve_task(scheduler, (50.0,))
            await turn_loop()
            still_open = not task.done()
            scheduler.release()  # the other request left without a solve
            _, size, _ = await asyncio.wait_for(task, timeout=5.0)
            scheduler.release()
            return still_open, size, scheduler.stats()

        still_open, size, stats = run(
            with_scheduler(body, window_seconds=30.0))
        assert still_open
        assert size == 1
        assert (stats["idle_flushes"], stats["window_flushes"]) == (1, 0)

    def test_a_coalesced_waiter_counts_as_waiting(self):
        async def body(scheduler):
            scheduler.admit()
            scheduler.admit()
            outcomes = await asyncio.wait_for(asyncio.gather(
                solve_task(scheduler, (50.0,)),
                solve_task(scheduler, (50.0,))), timeout=5.0)
            scheduler.release()
            scheduler.release()
            return outcomes, scheduler.stats()

        outcomes, stats = run(with_scheduler(body, window_seconds=30.0))
        assert sorted(flag for _, _, flag in outcomes) == [False, True]
        assert stats["engine_solves"] == 1
        assert stats["idle_flushes"] == 1

    def test_idle_flush_cancels_the_window_timer(self):
        async def body(scheduler):
            scheduler.admit()
            await solve_task(scheduler, (50.0,))
            scheduler.release()
            await asyncio.sleep(0.05)  # well past the 10 ms window
            return scheduler.stats()

        stats = run(with_scheduler(body, window_seconds=0.01))
        assert stats["batches"] == 1
        assert (stats["idle_flushes"], stats["window_flushes"]) == (1, 0)

    def test_window_closes_the_batch_while_a_request_is_not_waiting(self):
        async def body(scheduler):
            scheduler.admit()
            scheduler.admit()  # mid-parse for the whole test
            await solve_task(scheduler, (50.0,))
            scheduler.release()
            scheduler.release()
            return scheduler.stats()

        stats = run(with_scheduler(body, window_seconds=0.01))
        assert (stats["idle_flushes"], stats["window_flushes"]) == (0, 1)

    def test_without_admissions_only_the_window_flushes(self):
        async def body(scheduler):
            await asyncio.gather(solve_task(scheduler, (50.0,)),
                                 solve_task(scheduler, (60.0,)))
            return scheduler.stats()

        stats = run(with_scheduler(body, window_seconds=0.01))
        assert stats["batches"] == 1
        assert (stats["idle_flushes"], stats["window_flushes"]) == (0, 1)


class TestNaiveBaseline:
    def test_naive_mode_never_batches_or_coalesces(self):
        async def body(scheduler):
            outcomes = await asyncio.gather(*[
                scheduler.solve(POPULATION, (50.0, 100.0), MAXMIN, CONFIG)
                for _ in range(6)])
            return outcomes, scheduler.stats()

        outcomes, stats = run(
            with_scheduler(body, naive=True, window_seconds=0.01))
        assert stats["engine_solves"] == 6
        assert stats["coalesced"] == 0
        assert stats["batches"] == 0
        direct = solve_rate_equilibria(POPULATION, (50.0, 100.0), MAXMIN,
                                       CONFIG)
        for batch, batch_size, coalesced in outcomes:
            assert (batch_size, coalesced) == (1, False)
            assert_batches_equal(batch, direct)


class TestFailureAndLifecycle:
    def test_solver_failure_propagates_to_every_waiter(self, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("bisection diverged")

        monkeypatch.setattr("repro.service.scheduler.warm_equilibrium_cache",
                            explode)

        async def body(scheduler):
            results = await asyncio.gather(
                *[scheduler.solve(POPULATION, (50.0,), MAXMIN, CONFIG)
                  for _ in range(4)],
                return_exceptions=True)
            return results, scheduler.stats()

        results, stats = run(with_scheduler(body, window_seconds=0.01))
        assert len(results) == 4
        assert all(isinstance(result, RuntimeError) for result in results)
        assert stats["errors"] == 1  # one failed engine solve, four waiters

    def test_drain_flushes_pending_without_waiting_for_window(self):
        async def body(scheduler):
            task = asyncio.create_task(
                scheduler.solve(POPULATION, (50.0,), MAXMIN, CONFIG))
            await asyncio.sleep(0)  # let the request register
            await scheduler.drain()
            assert task.done()
            return scheduler.stats()

        stats = run(with_scheduler(body, window_seconds=30.0))
        assert stats["engine_solves"] == 1

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            MicroBatchScheduler(-0.001)


@settings(max_examples=15, deadline=None)
@given(
    grids=st.lists(
        st.lists(st.floats(min_value=1.0, max_value=400.0,
                           allow_nan=False, allow_infinity=False),
                 min_size=1, max_size=4, unique=True),
        min_size=1, max_size=4),
    mechanism_index=st.integers(min_value=0, max_value=1),
)
def test_property_served_series_bit_identical_to_direct_solve(
        grids, mechanism_index):
    """Any mix of concurrently fused grids serves bit-identical numbers,
    and repeating the grids serves the very same retained batches."""
    mechanism = (MAXMIN, ProportionalToDemandAllocation())[mechanism_index]
    tuple_grids = [tuple(grid) for grid in grids]

    async def body(scheduler):
        rounds = []
        for _ in range(2):
            rounds.append(await asyncio.gather(*[
                scheduler.solve(POPULATION, grid, mechanism, CONFIG)
                for grid in tuple_grids]))
        return rounds, scheduler.stats()

    (outcomes, repeats), stats = run(with_scheduler(body,
                                                    window_seconds=0.02))
    assert stats["engine_solves"] == 1
    assert stats["retained_hits"] == len(tuple_grids)
    for grid, (batch, size, _), (repeat, repeat_size, coalesced) in zip(
            tuple_grids, outcomes, repeats):
        direct = solve_rate_equilibria(POPULATION, grid, mechanism, CONFIG)
        assert tuple(batch.nus.tolist()) == grid
        assert_batches_equal(batch, direct)
        assert repeat is batch
        assert (repeat_size, coalesced) == (size, True)
