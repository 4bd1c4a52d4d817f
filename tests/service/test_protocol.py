"""Wire-schema tests: strict parsing, population resolution, response shape."""

from __future__ import annotations

import json

import pytest

from repro.config import SolverConfig
from repro.service.protocol import (
    MAX_DETAIL_CELLS,
    MAX_GRID_POINTS,
    MECHANISM_NAMES,
    RequestError,
    build_solve_response,
    error_payload,
    parse_solve_request,
)
from repro.simulation.batch import solve_rate_equilibria
from repro.workloads.populations import DEFAULT_SEED, paper_population

SPEC = {"count": 120, "seed": 11, "utility_model": "beta_correlated"}


def request_payload(**overrides):
    payload = {"population": dict(SPEC), "mechanism": "maxmin",
               "nus": [50.0, 100.0]}
    payload.update(overrides)
    return payload


class TestParseSolveRequest:
    def test_minimal_request_fills_defaults(self):
        request = parse_solve_request({"population": {}, "nus": [10]})
        assert request.mechanism_name == "maxmin"
        assert request.nus == (10.0,)
        assert request.price is None
        assert request.detail is False
        assert len(request.population) == 1000
        expected = paper_population(count=1000, seed=DEFAULT_SEED)
        assert request.population.fingerprint() == expected.fingerprint()
        assert request.config == SolverConfig()

    def test_population_spec_resolves_to_library_population(self):
        request = parse_solve_request(request_payload())
        expected = paper_population(count=120, seed=11)
        assert request.population.fingerprint() == expected.fingerprint()

    def test_population_cached_across_requests(self):
        first = parse_solve_request(request_payload())
        second = parse_solve_request(request_payload())
        assert first.population is second.population

    def test_fingerprint_addresses_resident_population(self):
        first = parse_solve_request(request_payload())
        fingerprint = first.population.fingerprint().hex()
        follow_up = parse_solve_request(
            {"fingerprint": fingerprint, "nus": [25.0]})
        assert follow_up.population is first.population

    def test_unknown_fingerprint_is_404(self):
        with pytest.raises(RequestError) as excinfo:
            parse_solve_request({"fingerprint": "ff" * 16, "nus": [1.0]})
        assert excinfo.value.code == "unknown_fingerprint"
        assert excinfo.value.status == 404

    def test_spec_and_fingerprint_together_rejected(self):
        with pytest.raises(RequestError) as excinfo:
            parse_solve_request(request_payload(fingerprint="ab" * 16))
        assert excinfo.value.code == "bad_request"

    def test_neither_spec_nor_fingerprint_rejected(self):
        with pytest.raises(RequestError):
            parse_solve_request({"nus": [1.0]})

    def test_unknown_request_field_rejected(self):
        with pytest.raises(RequestError) as excinfo:
            parse_solve_request(request_payload(extra=1))
        assert excinfo.value.code == "unknown_field"
        assert "extra" in excinfo.value.message

    def test_unknown_population_field_rejected(self):
        payload = request_payload()
        payload["population"]["sigma"] = 2.0
        with pytest.raises(RequestError) as excinfo:
            parse_solve_request(payload)
        assert excinfo.value.code == "unknown_field"

    @pytest.mark.parametrize("nus", [
        [], "50", [float("nan")], [float("inf")], [-1.0], [True],
        ["50.0"], list(range(MAX_GRID_POINTS + 1)),
    ])
    def test_bad_grids_rejected(self, nus):
        with pytest.raises(RequestError) as excinfo:
            parse_solve_request(request_payload(nus=nus))
        assert excinfo.value.code == "bad_grid"

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(RequestError) as excinfo:
            parse_solve_request(request_payload(mechanism="lottery"))
        assert excinfo.value.code == "bad_mechanism"
        for name in MECHANISM_NAMES:
            assert name in excinfo.value.message

    @pytest.mark.parametrize("price", [float("nan"), -2.0, "1.5", True])
    def test_bad_price_rejected(self, price):
        with pytest.raises(RequestError) as excinfo:
            parse_solve_request(request_payload(price=price))
        assert excinfo.value.code == "bad_price"

    def test_config_overrides_merge_over_defaults(self):
        request = parse_solve_request(request_payload(
            config={"surplus_tolerance": 1e-8}))
        assert request.config.surplus_tolerance == 1e-8
        assert request.config.bisection_tolerance == 1e-13

    def test_bad_config_field_rejected(self):
        # ``backend`` is no longer a config field: the solver has one kernel.
        for config in ({"workers": 4}, {"backend": "reference"}):
            with pytest.raises(RequestError) as excinfo:
                parse_solve_request(request_payload(config=config))
            assert (excinfo.value.code, excinfo.value.status) == (
                "unknown_field", 400)

    def test_invalid_config_value_rejected(self):
        # Decoded from JSON text, as the server does: ``true`` must not pass
        # as 1.0 and ``Infinity`` (accepted by ``json.loads``) must not pass
        # as a tolerance.
        for config in ('{"bisection_tolerance": true}',
                       '{"migration_tolerance": Infinity}',
                       '{"surplus_tolerance": -1e-9}'):
            with pytest.raises(RequestError) as excinfo:
                parse_solve_request(request_payload(config=json.loads(config)))
            assert (excinfo.value.code, excinfo.value.status) == (
                "bad_config", 400)

    @pytest.mark.parametrize("count", [0, -5, True, 2.5, 10**9])
    def test_bad_population_count_rejected(self, count):
        payload = request_payload()
        payload["population"]["count"] = count
        with pytest.raises(RequestError) as excinfo:
            parse_solve_request(payload)
        assert excinfo.value.code == "bad_population"


class TestDetailCellLimit:
    """``detail`` responses are capped at ``MAX_DETAIL_CELLS`` grid cells."""

    @staticmethod
    def grid(points):
        return [10.0 + index for index in range(points)]

    def test_limit_itself_is_admitted(self):
        # 1024 CPs x the 4096-point grid cap is exactly the limit.
        assert 1024 * MAX_GRID_POINTS == MAX_DETAIL_CELLS
        request = parse_solve_request({
            "population": {"count": 1024, "seed": 3},
            "nus": self.grid(MAX_GRID_POINTS), "detail": True})
        assert len(request.nus) * len(request.population) == MAX_DETAIL_CELLS

    def test_one_cell_over_the_limit_is_413(self):
        # 2**22 + 1 = 5 x 838861: the smallest request over the limit.
        count = (MAX_DETAIL_CELLS + 1) // 5
        assert 5 * count == MAX_DETAIL_CELLS + 1
        payload = {"population": {"count": count, "seed": 3},
                   "nus": self.grid(5)}
        assert parse_solve_request(payload).detail is False
        with pytest.raises(RequestError) as excinfo:
            parse_solve_request(dict(payload, detail=True))
        assert excinfo.value.code == "grid_too_large"
        assert excinfo.value.status == 413
        assert str(MAX_DETAIL_CELLS) in excinfo.value.message

    def test_fingerprint_addressed_request_is_checked(self):
        resident = parse_solve_request({
            "population": {"count": 1025, "seed": 3}, "nus": [10.0]})
        fingerprint = resident.population.fingerprint().hex()
        payload = {"fingerprint": fingerprint,
                   "nus": self.grid(MAX_GRID_POINTS)}
        assert parse_solve_request(payload).population is resident.population
        with pytest.raises(RequestError) as excinfo:
            parse_solve_request(dict(payload, detail=True))
        assert excinfo.value.code == "grid_too_large"
        assert excinfo.value.status == 413


class TestBuildSolveResponse:
    def test_response_mirrors_direct_solve(self):
        request = parse_solve_request(request_payload(price=1.5))
        batch = solve_rate_equilibria(request.population, request.nus,
                                      request.mechanism, request.config)
        response = build_solve_response(request, batch, coalesced=True,
                                        batch_size=3)
        assert response["schema"] == 1
        assert response["fingerprint"] == (
            request.population.fingerprint().hex())
        assert response["mechanism"] == "maxmin"
        assert response["nus"] == [50.0, 100.0]
        series = response["series"]
        assert series["aggregate_rates"] == batch.aggregate_rates.tolist()
        assert series["utilizations"] == batch.utilizations.tolist()
        assert series["consumer_surpluses"] == (
            batch.consumer_surpluses().tolist())
        assert series["premium_revenues"] == (
            batch.premium_revenues(1.5).tolist())
        assert response["served"] == {"coalesced": True, "batch_size": 3}
        # Per-provider matrices are opt-in (~200 KB at the paper's scale).
        assert "providers" not in response

    def test_detail_request_ships_per_provider_matrices(self):
        request = parse_solve_request(request_payload(detail=True))
        batch = solve_rate_equilibria(request.population, request.nus,
                                      request.mechanism, request.config)
        response = build_solve_response(request, batch, coalesced=False,
                                        batch_size=1)
        providers = response["providers"]
        assert providers["thetas"] == batch.thetas.tolist()
        assert providers["demands"] == batch.demands.tolist()
        assert providers["per_capita_rates"] == (
            batch.per_capita_rates.tolist())

    def test_non_boolean_detail_rejected(self):
        with pytest.raises(RequestError) as excinfo:
            parse_solve_request(request_payload(detail="yes"))
        assert excinfo.value.code == "bad_request"

    def test_solver_provenance_echoed(self):
        request = parse_solve_request(request_payload())
        batch = solve_rate_equilibria(request.population, request.nus,
                                      request.mechanism, request.config)
        response = build_solve_response(request, batch, coalesced=False,
                                        batch_size=1)
        assert response["solver"] == {
            "cache_key": list(request.config.cache_key())}

    def test_no_premium_series_without_price(self):
        request = parse_solve_request(request_payload())
        batch = solve_rate_equilibria(request.population, request.nus,
                                      request.mechanism, request.config)
        response = build_solve_response(request, batch, coalesced=False,
                                        batch_size=1)
        assert "premium_revenues" not in response["series"]

    def test_response_is_json_serializable(self):
        request = parse_solve_request(request_payload(price=2.0))
        batch = solve_rate_equilibria(request.population, request.nus,
                                      request.mechanism, request.config)
        response = build_solve_response(request, batch, coalesced=False,
                                        batch_size=1)
        round_tripped = json.loads(json.dumps(response, sort_keys=True))
        assert round_tripped == response


def test_error_payload_shape():
    assert error_payload("bad_grid", "boom") == {
        "schema": 1, "error": {"code": "bad_grid", "message": "boom"}}
