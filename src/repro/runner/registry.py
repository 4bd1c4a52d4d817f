"""Declarative registry of every paper reproduction.

Each :class:`ExperimentSpec` describes one experiment: the callable that
produces its :class:`~repro.simulation.results.ExperimentResult`, which
tunable parameters it takes (``count`` / ``seed`` awareness), the findings
the paper's claims are expected to satisfy, and per-scale parameter presets:

``smoke``
    A deliberately tiny configuration (50-CP populations, coarse grids)
    that finishes in milliseconds.  The golden artifacts committed under
    ``tests/runner/golden/smoke/`` pin exactly these runs.
``default``
    The experiment function's own defaults — the paper's 1000-CP workload
    on moderately sized grids (minutes for the full suite).
``paper``
    Denser grids at the paper's workload for publication-quality series.

The registry is the single source of truth shared by the CLI
(``repro-netneutrality list / run / reproduce-all``), the sharded executor
(:mod:`repro.runner.executor`), and the golden-regression tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.config import SolverConfig, resolve_config, use_config
from repro.errors import ModelValidationError
from repro.simulation import experiments
from repro.simulation.results import ExperimentResult

__all__ = ["ExperimentSpec", "SCALES", "EXPERIMENT_SPECS", "get_spec",
           "experiment_ids"]

#: Recognised scale presets, in increasing-cost order.
SCALES: Tuple[str, ...] = ("smoke", "default", "paper")

#: Population size shared by every ``smoke`` preset (matches the committed
#: golden artifacts).
SMOKE_COUNT = 50


def _grid(start: float, stop: float, points: int) -> Tuple[float, ...]:
    """An evenly spaced, float-exact grid (rounded like the module defaults)."""
    if points == 1:
        return (round(float(start), 6),)
    step = (float(stop) - float(start)) / (points - 1)
    return tuple(round(float(start) + step * k, 6) for k in range(points))


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment of the paper's evaluation, declaratively.

    ``scales`` maps a scale name to the keyword overrides applied on top of
    the experiment function's defaults; the ``default`` scale is always the
    empty override.  ``expected_findings`` names boolean findings that must
    be ``True`` at every scale (they hold even on the smoke preset — the
    scale-sensitive claims are pinned by the golden artifacts instead).
    """

    experiment_id: str
    function: Callable[..., ExperimentResult]
    summary: str
    count_aware: bool = True
    seed_aware: bool = True
    scales: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    expected_findings: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        unknown = set(self.scales) - set(SCALES)
        if unknown:
            raise ModelValidationError(
                f"{self.experiment_id}: unknown scales {sorted(unknown)!r}")
        object.__setattr__(
            self, "scales",
            MappingProxyType({name: MappingProxyType(dict(params))
                              for name, params in self.scales.items()}))

    def resolve_params(self, scale: str = "default",
                       count: Optional[int] = None,
                       seed: Optional[int] = None,
                       **overrides: Any) -> Dict[str, Any]:
        """The keyword arguments of one run: scale preset + explicit overrides.

        ``count`` / ``seed`` are accepted only by count/seed-aware
        experiments; passing them to an unaware experiment raises (the CLI
        turns this into a warning instead, see ``ignored_overrides``).
        """
        if scale not in SCALES:
            raise ModelValidationError(
                f"unknown scale {scale!r} (choose from {', '.join(SCALES)})")
        params: Dict[str, Any] = dict(self.scales.get(scale, {}))
        for name, value, aware in (("count", count, self.count_aware),
                                   ("seed", seed, self.seed_aware)):
            if value is None:
                continue
            if not aware:
                raise ModelValidationError(
                    f"{self.experiment_id} does not take a {name!r} "
                    "parameter")
            params[name] = value
        params.update(overrides)
        return params

    def ignored_overrides(self, count: Optional[int] = None,
                          seed: Optional[int] = None) -> List[str]:
        """Which of the generic CLI overrides this experiment would ignore."""
        ignored = []
        if count is not None and not self.count_aware:
            ignored.append("count")
        if seed is not None and not self.seed_aware:
            ignored.append("seed")
        return ignored

    def run(self, scale: str = "default", count: Optional[int] = None,
            seed: Optional[int] = None,
            config: Optional[SolverConfig] = None,
            **overrides: Any) -> ExperimentResult:
        """Execute the experiment at ``scale`` and return its result.

        ``config`` selects the solver tolerances for the whole run:
        it is installed as the ambient :class:`SolverConfig` around the
        experiment function (whose signature never mentions it), and its
        provenance is recorded under ``result.parameters["solver"]`` so
        every artifact names the solver that produced it.
        """
        params = self.resolve_params(scale, count=count, seed=seed,
                                     **overrides)
        solver = resolve_config(config)
        with use_config(solver):
            result = self.function(**params)
        result.parameters["solver"] = solver.provenance()
        return result

    def failed_findings(self, result: ExperimentResult) -> List[str]:
        """Expected findings that are missing or not ``True`` in ``result``."""
        return [name for name in self.expected_findings
                if result.findings.get(name) is not True]


_SMOKE_PRICES = _grid(0.0, 1.0, 9)
_SMOKE_NUS_PRICE = (20.0, 100.0, 200.0)
_SMOKE_CAPACITY_GRID = _grid(20.0, 500.0, 5)
_SMOKE_STRATEGY_KAPPAS = (0.3, 0.9)
_SMOKE_STRATEGY_PRICES = (0.2, 0.8)

_PAPER_PRICES = _grid(0.0, 1.0, 41)
_PAPER_CAPACITY_GRID = _grid(20.0, 500.0, 25)

EXPERIMENT_SPECS: Tuple[ExperimentSpec, ...] = (
    ExperimentSpec(
        experiment_id="FIG2",
        function=experiments.figure2_demand_curves,
        summary="Demand function d_i(omega_i) of Equation (3)",
        count_aware=False, seed_aware=False,
        scales={"smoke": {"betas": (0.1, 1.0, 5.0), "points": 41},
                "paper": {"points": 201}},
        expected_findings=("beta5_halved_by_10pct_drop",
                           "low_beta_insensitive"),
    ),
    ExperimentSpec(
        experiment_id="FIG3",
        function=experiments.figure3_maxmin_throughput,
        summary="Throughput/demand of the three archetype CPs vs capacity",
        count_aware=False, seed_aware=False,
        scales={"smoke": {"capacities": _grid(0.0, 6000.0, 21)},
                "paper": {"capacities": _grid(0.0, 6000.0, 121)}},
        expected_findings=("google_saturates_before_skype_before_netflix",),
    ),
    ExperimentSpec(
        experiment_id="FIG4",
        function=experiments.figure4_monopoly_price,
        summary="Monopoly Psi/Phi vs premium price (kappa=1)",
        scales={"smoke": {"nus": _SMOKE_NUS_PRICE, "prices": _SMOKE_PRICES,
                          "count": SMOKE_COUNT},
                "paper": {"prices": _PAPER_PRICES}},
        expected_findings=("monopoly_misaligned_when_capacity_abundant",
                           "psi_collapses_at_high_c"),
    ),
    ExperimentSpec(
        experiment_id="FIG5",
        function=experiments.figure5_monopoly_capacity,
        summary="Monopoly Psi/Phi vs capacity over a (kappa, c) grid",
        scales={"smoke": {"kappas": _SMOKE_STRATEGY_KAPPAS,
                          "prices": _SMOKE_STRATEGY_PRICES,
                          "nus": _SMOKE_CAPACITY_GRID, "count": SMOKE_COUNT},
                "paper": {"nus": _PAPER_CAPACITY_GRID}},
        expected_findings=("psi_high_kappa_geq_low_kappa_at_large_nu",
                           "phi_low_kappa_geq_high_kappa_at_large_nu"),
    ),
    ExperimentSpec(
        experiment_id="FIG7",
        function=experiments.figure7_duopoly_price,
        summary="Duopoly vs Public Option: share/surplus vs price",
        scales={"smoke": {"nus": _SMOKE_NUS_PRICE, "prices": _SMOKE_PRICES,
                          "count": SMOKE_COUNT},
                "paper": {"prices": _PAPER_PRICES}},
        expected_findings=("share_collapses_after_peak",
                           "phi_stays_positive_at_c1",
                           "psi_drops_to_zero_at_c1"),
    ),
    ExperimentSpec(
        experiment_id="FIG8",
        function=experiments.figure8_duopoly_capacity,
        summary="Duopoly vs Public Option: share/surplus vs capacity",
        scales={"smoke": {"kappas": _SMOKE_STRATEGY_KAPPAS,
                          "prices": _SMOKE_STRATEGY_PRICES,
                          "nus": _SMOKE_CAPACITY_GRID, "count": SMOKE_COUNT},
                "paper": {"nus": _PAPER_CAPACITY_GRID}},
        expected_findings=("strategic_isp_capped_near_half_at_large_nu",),
    ),
    ExperimentSpec(
        experiment_id="FIG9",
        function=experiments.figure9_appendix_monopoly_price,
        summary="Figure 4 with phi independent of beta (appendix)",
        scales={"smoke": {"nus": _SMOKE_NUS_PRICE, "prices": _SMOKE_PRICES,
                          "count": SMOKE_COUNT},
                "paper": {"prices": _PAPER_PRICES}},
        expected_findings=("monopoly_misaligned_when_capacity_abundant",
                           "psi_collapses_at_high_c"),
    ),
    ExperimentSpec(
        experiment_id="FIG10",
        function=experiments.figure10_appendix_monopoly_capacity,
        summary="Figure 5 with phi independent of beta (appendix)",
        scales={"smoke": {"kappas": _SMOKE_STRATEGY_KAPPAS,
                          "prices": _SMOKE_STRATEGY_PRICES,
                          "nus": _SMOKE_CAPACITY_GRID, "count": SMOKE_COUNT},
                "paper": {"nus": _PAPER_CAPACITY_GRID}},
        expected_findings=("psi_high_kappa_geq_low_kappa_at_large_nu",
                           "phi_low_kappa_geq_high_kappa_at_large_nu"),
    ),
    ExperimentSpec(
        experiment_id="FIG11",
        function=experiments.figure11_appendix_duopoly_price,
        summary="Figure 7 with phi independent of beta (appendix)",
        scales={"smoke": {"nus": _SMOKE_NUS_PRICE, "prices": _SMOKE_PRICES,
                          "count": SMOKE_COUNT},
                "paper": {"prices": _PAPER_PRICES}},
        expected_findings=("share_collapses_after_peak",
                           "psi_drops_to_zero_at_c1"),
    ),
    ExperimentSpec(
        experiment_id="FIG12",
        function=experiments.figure12_appendix_duopoly_capacity,
        summary="Figure 8 with phi independent of beta (appendix)",
        scales={"smoke": {"kappas": _SMOKE_STRATEGY_KAPPAS,
                          "prices": _SMOKE_STRATEGY_PRICES,
                          "nus": _SMOKE_CAPACITY_GRID, "count": SMOKE_COUNT},
                "paper": {"nus": _PAPER_CAPACITY_GRID}},
        expected_findings=("strategic_isp_capped_near_half_at_large_nu",),
    ),
    ExperimentSpec(
        experiment_id="THM4",
        function=experiments.theorem4_kappa_dominance,
        summary="Theorem 4: kappa=1 dominates smaller premium shares",
        scales={"smoke": {"nus": (50.0, 300.0), "prices": (0.2, 0.8),
                          "kappas": (0.5, 1.0), "count": SMOKE_COUNT},
                "paper": {"kappas": (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)}},
        expected_findings=("kappa_one_dominates_everywhere",),
    ),
    ExperimentSpec(
        experiment_id="THM5",
        function=experiments.theorem5_public_option_alignment,
        summary="Theorem 5: share-optimal strategy maximises Phi vs Public Option",
        scales={"smoke": {"kappas": (0.5, 1.0), "prices": (0.3, 0.7),
                          "count": SMOKE_COUNT},
                "paper": {"prices": (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
                                     0.8, 0.9)}},
        expected_findings=("theorem5_holds_within_tolerance",),
    ),
    ExperimentSpec(
        experiment_id="LEM4",
        function=experiments.lemma4_proportional_shares,
        summary="Lemma 4: homogeneous strategies give proportional shares",
        scales={"smoke": {"count": SMOKE_COUNT},
                "paper": {"count": 1000}},
        expected_findings=("lemma4_holds",),
    ),
    ExperimentSpec(
        experiment_id="THM6",
        function=experiments.theorem6_alignment,
        summary="Theorem 6: best responses aligned under oligopoly",
        scales={"smoke": {"kappas": (0.5, 1.0), "prices": (0.2, 0.8),
                          "count": SMOKE_COUNT},
                "paper": {"count": 1000}},
        expected_findings=("theorem6_bound_holds",),
    ),
    ExperimentSpec(
        experiment_id="REG",
        function=experiments.regulation_regimes,
        summary="Consumer/ISP surplus under the four regulatory regimes",
        scales={"smoke": {"kappas": (0.5, 1.0), "prices": (0.2, 0.7),
                          "count": SMOKE_COUNT},
                "paper": {"kappas": (0.25, 0.5, 0.75, 1.0),
                          "prices": (0.1, 0.2, 0.3, 0.45, 0.6, 0.7, 0.9)}},
        expected_findings=("paper_ordering_holds",),
    ),
)

_SPECS_BY_ID: Mapping[str, ExperimentSpec] = MappingProxyType(
    {spec.experiment_id: spec for spec in EXPERIMENT_SPECS})


def experiment_ids() -> Tuple[str, ...]:
    """Every registered experiment id, in registry (paper) order."""
    return tuple(spec.experiment_id for spec in EXPERIMENT_SPECS)


def get_spec(experiment_id: str) -> ExperimentSpec:
    """The spec registered under ``experiment_id`` (case-sensitive)."""
    try:
        return _SPECS_BY_ID[experiment_id]
    except KeyError:
        raise ModelValidationError(
            f"unknown experiment {experiment_id!r}; known ids: "
            f"{', '.join(experiment_ids())}") from None
