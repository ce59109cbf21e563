"""Run loop, parameter sweeps, and algorithm comparisons.

A run is a pure function of its ScenarioConfig: per-UAV Philox streams drive
all randomness, simulated time is steps * dt, and iteration order is fixed,
so repeating a run reproduces positions, metrics, and artifact bytes exactly.

Each step applies two displacement budgets per UAV (optimizer motion, then
collision response, each capped at max_step_size), marks newly covered
hotspots, re-evaluates fitness at the final constrained positions, and
records the step.  Runs stop early once every hotspot is covered.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from .constraints import (
    ConstraintReport,
    _close_pairs,
    clamp_boundary,
    clamp_step,
    potential_field_repulsion,
    resolve_collisions,
    safe_zone_separation,
    settle_within,
)
from .metrics import Heatmap, RunMetrics, biodiversity_metric, merge_heatmaps
from .optimizers import FitnessField, propose_step
from .rng import RandomSource
from .world import (
    Algorithm,
    Hotspot,
    ScenarioConfig,
    SwarmState,
    ValidationError,
    make_swarm,
    mark_coverage,
    params_from_dict,
    parse_algorithm,
    preset_scenario,
    two_cluster_far_indices,
)


@dataclass
class RunResult:
    """A finished run: metrics plus the state needed to audit it."""

    config: ScenarioConfig
    metrics: RunMetrics
    hotspots: list[Hotspot]
    swarm: SwarmState
    trajectories: np.ndarray | None = None
    collision_mask: np.ndarray | None = None
    report: ConstraintReport | None = None


def _min_pairwise(positions: np.ndarray) -> float:
    # math.hypot, not np.hypot: the two round differently on about 0.5% of
    # inputs, and the recorded min_pairwise_series is pinned to math.hypot.
    _, _, delta, _ = _close_pairs(positions, math.inf)
    return min(map(math.hypot, delta[:, 0].tolist(), delta[:, 1].tolist()), default=math.inf)


def run_scenario(config: ScenarioConfig, record_trajectories: bool = False) -> RunResult:
    config.validate()
    cons = config.constraints
    hotspots = [
        Hotspot(position=h.position.copy(), weight=h.weight, covered=False)
        for h in config.hotspots
    ]
    rngs = [RandomSource(seed=config.seed, stream_id=i) for i in range(config.n_uavs)]
    swarm = make_swarm(config)
    is_hybrid = config.algorithm is Algorithm.HYBRID_ABC_LEVY
    is_pso = config.algorithm is Algorithm.PSO

    # UAVs launch from a single point; spread them to the collision radius
    # before anything is recorded.
    start_positions, touched, _ = resolve_collisions(
        swarm.positions(), config.grid, cons.collision_radius
    )
    collision_interventions = int(touched.sum())
    for i, uav in enumerate(swarm.uavs):
        uav.position = start_positions[i]
        if is_pso:
            uav.personal_best = start_positions[i].copy()

    # Fitness is always scored against the uncovered set the move was decided
    # under (evaluate, then mark): the agent that brings a hotspot into
    # coverage range is the one credited for it.
    fitness = FitnessField.from_config(hotspots, config)
    for uav in swarm.uavs:
        value = fitness.value(uav.position)
        uav.fitness = value
        uav.best_fitness = value
        swarm.observe(uav.position, value)
    mark_coverage(swarm, hotspots, cons.coverage_radius)
    fitness = FitnessField.from_config(hotspots, config)

    heatmap = Heatmap.for_grid(config.grid)
    heatmap.record(swarm.positions())
    coverage_curve = [(0, swarm.covered_count)]
    min_pairwise_series = [_min_pairwise(swarm.positions())]
    trajectories = [swarm.positions()] if record_trajectories else None
    collision_masks = []
    report = ConstraintReport(collision_interventions=collision_interventions)
    steps_to_cover = 0 if swarm.covered_count == len(hotspots) else None

    step = 0
    while steps_to_cover is None and step < config.max_steps:
        step += 1
        swarm.step = step
        anchors = swarm.positions()
        proposal = propose_step(swarm, fitness, config, rngs, hotspots)
        report.merge(proposal.report)
        tentative = proposal.positions

        offsets = safe_zone_separation(tentative, cons.safe_zone_radius)
        offsets += potential_field_repulsion(
            tentative, cons.collision_radius, cons.potential_field_gain, cons.max_step_size
        )
        candidate = np.empty_like(tentative)
        for i in range(len(tentative)):
            shove = clamp_step(offsets[i], cons.max_step_size)
            candidate[i] = clamp_boundary(tentative[i] + shove, config.grid)
        final, touched, _ = resolve_collisions(
            candidate,
            config.grid,
            cons.collision_radius,
            anchors=tentative,
            budget=cons.max_step_size,
            revert_to=anchors,
        )
        intervened = touched | np.any(candidate != tentative, axis=1)
        report.collision_interventions += int(intervened.sum())
        collision_masks.append(intervened)
        # The logged displacement must respect the budget exactly, not just up
        # to the rounding of anchor + step; nudge stragglers back by an ulp.
        # (The margin in the hard-separation target dwarfs these nudges, so
        # pairwise distances stay above the collision radius.)
        for i in range(len(final)):
            budget = 2.0 * cons.max_step_size if intervened[i] else cons.max_step_size
            final[i] = settle_within(final[i], anchors[i], budget)

        for i, uav in enumerate(swarm.uavs):
            uav.position = final[i]

        for i, uav in enumerate(swarm.uavs):
            if not proposal.scanning[i]:
                # Mid-flight: the sensor is dark, so no reward is realized and
                # nothing is observed; the last landed fitness stays in force.
                continue
            value = fitness.value(uav.position)
            uav.fitness = value
            swarm.observe(uav.position, value)
            if value > uav.best_fitness:
                uav.best_fitness = value
                uav.stagnation = 0
                if is_pso:
                    uav.personal_best = uav.position.copy()
            elif not proposal.guided[i]:
                uav.stagnation += 1
            if (
                is_hybrid
                and uav.transit_target is None
                and uav.stagnation >= config.params.stagnation_limit
            ):
                grid_extent = np.array([config.grid.width, config.grid.height], dtype=float)
                uav.transit_target = rngs[i].uniform(0.0, 1.0, 2) * grid_extent
                uav.stagnation = 0

        mark_coverage(swarm, hotspots, cons.coverage_radius, scanning=proposal.scanning)
        fitness = FitnessField.from_config(hotspots, config)

        heatmap.record(swarm.positions())
        coverage_curve.append((step, swarm.covered_count))
        min_pairwise_series.append(_min_pairwise(swarm.positions()))
        if record_trajectories:
            trajectories.append(swarm.positions())
        if swarm.covered_count == len(hotspots):
            steps_to_cover = step

    metrics = RunMetrics(
        scenario_id=config.scenario_id,
        algorithm=config.algorithm.value,
        levy_weight=config.params.levy_weight,
        seed=config.seed,
        steps_to_cover=steps_to_cover,
        time_to_cover_s=None if steps_to_cover is None else steps_to_cover * config.dt,
        biodiversity_b=biodiversity_metric(hotspots),
        min_pairwise_distance=min(min_pairwise_series),
        collision_interventions=report.collision_interventions,
        coverage_curve=coverage_curve,
        min_pairwise_series=min_pairwise_series,
        heatmap=heatmap,
        recorded_steps=len(coverage_curve),
        covered_count=swarm.covered_count,
        n_hotspots=len(hotspots),
        zone_escape_events=report.zone_escapes,
    )
    return RunResult(
        config=config,
        metrics=metrics,
        hotspots=hotspots,
        swarm=swarm,
        trajectories=np.array(trajectories) if record_trajectories else None,
        collision_mask=(
            np.array(collision_masks)
            if collision_masks
            else np.zeros((0, config.n_uavs), dtype=bool)
        ),
        report=report,
    )


# --- batch execution ---------------------------------------------------------


def _distinct(name: str, values, minimum: int = 1) -> list:
    """values as a list, rejected unless it has at least minimum entries, all distinct."""
    values = list(values)
    if len(values) < minimum:
        raise ValidationError(f"{name} needs at least {minimum}, got {len(values)}")
    if len(set(values)) != len(values):
        raise ValidationError(f"{name} must be distinct, got {values}")
    return values


def _run_grid(
    preset, algorithms, levy_weights, seeds, max_steps, params, constraints, trajectories, workers
) -> list[RunResult]:
    """Run preset over algorithm x levy_weight x seed, in that order; None keeps params' weight."""
    base, cons = params_from_dict({"params": params, "constraints": constraints})
    configs = [
        preset_scenario(
            preset, seed, algorithm=algorithm, constraints=cons, max_steps=max_steps,
            params=base if weight is None else replace(base, levy_weight=float(weight)),
        )
        for algorithm in algorithms
        for weight in levy_weights
        for seed in seeds
    ]
    if workers <= 1 or len(configs) <= 1:
        return list(map(run_scenario, configs, repeat(trajectories)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_scenario, configs, repeat(trajectories)))


def _censored_steps(runs: list[RunMetrics], max_steps: int) -> list[float]:
    return [float(max_steps if m.steps_to_cover is None else m.steps_to_cover) for m in runs]


def _quantile(ordered: list[float], q: float) -> float:
    """np.percentile's linear q-quantile of sorted values, bit for bit on integers < 2**50.

    np.percentile is not used: its first call imports numpy.ma, about 1 MB."""
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class Aggregate:
    """Aggregate over the runs of one group: one levy_weight or one algorithm.

    Median and IQR are computed over steps-to-cover with uncovered runs
    censored at max_steps, so a group that often fails cannot report a
    flattering median.
    """

    runs: list[RunMetrics]
    median_steps: float
    iqr_steps: float
    success_rate: float
    heatmap: Heatmap

    @classmethod
    def of(cls, results: list[RunResult], max_steps: int, **key):
        runs = [r.metrics for r in results]
        steps = sorted(_censored_steps(runs, max_steps))
        return cls(
            runs=runs,
            median_steps=_quantile(steps, 0.5),
            iqr_steps=_quantile(steps, 0.75) - _quantile(steps, 0.25),
            success_rate=sum(m.covered_all for m in runs) / len(runs),
            heatmap=merge_heatmaps([m.heatmap for m in runs]),
            **key,
        )


@dataclass
class SweepSpec:
    preset: str = "uniform20"
    algorithm: Algorithm = Algorithm.HYBRID_ABC_LEVY
    levy_weights: list[float] = field(default_factory=lambda: [1.5, 2.0, 2.5, 3.0, 5.0])
    seeds: list[int] = field(default_factory=lambda: list(range(20)))
    max_steps: int = 5000
    params: dict = field(default_factory=dict)
    constraints: dict = field(default_factory=dict)
    record_trajectories: bool = False

    def validate(self):
        _distinct("sweep levy_weights", self.levy_weights)
        _distinct("sweep seeds", self.seeds)


@dataclass
class SweepCell(Aggregate):
    """The aggregate over the seeds of one levy_weight value."""

    levy_weight: float


@dataclass
class SweepResult:
    spec: SweepSpec
    cells: list[SweepCell]
    results: list[RunResult]

    def cell_for(self, levy_weight: float) -> SweepCell:
        for cell in self.cells:
            if cell.levy_weight == levy_weight:
                return cell
        raise KeyError(levy_weight)


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    spec.validate()
    results = _run_grid(
        spec.preset, [spec.algorithm], spec.levy_weights, spec.seeds, spec.max_steps,
        spec.params, spec.constraints, spec.record_trajectories, workers,
    )
    n = len(spec.seeds)
    cells = [
        SweepCell.of(results[k * n : (k + 1) * n], spec.max_steps, levy_weight=value)
        for k, value in enumerate(spec.levy_weights)
    ]
    cells.sort(key=lambda c: (c.median_steps, c.levy_weight))
    return SweepResult(spec=spec, cells=cells, results=results)


@dataclass
class CompareRow:
    algorithm: str
    seed: int
    metrics: RunMetrics
    far_covered: int | None = None


@dataclass
class CompareResult:
    preset: str
    rows: list[CompareRow]
    groups: dict[str, Aggregate]
    results: list[RunResult]

    @property
    def success_rates(self) -> dict[str, float]:
        return {name: group.success_rate for name, group in self.groups.items()}

    def median_far_covered(self, algorithm: str) -> float | None:
        """Median far-cluster hotspots covered per run; None off two-cluster presets."""
        far = [r.far_covered for r in self.rows if r.algorithm == algorithm]
        return None if None in far else _quantile(sorted(far), 0.5)


def compare_algorithms(
    algorithms,
    preset: str = "twocluster20",
    seeds=range(20),
    max_steps: int = 5000,
    levy_weight: float | None = None,
    params: dict | None = None,
    constraints: dict | None = None,
    workers: int = 1,
    record_trajectories: bool = False,
) -> CompareResult:
    """Run each algorithm over the same seeded scenarios and tally successes.

    For two-cluster presets each row also reports how many far-cluster
    hotspots that run covered.
    """
    algorithms = _distinct("compare algorithms", map(parse_algorithm, algorithms), minimum=2)
    seeds = _distinct("compare seeds", seeds)
    results = _run_grid(
        preset, algorithms, [levy_weight], seeds, max_steps,
        params or {}, constraints or {}, record_trajectories, workers,
    )
    twocluster = preset.startswith("twocluster")
    far = two_cluster_far_indices(len(results[0].hotspots))
    rows = [
        CompareRow(r.config.algorithm.value, r.config.seed, r.metrics,
                   sum(r.hotspots[k].covered for k in far) if twocluster else None)
        for r in results
    ]
    n = len(seeds)
    groups = {
        algorithm.value: Aggregate.of(results[k * n : (k + 1) * n], max_steps)
        for k, algorithm in enumerate(algorithms)
    }
    return CompareResult(preset=preset, rows=rows, groups=groups, results=results)
