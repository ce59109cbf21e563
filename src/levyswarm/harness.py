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


def _build_config(job: dict) -> ScenarioConfig:
    params, constraints = params_from_dict(job)
    if job.get("levy_weight") is not None:
        params = replace(params, levy_weight=float(job["levy_weight"]))
    return preset_scenario(
        job["preset"],
        int(job["seed"]),
        algorithm=parse_algorithm(job["algorithm"]),
        params=params,
        constraints=constraints,
        max_steps=int(job["max_steps"]),
    )


def _execute_job(job: dict) -> RunResult:
    return run_scenario(_build_config(job), record_trajectories=job.get("trajectories", False))


def _run_jobs(jobs: list[dict], workers: int) -> list[RunResult]:
    if workers <= 1 or len(jobs) <= 1:
        return [_execute_job(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_execute_job, jobs))


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
        if not self.levy_weights:
            raise ValidationError("sweep needs at least one levy_weight value")
        if not self.seeds:
            raise ValidationError("sweep needs at least one seed")
        if len(set(self.levy_weights)) != len(self.levy_weights):
            raise ValidationError("sweep levy_weights must be distinct")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValidationError("sweep seeds must be distinct")


@dataclass
class SweepCell:
    """Aggregate over the seeds of one levy_weight value.

    Median and IQR are computed over steps-to-cover with uncovered runs
    censored at max_steps, so a value that often fails cannot report a
    flattering median.
    """

    levy_weight: float
    runs: list[RunMetrics]
    median_steps: float
    iqr_steps: float
    success_rate: float
    heatmap: Heatmap


@dataclass
class SweepResult:
    spec: SweepSpec
    cells: list[SweepCell]
    results: list[RunResult] | None = None

    def cell_for(self, levy_weight: float) -> SweepCell:
        for cell in self.cells:
            if cell.levy_weight == levy_weight:
                return cell
        raise KeyError(levy_weight)


def _censored_steps(runs: list[RunMetrics], max_steps: int) -> np.ndarray:
    return np.array(
        [max_steps if m.steps_to_cover is None else m.steps_to_cover for m in runs], dtype=float
    )


def run_sweep(spec: SweepSpec, workers: int = 1, keep_results: bool = False) -> SweepResult:
    spec.validate()
    jobs = [
        {
            "preset": spec.preset,
            "seed": seed,
            "algorithm": spec.algorithm,
            "max_steps": spec.max_steps,
            "levy_weight": value,
            "params": spec.params,
            "constraints": spec.constraints,
            "trajectories": spec.record_trajectories,
        }
        for value in spec.levy_weights
        for seed in spec.seeds
    ]
    results = _run_jobs(jobs, workers)

    cells = []
    n_seeds = len(spec.seeds)
    for idx, value in enumerate(spec.levy_weights):
        block = results[idx * n_seeds : (idx + 1) * n_seeds]
        runs = [r.metrics for r in block]
        steps = _censored_steps(runs, spec.max_steps)
        q25, q75 = np.percentile(steps, [25, 75])
        cells.append(
            SweepCell(
                levy_weight=value,
                runs=runs,
                median_steps=float(np.median(steps)),
                iqr_steps=float(q75 - q25),
                success_rate=sum(m.covered_all for m in runs) / n_seeds,
                heatmap=merge_heatmaps([m.heatmap for m in runs]),
            )
        )
    cells.sort(key=lambda c: (c.median_steps, c.levy_weight))
    return SweepResult(spec=spec, cells=cells, results=results if keep_results else None)


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
    success_rates: dict[str, float]
    results: list[RunResult] | None = None


def compare_algorithms(
    algorithms,
    preset: str = "twocluster20",
    seeds=range(20),
    max_steps: int = 5000,
    levy_weight: float | None = None,
    params: dict | None = None,
    constraints: dict | None = None,
    workers: int = 1,
    keep_results: bool = False,
    record_trajectories: bool = False,
) -> CompareResult:
    """Run each algorithm over the same seeded scenarios and tally successes.

    For two-cluster presets each row also reports how many far-cluster
    hotspots that run covered.
    """
    algorithms = [parse_algorithm(a) for a in algorithms]
    if len(algorithms) < 2:
        raise ValidationError("compare_algorithms needs at least two algorithms")
    if len(set(algorithms)) != len(algorithms):
        raise ValidationError("compare_algorithms got a duplicate algorithm")
    seeds = list(seeds)
    if not seeds:
        raise ValidationError("compare_algorithms needs at least one seed")

    jobs = [
        {
            "preset": preset,
            "seed": seed,
            "algorithm": algorithm,
            "max_steps": max_steps,
            "levy_weight": levy_weight,
            "params": params or {},
            "constraints": constraints or {},
            "trajectories": record_trajectories,
        }
        for algorithm in algorithms
        for seed in seeds
    ]
    results = _run_jobs(jobs, workers)

    far_indices = (
        two_cluster_far_indices(len(results[0].hotspots))
        if preset.startswith("twocluster")
        else None
    )
    rows = []
    for result in results:
        far_covered = None
        if far_indices is not None:
            far_covered = sum(1 for k in far_indices if result.hotspots[k].covered)
        rows.append(
            CompareRow(
                algorithm=result.config.algorithm.value,
                seed=result.config.seed,
                metrics=result.metrics,
                far_covered=far_covered,
            )
        )
    success_rates = {}
    for algorithm in algorithms:
        mine = [row for row in rows if row.algorithm == algorithm.value]
        success_rates[algorithm.value] = sum(r.metrics.covered_all for r in mine) / len(mine)
    return CompareResult(
        preset=preset,
        rows=rows,
        success_rates=success_rates,
        results=results if keep_results else None,
    )
