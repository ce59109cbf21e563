"""Run loop, parameter sweeps, and algorithm comparisons.

A run is a pure function of its ScenarioConfig: per-UAV Philox streams drive
all randomness, simulated time is steps * dt, and iteration order is fixed,
so repeating a run reproduces positions, metrics, and artifact bytes exactly.

Step 0 scores, marks and records the launch positions.  Every later step
applies two displacement budgets per UAV (optimizer motion, then collision
response, each capped at max_step_size), then does the same at the final
constrained positions.  One FitnessField per run owns the coverage: one
query per scanning agent serves both its fitness and the marking, which
drops the newly covered hotspots from the field.  The heatmap bins the
visited positions in bulk, from a buffer flushed every HEATMAP_BATCH
positions and at the end of the run.  Runs stop early once every hotspot
is covered.  The loop has no algorithm branch: every agent keeps the same
memory, and propose_step's proposer reads what its algorithm needs.
"""

from __future__ import annotations

import functools
import math
import os
from array import array
from dataclasses import dataclass, field, replace
from itertools import chain, repeat

import numpy as np

from .constraints import (
    ConstraintReport,
    _violating_pairs,
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
    AlgorithmParams,
    ConstraintParams,
    GridConfig,
    ScenarioConfig,
    SwarmState,
    ValidationError,
    field_value,
    load_section,
    make_swarm,
    mark_coverage,
    parse_algorithm,
    preset_scenario,
    two_cluster_far_indices,
)


# Positions binned into the heatmap at once; the run loop's buffer holds
# fewer than HEATMAP_BATCH + n_uavs of them, 16 bytes each.
HEATMAP_BATCH = 8192


@dataclass
class RunResult:
    """A finished run: metrics plus the state needed to audit it.

    covered[k] says whether the run covered config.hotspots[k]: the run's
    field's flags, since the hotspots themselves hold no run state."""

    config: ScenarioConfig
    metrics: RunMetrics
    covered: list[bool]
    swarm: SwarmState
    trajectories: np.ndarray | None = None
    collision_mask: np.ndarray | None = None


def _collision_stage(
    tentative: list, anchors: list, cons: ConstraintParams, grid: GridConfig
) -> tuple[list, list[bool] | None, float]:
    """Soft repulsion, then hard separation, of one step's tentative (x, y) positions.

    Returns (final (x, y) positions, intervened mask as a list of bools,
    smallest pair distance of final).  Most steps have no pair within reach
    of either soft force (the safe-zone radius, and twice the collision
    radius for the potential field), and skip the stage with no mask
    (None): the hard-separation radius is no larger (validate() keeps
    collision_radius <= safe_zone_radius), and every proposer leaves its
    agents within max_step_size of their anchors, so each part of the stage
    would be the identity.
    """
    reach = max(cons.safe_zone_radius, 2.0 * cons.collision_radius)
    pairs, smallest = _violating_pairs(tentative, reach)
    if not pairs:
        # + 0.0 turns -0.0 into 0.0, as adding the zero shove does.
        return [(x + 0.0, y + 0.0) for x, y in tentative], None, smallest

    step = cons.max_step_size
    safe = safe_zone_separation(pairs, len(tentative), cons.safe_zone_radius)
    field = potential_field_repulsion(
        pairs, len(tentative), cons.collision_radius, cons.potential_field_gain, step
    )
    candidate = []
    for (x, y), (sx, sy), (fx, fy) in zip(tentative, safe, field):
        ox, oy = clamp_step(sx + fx, sy + fy, step)
        candidate.append(clamp_boundary(x + ox, y + oy, grid))
    final, touched, _ = resolve_collisions(
        candidate, grid, cons.collision_radius, anchors=tentative, budget=step, revert_to=anchors
    )
    intervened = [
        t or c != (x, y) for t, c, (x, y) in zip(touched.tolist(), candidate, tentative)
    ]
    # The logged displacement must respect the budget exactly, not just up
    # to the rounding of anchor + step; nudge stragglers back by an ulp.
    # (The margin in the hard-separation target dwarfs these nudges, so
    # pairwise distances stay above the collision radius.)
    for k, ((x, y), (ax, ay)) in enumerate(zip(final, anchors)):
        final[k] = settle_within(x, y, ax, ay, 2.0 * step if intervened[k] else step)
    return final, intervened, _violating_pairs(final, 0.0)[1]


@functools.lru_cache(maxsize=128)
def _launch(start: tuple[str, str], n_uavs: int, grid: GridConfig, collision_radius: str):
    """(positions, agents moved, smallest pair distance) of n_uavs agents spread from start.

    Pure, so a process spreads each geometry once; a spread that raises is
    not cached.  start and collision_radius come as float.hex strings:
    -0.0 == 0.0 with equal hashes, but the two launch to different bytes.
    """
    x, y = map(float.fromhex, start)
    spread, touched, _ = resolve_collisions([(x, y)] * n_uavs, grid, float.fromhex(collision_radius))
    return tuple(spread), int(touched.sum()), _violating_pairs(spread, 0.0)[1]


def run_scenario(config: ScenarioConfig, record_trajectories: bool = False) -> RunResult:
    config.validate()
    cons = config.constraints
    hotspots = config.hotspots
    rngs = [RandomSource(seed=config.seed, stream_id=i) for i in range(config.n_uavs)]
    swarm = make_swarm(config)

    # UAVs launch from a single point, spread to the collision radius before
    # anything is recorded: once per process for each launch geometry.
    uavs = swarm.uavs
    x, y = config.start_position
    start, touched, min_pairwise = _launch(
        (float(x).hex(), float(y).hex()), config.n_uavs, config.grid,
        float(cons.collision_radius).hex(),
    )
    report = ConstraintReport(collision_interventions=touched)

    # Fitness is always scored against the uncovered set the move was decided
    # under (evaluate, then mark): the agent that brings a hotspot into
    # coverage range is the one credited for it.
    radius = cons.coverage_radius
    fitness = FitnessField.from_config(hotspots, config)
    heatmap = Heatmap.for_grid(config.grid)
    # Visited positions, as flat doubles, wait here to be binned in bulk.
    visits = array("d")
    coverage_curve, min_pairwise_series = [], []
    # Recorded frames go into one flat buffer of doubles, 16 bytes an agent-step.
    frames = array("d") if record_trajectories else None
    # (step index, intervened mask) of the steps that ran the collision stage.
    interventions = []

    # Step 0 scores and records the launch positions, every agent scanning.
    final = start
    scanning, guided = [True] * config.n_uavs, [False] * config.n_uavs
    within = fitness.within
    step = 0
    while True:
        # One coverage query per scanning agent serves its fitness and the
        # coverage marking below.
        hits = set()
        for i, uav in enumerate(uavs):
            position = uav.position = final[i]
            if not scanning[i]:
                # Mid-flight: the sensor is dark, so no reward is realized and
                # nothing is observed; the last landed fitness stays in force.
                continue
            ids = within(*position, radius)
            if ids:
                hits.update(ids)
            value = fitness.value(position, ids)
            uav.fitness = value
            if value > swarm.global_best_fitness:
                swarm.global_best_fitness = value
                swarm.global_best_position = (float(position[0]), float(position[1]))
            if value > uav.best_fitness:
                uav.best_fitness = value
                uav.personal_best = position
                uav.stagnation = 0
            elif not guided[i]:
                uav.stagnation += 1
        # Every uav.fitness is the field's value where the agent stands while
        # all agents scanned and the marking covered nothing.
        fresh = not mark_coverage(swarm, fitness, hits) and all(scanning)

        if len(visits) >= 2 * HEATMAP_BATCH:
            heatmap.record(np.frombuffer(visits).reshape(-1, 2))
            del visits[:]
        visits.extend(chain.from_iterable(final))
        coverage_curve.append((step, swarm.covered_count))
        min_pairwise_series.append(min_pairwise)
        if record_trajectories:
            frames.extend(chain.from_iterable(final))
        if swarm.covered_count == len(hotspots) or step == config.max_steps:
            break

        step += 1
        anchors = [uav.position for uav in uavs]
        proposal = propose_step(swarm, fitness, config, rngs, fresh)
        report.merge(proposal.report)
        final, intervened, min_pairwise = _collision_stage(
            proposal.positions, anchors, cons, config.grid
        )
        if intervened is not None:
            report.collision_interventions += sum(intervened)
            interventions.append((step - 1, intervened))
        scanning = proposal.scanning.tolist()
        guided = proposal.guided

    steps_to_cover = step if swarm.covered_count == len(hotspots) else None
    heatmap.record(np.frombuffer(visits).reshape(-1, 2))
    collision_mask = np.zeros((step, config.n_uavs), dtype=bool)
    for k, intervened in interventions:
        collision_mask[k] = intervened
    metrics = RunMetrics(
        scenario_id=config.scenario_id,
        algorithm=config.algorithm.value,
        levy_weight=config.params.levy_weight,
        seed=config.seed,
        steps_to_cover=steps_to_cover,
        time_to_cover_s=None if steps_to_cover is None else steps_to_cover * config.dt,
        biodiversity_b=biodiversity_metric(hotspots, fitness.covered),
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
        covered=fitness.covered,
        swarm=swarm,
        trajectories=(
            np.frombuffer(frames).reshape(-1, config.n_uavs, 2) if record_trajectories else None
        ),
        collision_mask=collision_mask,
    )


# --- batch execution ---------------------------------------------------------


def _distinct(name: str, values, minimum: int = 1) -> list:
    """values as a list, rejected unless it has at least minimum entries, all distinct."""
    values = list(values)
    if len(values) < minimum:
        raise ValidationError(f"{name} needs at least {minimum}, got {len(values)}")
    seen, repeated = set(), {}
    for value in values:
        if value in seen:
            repeated[value] = None
        seen.add(value)
    if repeated:
        # Name a few repeats, not the list: a batch may hold 10 000 seeds.
        shown = [repr(getattr(value, "value", value)) for value in list(repeated)[:3]]
        more = ", ..." if len(repeated) > 3 else ""
        raise ValidationError(
            f"{name} must be distinct, {len(repeated)} repeated: {', '.join(shown)}{more}"
        )
    return values


def _run_grid(
    preset, algorithms, levy_weights, seeds, max_steps, params, constraints, trajectories, workers
) -> list[RunResult]:
    """Run preset over algorithm x levy_weight x seed, in that order; None keeps params' weight.

    A seed list is held to the cap of a seed count; the pool to the CPUs."""
    field_value(len(seeds), "int", "seeds")
    field_value(workers, "int", "workers")
    base = load_section(AlgorithmParams, params, "params")
    cons = load_section(ConstraintParams, constraints, "constraints")
    configs = [
        preset_scenario(
            preset, seed, algorithm=algorithm, constraints=cons, max_steps=max_steps,
            params=base if weight is None else replace(base, levy_weight=float(weight)),
        )
        for algorithm in algorithms
        for weight in levy_weights
        for seed in seeds
    ]
    # A fork pool starts all its workers at the first submit, needed or not.
    size = min(workers, len(configs), os.cpu_count() or 1)
    if size <= 1:
        return list(map(run_scenario, configs, repeat(trajectories)))
    # Imported here: it loads multiprocessing, which a serial run never needs.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=size) as pool:
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
    params: dict | None = None,
    constraints: dict | None = None,
    workers: int = 1,
    record_trajectories: bool = False,
) -> CompareResult:
    """Run each algorithm over the same seeded scenarios and tally successes.

    params sets every run's AlgorithmParams, the flight scale levy_weight
    included.  For two-cluster presets each row also reports how many
    far-cluster hotspots that run covered.
    """
    algorithms = _distinct("compare algorithms", map(parse_algorithm, algorithms), minimum=2)
    seeds = _distinct("compare seeds", seeds)
    results = _run_grid(
        preset, algorithms, [None], seeds, max_steps,
        params or {}, constraints or {}, record_trajectories, workers,
    )
    twocluster = preset.startswith("twocluster")
    far = two_cluster_far_indices(len(results[0].covered))
    rows = [
        CompareRow(r.config.algorithm.value, r.config.seed, r.metrics,
                   sum(r.covered[k] for k in far) if twocluster else None)
        for r in results
    ]
    n = len(seeds)
    groups = {
        algorithm.value: Aggregate.of(results[k * n : (k + 1) * n], max_steps)
        for k, algorithm in enumerate(algorithms)
    }
    return CompareResult(preset=preset, rows=rows, groups=groups, results=results)
