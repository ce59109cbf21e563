"""Swarm optimizers: coverage fitness, ABC and PSO baselines, Levy-flight hybrid.

Each optimizer computes *tentative* post-motion positions for one step, with
every agent's net motion clamped to ``max_step_size`` about its step-start
position and projected into the grid.  Collision response (soft repulsion and
hard separation) runs afterwards in the harness, on top of these proposals.
Greedy acceptance inside a step therefore compares fitness at candidate
positions before collision response; the fitness an agent carries between
steps is always re-evaluated at its final, fully constrained position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constraints
from .rng import RandomSource, levy_step
from .world import (
    Algorithm, ScenarioConfig, SwarmState, UncoveredHotspots, ValidationError, left_to_right_sum
)


class FitnessField(UncoveredHotspots):
    """Coverage fitness over the currently uncovered hotspots.

    value(x) = sum of weights of uncovered hotspots within coverage_radius of
    x, plus, when epsilon is above 0, a small proximity shaping term
    epsilon * sum_k w_k / (1 + d_k) over the uncovered hotspots, which gives
    hill-climbing acceptance rules a gradient to follow between coverage
    plateaus.  Covered hotspots contribute nothing.  The field is the
    UncoveredHotspots index of the run's hotspots, so cover() updates it.
    """

    __slots__ = ("weights", "coverage_radius", "epsilon", "_xy", "_weight_array",
                 "_all_xy", "_all_weights", "_uncovered")

    def __init__(self, hotspots, coverage_radius, epsilon=0.0):
        super().__init__(hotspots, coverage_radius)
        self.weights = [float(hot.weight) for hot in hotspots]
        self.coverage_radius = float(coverage_radius)
        self.epsilon = float(epsilon)
        if self.epsilon > 0.0:
            self._shaping_operands()

    def _shaping_operands(self):
        # The shaping term sums over every uncovered hotspot, which numpy
        # does faster than a Python loop.  Its operands, which nothing else
        # reads, are the rows the uncovered mask keeps, in id order.
        self._all_xy = np.array([h.position for h in self.hotspots], dtype=float).reshape(-1, 2)
        self._all_weights = np.array(self.weights, dtype=float)
        self._uncovered = np.ones(len(self.weights), dtype=bool)
        self._xy, self._weight_array = self._all_xy, self._all_weights

    def cover(self, ids) -> None:
        ids = list(ids)  # an iterator would be spent by the base class
        super().cover(ids)
        if self.epsilon > 0.0 and ids:
            self._uncovered[np.array(ids, dtype=np.intp)] = False
            self._xy = self._all_xy[self._uncovered]
            self._weight_array = self._all_weights[self._uncovered]

    @classmethod
    def from_config(cls, hotspots, config: ScenarioConfig) -> "FitnessField":
        return cls(hotspots, config.constraints.coverage_radius, config.params.shaping_epsilon)

    def value(self, position, ids=None) -> float:
        """The fitness at position.

        The covered weights are those of ``ids``, the within() query at
        position and coverage_radius, made here unless the caller already
        holds it, and are added left to right; the shaping term, a sum over
        every uncovered hotspot, stays one vectorised np.hypot and np.sum: a
        value, not a comparison with a limit."""
        x, y = float(position[0]), float(position[1])
        if ids is None:
            ids = self.within(x, y, self.coverage_radius)
        weights = self.weights
        # Most positions cover nothing: 0.0, the empty sum.
        total = left_to_right_sum(weights[k] for k in ids) if ids else 0.0
        if self.epsilon > 0.0:
            d = np.hypot(self._xy[:, 0] - x, self._xy[:, 1] - y)
            total += self.epsilon * float(np.sum(self._weight_array / (1.0 + d)))
        return total


def nectar_probabilities(fitnesses) -> list[float]:
    """Selection weights f_i / sum(f), the sum added left to right from 0.0;
    uniform when all are zero."""
    fitnesses = [float(f) for f in fitnesses]
    if not fitnesses:
        raise ValidationError("nectar_probabilities needs at least one fitness value")
    total = 0.0
    for f in fitnesses:
        if f < 0.0:
            raise ValidationError("fitness values must be non-negative")
        total += f
    if total <= 0.0:
        return [1.0 / len(fitnesses)] * len(fitnesses)
    return [f / total for f in fitnesses]


def roulette_pick(src: RandomSource, probabilities) -> int:
    """Sample an index from non-negative probabilities using one uniform draw:
    the first whose running sum exceeds the draw, else the last."""
    u = src.uniform(0.0, 1.0)
    cumulative = 0.0
    for k, p in enumerate(probabilities):
        cumulative += p
        if cumulative > u:
            return k
    return len(probabilities) - 1


def abc_candidate(src: RandomSource, positions, i: int) -> tuple[float, float]:
    """Neighbour-mixing move on (x, y) floats: x_i + phi * (x_i - x_k), phi ~ U(-1,1)^2."""
    x, y = positions[i]
    n = len(positions)
    if n < 2:
        return x, y
    k = src.integers(0, n - 1)
    if k >= i:
        k += 1
    kx, ky = positions[k]
    phi_x, phi_y = src.uniform(-1.0, 1.0), src.uniform(-1.0, 1.0)
    return x + phi_x * (x - kx), y + phi_y * (y - ky)


@dataclass
class StepProposal:
    """Tentative post-motion (x, y) positions plus per-step event bookkeeping."""

    positions: list[tuple[float, float]]
    transit_legs: int = 0
    report: constraints.ConstraintReport = None
    # Agents whose step was goal-directed (a committed relocation leg or a
    # dead-ground escape); the stagnation counter does not tick for them.
    guided: list[bool] = None
    # Agents whose sensor is active this step.  Agents mid-traversal of a
    # committed relocation fly dark and scan only on arrival, so one long
    # flight contributes one sensing sample at its endpoint.  A bool array,
    # not a list: the benchmark's tracer counts dark agents as ~scanning.
    scanning: np.ndarray = None

    def __post_init__(self):
        if self.guided is None:
            self.guided = [False] * len(self.positions)
        if self.scanning is None:
            self.scanning = np.ones(len(self.positions), dtype=bool)
        if self.report is None:
            self.report = constraints.ConstraintReport()


def _constrain_motion(target, anchor, config: ScenarioConfig, report) -> tuple[float, float]:
    """The motion budget about anchor applied to a raw target, both (x, y) floats.

    The step is clamped to max_step_size, projected into the grid and
    settled, with the rounding of the same operations on numpy arrays.
    """
    max_step = config.constraints.max_step_size
    (x, y), (ax, ay) = target, anchor
    rx, ry = x - ax, y - ay
    # clamp_step and settle_within are the identity on what is already within
    # max_step, which most candidates are; they run only on the rest.
    if not math.hypot(rx, ry) <= max_step:
        rx, ry = constraints.clamp_step(rx, ry, max_step)
        # Beyond the limit (or nan), clamp_step always changes the step.
        report.clamped_steps += 1
    ux, uy = ax + rx, ay + ry
    px, py = constraints.clamp_boundary(ux, uy, config.grid)
    # Tuple equality compares the floats with ==, so -0.0 equals 0.0.
    if (px, py) != (ux, uy):
        report.boundary_hits += 1
    if math.hypot(px - ax, py - ay) > max_step:
        return constraints.settle_within(px, py, ax, ay, max_step)
    return px, py


def propose_abc(
    swarm: SwarmState,
    fitness: FitnessField,
    config: ScenarioConfig,
    rngs: list[RandomSource],
    fresh: bool = False,
) -> StepProposal:
    """Employed + onlooker phases with strict greedy acceptance.

    Employed: every agent proposes a neighbour-mixing candidate and accepts it
    only on a strict fitness improvement.  Onlooker: one roulette slot per
    agent reinforces fitness-proportionally chosen agents with further
    candidates under the same acceptance rule.  When fresh, each
    uav.fitness is fitness's value at the agent's position, so the anchors
    are not scored again.
    """
    anchors = [uav.position for uav in swarm.uavs]
    tentative = list(anchors)
    values = [uav.fitness for uav in swarm.uavs] if fresh else [fitness.value(p) for p in anchors]
    report = constraints.ConstraintReport()

    for i in range(len(tentative)):
        raw = abc_candidate(rngs[i], tentative, i)
        candidate = _constrain_motion(raw, anchors[i], config, report)
        candidate_value = fitness.value(candidate)
        if candidate_value > values[i]:
            tentative[i] = candidate
            values[i] = candidate_value

    probs = nectar_probabilities(values)
    for slot in range(len(tentative)):
        s = roulette_pick(rngs[slot], probs)
        raw = abc_candidate(rngs[slot], tentative, s)
        candidate = _constrain_motion(raw, anchors[s], config, report)
        candidate_value = fitness.value(candidate)
        if candidate_value > values[s]:
            tentative[s] = candidate
            values[s] = candidate_value

    return StepProposal(tentative, report=report)


def propose_pso(
    swarm: SwarmState, fitness: FitnessField, config: ScenarioConfig, rngs: list[RandomSource]
) -> StepProposal:
    """Inertial velocity update toward personal and global bests.

    After clamping and containment the stored velocity is rewritten to the
    displacement actually applied, so momentum never accumulates beyond what
    the constraints allow.
    """
    pso = config.params.pso
    gx, gy = swarm.global_best_position
    report = constraints.ConstraintReport()
    tentative = []
    for uav, src in zip(swarm.uavs, rngs):
        r1x, r1y = src.uniform(0.0, 1.0), src.uniform(0.0, 1.0)
        r2x, r2y = src.uniform(0.0, 1.0), src.uniform(0.0, 1.0)
        x, y = anchor = uav.position
        vx, vy = uav.velocity
        bx, by = uav.personal_best
        vx = pso.inertia * vx + pso.cognitive * r1x * (bx - x) + pso.social * r2x * (gx - x)
        vy = pso.inertia * vy + pso.cognitive * r1y * (by - y) + pso.social * r2y * (gy - y)
        nx, ny = _constrain_motion((x + vx, y + vy), anchor, config, report)
        uav.velocity = (nx - x, ny - y)
        tentative.append((nx, ny))
    return StepProposal(tentative, report=report)


def _median(values: list[float]) -> float:
    """np.median of a short list: the middle value, or the mean of the two."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _nearest_better_neighbor(positions, values, i: int) -> int | None:
    """The agent of strictly higher value nearest to agent i by math.hypot's
    length; the lowest index on a tie, None when no agent is better."""
    x, y = positions[i]
    better = [k for k, value in enumerate(values) if value > values[i]]
    return min(
        better,
        key=lambda k: math.hypot(positions[k][0] - x, positions[k][1] - y),
        default=None,
    )


def propose_hybrid(
    swarm: SwarmState,
    fitness: FitnessField,
    config: ScenarioConfig,
    rngs: list[RandomSource],
) -> StepProposal:
    """One motion step of the Levy-flight hybrid, in one pass over the agents.

    Per agent, in order: the scout reset, when no relocation is pending and
    the stagnation count has reached stagnation_limit, commits to a uniformly
    drawn waypoint and restarts the count.  A free agent then makes a
    dead-ground escape (a full-speed move toward the nearest uncovered
    hotspot when none is within the threshold radius), or else a fresh Levy
    flight plus an explore/exploit nudge: agents strictly above the median
    fitness step away from their nearest better neighbour, the rest drift
    toward the global best.  A Levy draw is a flight length, not a teleport:
    a flight whose boundary-clamped destination lies farther than
    max_step_size becomes a committed waypoint, and an agent with a waypoint
    (a long flight or a scout reset) spends the step on a relocation leg.
    Every other agent draws an onlooker Bernoulli (probability = its nectar
    share of current fitness), and a selected agent tries a fresh one-step
    Levy move, kept only under strict greedy acceptance.  All realized
    positions stay within the per-step motion budget about the agent's
    step-start position.

    Agent i draws only from rngs[i] and reads only the step-start anchors,
    values and global best and the field, which nothing covers during a
    proposal.  So one pass per agent gives every stream the same draws, in
    the same order, as one pass per phase over all agents.

    Positions are (x, y) pairs of Python floats: each agent makes a few dozen
    2-vector operations, far cheaper on floats than as numpy calls, with the
    same rounding.
    """
    params, cons, grid = config.params, config.constraints, config.grid
    max_step, threshold = cons.max_step_size, cons.no_hotspot_threshold_radius
    weight, beta = params.levy_weight, params.levy_beta
    explore, exploit = params.explore_coeff, params.exploit_coeff
    limit = params.stagnation_limit
    escape_from, levy = constraints.escape_no_hotspot_zone, levy_step
    uavs = swarm.uavs
    n = len(uavs)
    width, height = float(grid.width), float(grid.height)
    anchors = [uav.position for uav in uavs]
    tentative = list(anchors)
    gx, gy = swarm.global_best_position
    # Balancing and nectar shares key on each agent's last realized fitness
    # (the reward credited for its previous move), not a re-evaluation at the
    # anchor: once a hotspot is marked, standing next to it scores nothing.
    values = [uav.fitness for uav in uavs]
    median_value = _median(values)
    shares = nectar_probabilities(values)
    report = constraints.ConstraintReport()
    transit_legs = 0
    guided = [False] * n
    scanning = [True] * n

    for i, uav in enumerate(uavs):
        src = rngs[i]
        anchor = anchors[i]
        ax, ay = anchor
        target = uav.transit_target
        if target is None and uav.stagnation >= limit:
            target = uav.transit_target = (
                src.uniform(0.0, 1.0) * width, src.uniform(0.0, 1.0) * height
            )
            uav.stagnation = 0
        if target is None:
            escape = escape_from(anchor, fitness, threshold, max_step)
            if escape is not None:
                report.zone_escapes += 1
                guided[i] = True
                tentative[i] = _constrain_motion(
                    (ax + escape[0], ay + escape[1]), anchor, config, report
                )
            else:
                fx, fy = levy(src, weight, beta)
                x, y = ax + fx, ay + fy
                if values[i] > median_value:
                    j = _nearest_better_neighbor(anchors, values, i)
                    if j is not None:
                        jx, jy = anchors[j]
                        x, y = x + exploit * (ax - jx), y + exploit * (ay - jy)
                else:
                    x, y = x + explore * (gx - ax), y + explore * (gy - ay)
                waypoint = constraints.clamp_boundary(x, y, grid)
                if waypoint != (x, y):
                    report.boundary_hits += 1
                if math.hypot(waypoint[0] - ax, waypoint[1] - ay) > max_step:
                    # The flight outruns one step: commit to the waypoint.
                    target = uav.transit_target = waypoint
                else:
                    tentative[i] = waypoint

        if target is not None:
            # A relocation leg: the committed waypoint is approached at full
            # speed with the sensor off, landing exactly (and scanning) once
            # it is within one step.
            transit_legs += 1
            guided[i] = True
            tx, ty = target
            dx, dy = tx - ax, ty - ay
            if math.hypot(dx, dy) <= max_step:
                tentative[i] = (tx, ty)
                uav.transit_target = None
            else:
                scanning[i] = False
                report.clamped_steps += 1
                sx, sy = constraints.clamp_step(dx, dy, max_step)
                tentative[i] = constraints.settle_within(ax + sx, ay + sy, ax, ay, max_step)
            continue

        # Onlooker reinforcement: a Bernoulli gates an extra Levy move, kept
        # only when it improves the fitness of the agent's tentative position
        # under the current uncovered set.
        if src.uniform(0.0, 1.0) >= shares[i]:
            continue
        fx, fy = levy(src, weight, beta)
        x, y = current = tentative[i]
        candidate = _constrain_motion((x + fx, y + fy), anchor, config, report)
        if fitness.value(candidate) > fitness.value(current):
            tentative[i] = candidate

    return StepProposal(tentative, transit_legs, report, guided, np.array(scanning))


def propose_step(
    swarm: SwarmState,
    fitness: FitnessField,
    config: ScenarioConfig,
    rngs: list[RandomSource],
    fresh: bool = False,
) -> StepProposal:
    """The configured algorithm's proposal, the step's one algorithm branch.  Only
    ABC reads fresh: each uav.fitness is then fitness's value where it stands."""
    if config.algorithm is Algorithm.ABC:
        return propose_abc(swarm, fitness, config, rngs, fresh)
    if config.algorithm is Algorithm.PSO:
        return propose_pso(swarm, fitness, config, rngs)
    return propose_hybrid(swarm, fitness, config, rngs)
