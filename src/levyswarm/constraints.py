"""Movement constraints: step clamping, boundary containment, collision handling.

The per-step pipeline gives every UAV two displacement budgets of
``max_step_size`` each: one for optimizer motion, one for collision response.
Within a budget, displacement is clamped radially about an anchor point, so a
UAV never travels more than ``max_step_size`` from its pre-phase position and
never more than twice that in a full step.  Hard separation is the one action
allowed to override the budget bookkeeping — pairwise minimum distance is a
zero-tolerance invariant — but it carries a terminal fallback (revert the
offending agents to their feasible step-start positions) that keeps both
guarantees intact simultaneously.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .world import GridConfig, Hotspot, ValidationError

_TINY = 1e-12
# Below this separation a pair counts as coincident and separation directions
# fall back to the x axis (+x for the lower index, -x for the higher).
COINCIDENT_DISTANCE = 1e-9
SEPARATION_MARGIN = 1e-6
MAX_RESOLVE_PASSES = 200


class ConstraintError(RuntimeError):
    """The collision resolver could not restore a feasible configuration."""


@dataclass
class ConstraintReport:
    """Constraint-activity counters, accumulated over a step or a run.

    clamped_steps and boundary_hits count motion constructions (including
    candidate positions later rejected by greedy acceptance) where the clamp
    actually changed something; collision_interventions counts agent-steps the
    collision stage displaced; zone_escapes counts dead-ground redirections.
    """

    clamped_steps: int = 0
    boundary_hits: int = 0
    collision_interventions: int = 0
    zone_escapes: int = 0

    def merge(self, other: "ConstraintReport"):
        self.clamped_steps += other.clamped_steps
        self.boundary_hits += other.boundary_hits
        self.collision_interventions += other.collision_interventions
        self.zone_escapes += other.zone_escapes


def _clamp_xy(x: float, y: float, limit: float) -> tuple[float, float]:
    """clamp_step on Python floats.  Norms use np.hypot: math.hypot rounds
    differently on about 0.2% of inputs."""
    if not limit > 0.0:
        raise ValidationError(f"max_step_size must be positive, got {limit}")
    norm = float(np.hypot(x, y))
    if norm <= limit:
        return x, y
    scale = limit / norm
    x, y = x * scale, y * scale
    while float(np.hypot(x, y)) > limit:
        x, y = math.nextafter(x, 0.0), math.nextafter(y, 0.0)
    return x, y


def _box(x: float, y: float, grid: GridConfig) -> tuple[float, float]:
    """Projection onto [0, width] x [0, height].  0.0 comes first in max() so
    that -0.0 projects to +0.0; max(x, 0.0) would keep -0.0."""
    return min(max(0.0, x), float(grid.width)), min(max(0.0, y), float(grid.height))


def clamp_step(displacement, max_step_size: float) -> np.ndarray:
    """Scale a displacement down to at most max_step_size, preserving direction.

    The reduced vector's Euclidean norm is <= max_step_size exactly, not just
    to rounding: after the rescale, components are nudged toward zero until the
    recomputed norm passes.  Idempotent, and the identity on vectors already
    inside the limit.
    """
    return np.array(_clamp_xy(float(displacement[0]), float(displacement[1]), max_step_size))


def settle_within(position, anchor, budget: float) -> np.ndarray:
    """Nudge a position toward its anchor until ||position - anchor|| <= budget.

    Composing `anchor + clamp_step(...)` rounds once per component, so the
    *measured* displacement of a stored position can exceed the budget by an
    ulp even though the step vector itself was clamped exactly.  This guard
    repairs that: a few nextafter moves toward the anchor (which is inside the
    grid, so containment is preserved) make the recomputed norm pass.  The
    identity for positions already within budget.
    """
    x, y = float(position[0]), float(position[1])
    ax, ay = float(anchor[0]), float(anchor[1])
    guard = 0
    while float(np.hypot(x - ax, y - ay)) > budget:
        x, y = math.nextafter(x, ax), math.nextafter(y, ay)
        guard += 1
        if guard > 1000:
            raise ConstraintError("settle_within failed to converge")
    return np.array([x, y])


def clamp_boundary(position, grid: GridConfig) -> np.ndarray:
    """Project a position onto the grid box [0, width] x [0, height].

    Componentwise projection onto a box is non-expansive: for any anchor
    inside the box, the projected point is no farther from the anchor than the
    raw point was, so boundary clamping never breaks a step-size budget.
    """
    return np.array(_box(float(position[0]), float(position[1]), grid))


@functools.lru_cache(maxsize=None)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(n, 1)


def _close_pairs(positions: np.ndarray, radius: float):
    """Agent pairs closer than radius: (i, j, delta, d), pairs in (i, j) order.

    i < j index arrays, delta = positions[i] - positions[j] and d its
    ``np.hypot`` length.  Every pair loop in the step pipeline walks this one
    list, so the order in which per-agent offsets accumulate is fixed here.
    """
    i, j = _pair_index(len(positions))
    delta = positions[i] - positions[j]
    d = np.hypot(delta[:, 0], delta[:, 1])
    close = d < radius
    return i[close], j[close], delta[close], d[close]


def _accumulate(n: int, i: np.ndarray, j: np.ndarray, push: np.ndarray) -> np.ndarray:
    """Per-agent sums of +push on the i side and -push on the j side.

    Walking pairs in (i, j) order, each agent meets all its j-side pairs
    before any of its i-side pairs; subtracting first keeps that addition
    order per agent, and with it every rounding.
    """
    offsets = np.zeros((n, 2))
    np.subtract.at(offsets, j, push)
    np.add.at(offsets, i, push)
    return offsets


def safe_zone_separation(positions: np.ndarray, safe_zone_radius: float) -> np.ndarray:
    """Per-agent offsets pushing pairs closer than safe_zone_radius apart.

    One pass over pairs in (i, j) order: each agent of a violating pair
    receives a push of magnitude safe_zone_radius / 2 along the line joining
    them, away from the partner (symmetric, momentum-free); pushes from
    multiple neighbours accumulate.  A coincident pair falls back to the
    x axis: +x for the lower index, -x for the higher.
    """
    positions = np.asarray(positions, dtype=float)
    i, j, delta, d = _close_pairs(positions, safe_zone_radius)
    coincident = d < COINCIDENT_DISTANCE
    unit = delta / np.where(coincident, 1.0, d)[:, None]
    unit[coincident] = (1.0, 0.0)
    return _accumulate(len(positions), i, j, 0.5 * safe_zone_radius * unit)


def potential_field_repulsion(
    positions: np.ndarray,
    collision_radius: float,
    gain: float,
    max_step_size: float,
) -> np.ndarray:
    """Repulsive-field offsets for pairs inside twice the collision radius.

    A pair at distance d < R = 2*collision_radius contributes the classic
    repulsive-potential gradient gain*(1/d - 1/R)*(1/d^2) along the joining
    line, equal and opposite on the two agents.  Near-coincident pairs
    (d < 1e-9) use the same x-axis fallback as safe-zone separation with d
    floored at 1e-9.  Each agent's accumulated offset is clamped to
    max_step_size, which also caps that blow-up.
    """
    positions = np.asarray(positions, dtype=float)
    influence = 2.0 * collision_radius
    i, j, delta, d = _close_pairs(positions, influence)
    coincident = d < COINCIDENT_DISTANCE
    d_eff = np.where(coincident, COINCIDENT_DISTANCE, d)
    unit = delta / d_eff[:, None]
    unit[coincident] = (1.0, 0.0)
    # Python's float ** goes through libm pow, which rounds differently from
    # numpy's d * d on about 0.1% of inputs; the behaviour fingerprint pins
    # the libm rounding, so each distance is squared in Python.
    d_squared = np.array([x**2 for x in d_eff.tolist()])
    magnitude = gain * (1.0 / d_eff - 1.0 / influence) / d_squared
    offsets = _accumulate(len(positions), i, j, magnitude[:, None] * unit)
    for k in range(len(offsets)):
        offsets[k] = clamp_step(offsets[k], max_step_size)
    return offsets


def escape_no_hotspot_zone(
    position: np.ndarray,
    hotspots: list[Hotspot],
    threshold_radius: float,
    max_step_size: float,
) -> np.ndarray | None:
    """Full-speed displacement toward the nearest uncovered hotspot, or None.

    Fires only when no uncovered hotspot lies within threshold_radius of the
    agent — the agent is wandering dead ground — and returns a vector of
    magnitude max_step_size aimed at the nearest uncovered hotspot.  Returns
    None when some uncovered hotspot is already close, or when every hotspot
    is covered (there is nowhere useful to send the agent).
    """
    position = np.asarray(position, dtype=float)
    uncovered = [h.position for h in hotspots if not h.covered]
    if not uncovered:
        return None
    deltas = np.asarray(uncovered) - position
    dists = np.hypot(deltas[:, 0], deltas[:, 1])
    nearest = int(np.argmin(dists))
    if dists[nearest] <= threshold_radius:
        return None
    return deltas[nearest] / dists[nearest] * max_step_size


def resolve_collisions(
    positions: np.ndarray,
    grid: GridConfig,
    collision_radius: float,
    anchors: np.ndarray | None = None,
    budget: float | None = None,
    revert_to: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Push agents apart until every pair is at least collision_radius apart.

    Violating pairs are processed in index order, each agent moving half the
    shortfall (plus a small margin) away from its partner, clamped to the grid
    and, when ``anchors``/``budget`` are given, to a displacement budget about
    each agent's anchor.  Wall- or budget-pinned agents route the remaining
    shortfall through their partner.  If the loop stalls — geometry or budgets
    leave no room — agents in violating pairs are reverted to ``revert_to``
    (their feasible step-start positions), cascading until feasible.  Without
    a revert fallback a stall raises ConstraintError.

    Returns (new_positions, touched_mask, pushes_applied).
    """
    def violating(array) -> list[tuple[int, int]]:
        i, j, _, _ = _close_pairs(array, collision_radius)
        return list(zip(i.tolist(), j.tolist()))

    start = np.array(positions, dtype=float)
    n = len(start)
    pairs = violating(start)
    if not pairs:
        return start, np.zeros(n, dtype=bool), 0
    # Positions are (x, y) tuples of Python floats: a resolver pass makes
    # thousands of 2-vector operations, each far cheaper on floats than as a
    # numpy call.  The arithmetic and its rounding are those of numpy.
    pos = [tuple(p) for p in start.tolist()]
    bounded = anchors is not None and budget is not None
    if bounded:
        anchor_xy = np.asarray(anchors, dtype=float).tolist()
    target = collision_radius * (1.0 + SEPARATION_MARGIN)
    touched = [False] * n
    reverted = [False] * n
    pushes = 0

    def separation(i, j):
        dx, dy = pos[i][0] - pos[j][0], pos[i][1] - pos[j][1]
        return dx, dy, float(np.hypot(dx, dy))

    def move(idx, dx, dy):
        nonlocal pushes
        px, py = pos[idx]
        x, y = _box(px + dx, py + dy, grid)
        if bounded:
            ax, ay = anchor_xy[idx]
            ox, oy = x - ax, y - ay
            if float(np.hypot(ox, oy)) > budget:
                ox, oy = _clamp_xy(ox, oy, budget)
                x, y = ax + ox, ay + oy
        if x != px or y != py:
            pos[idx] = (x, y)
            touched[idx] = True
            pushes += 1

    def revert(agents):
        starts = np.asarray(revert_to, dtype=float).tolist()
        for k in agents:
            if not reverted[k]:
                pos[k] = tuple(starts[k])
                reverted[k] = True
                touched[k] = True

    def result():
        return np.array(pos), np.array(touched), pushes

    fallback_cycle = ((1.0, 0.0), (0.0, 1.0))
    for iteration in range(MAX_RESOLVE_PASSES):
        if not pairs:
            return result()
        before = list(pos)
        for i, j in pairs:
            dx, dy, d = separation(i, j)
            if d >= target:
                continue
            if d > _TINY:
                ux, uy = dx / d, dy / d
            else:
                ux, uy = fallback_cycle[iteration % len(fallback_cycle)]
            movers = [
                (k, vx, vy) for k, vx, vy in ((i, ux, uy), (j, -ux, -uy)) if not reverted[k]
            ]
            if not movers:
                continue
            share = (target - d) / len(movers)
            for idx, vx, vy in movers:
                move(idx, vx * share, vy * share)
            # If clamping pinned one side, let the freer partner absorb the rest.
            _, _, d = separation(i, j)
            if d < target and d > _TINY:
                for idx, vx, vy in movers:
                    move(idx, vx * (target - d), vy * (target - d))
                    _, _, d = separation(i, j)
                    if d >= target:
                        break
        if all(
            abs(x - bx) < 1e-15 and abs(y - by) < 1e-15
            for (x, y), (bx, by) in zip(pos, before)
        ):
            # No progress is possible under the current pins; fall back.
            if revert_to is None:
                raise ConstraintError(
                    "cannot separate agents to the collision radius within the "
                    "grid and step budget"
                )
            revert({k for pair in violating(np.array(pos)) for k in pair})
        pairs = violating(np.array(pos))
    if pairs and revert_to is not None:
        revert(range(n))
        pairs = violating(np.array(pos))
    if pairs:
        raise ConstraintError(
            f"collision resolution did not converge in {MAX_RESOLVE_PASSES} iterations"
        )
    return result()
