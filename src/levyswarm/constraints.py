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

from .world import GridConfig, UncoveredHotspots, ValidationError, _norm_against

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
    """clamp_step on Python floats, with np.hypot's norm."""
    if not limit > 0.0:
        raise ValidationError(f"max_step_size must be positive, got {limit}")
    if _norm_against(x, y, limit) <= limit:
        return x, y
    scale = limit / float(np.hypot(x, y))
    x, y = x * scale, y * scale
    while _norm_against(x, y, limit) > limit:
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
    return np.array(_settle_xy(x, y, float(anchor[0]), float(anchor[1]), budget))


def _settle_xy(x: float, y: float, ax: float, ay: float, budget: float) -> tuple[float, float]:
    """settle_within on Python floats."""
    guard = 0
    while _norm_against(x - ax, y - ay, budget) > budget:
        x, y = math.nextafter(x, ax), math.nextafter(y, ay)
        guard += 1
        if guard > 1000:
            raise ConstraintError("settle_within failed to converge")
    return x, y


def clamp_boundary(position, grid: GridConfig) -> np.ndarray:
    """Project a position onto the grid box [0, width] x [0, height].

    Componentwise projection onto a box is non-expansive: for any anchor
    inside the box, the projected point is no farther from the anchor than the
    raw point was, so boundary clamping never breaks a step-size budget.
    """
    return np.array(_box(float(position[0]), float(position[1]), grid))


@functools.lru_cache(maxsize=None)
def _pair_list(n: int) -> list[tuple[int, int]]:
    """Every agent pair (i, j) with i < j, in (i, j) order.

    Every pair loop in the step pipeline walks this one list, so the order in
    which per-agent offsets accumulate is fixed here.
    """
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _violating_pairs(pos: list[tuple[float, float]], radius: float) -> list[tuple[int, int]]:
    """The pairs of _pair_list closer than radius, by np.hypot's length."""
    return [
        (i, j)
        for i, j in _pair_list(len(pos))
        if _norm_against(pos[i][0] - pos[j][0], pos[i][1] - pos[j][1], radius) < radius
    ]


def _soft_offsets(positions, radius: float, push) -> list[list[float]]:
    """Per-agent sums of push(dx, dy, d) over the pairs closer than radius.

    (dx, dy) is position i minus position j and d its np.hypot length; agent
    i receives +push, agent j -push.  Walking pairs in (i, j) order, each
    agent meets all its j-side pairs before any of its i-side pairs; every
    rounding of the sums depends on that addition order.
    """
    pos = np.asarray(positions, dtype=float).tolist()
    offsets = [[0.0, 0.0] for _ in pos]
    for i, j in _violating_pairs(pos, radius):
        dx = pos[i][0] - pos[j][0]
        dy = pos[i][1] - pos[j][1]
        px, py = push(dx, dy, float(np.hypot(dx, dy)))
        offsets[i][0] += px
        offsets[i][1] += py
        offsets[j][0] -= px
        offsets[j][1] -= py
    return offsets


def safe_zone_separation(positions: np.ndarray, safe_zone_radius: float) -> np.ndarray:
    """Per-agent offsets pushing pairs closer than safe_zone_radius apart.

    One pass over pairs in (i, j) order: each agent of a violating pair
    receives a push of magnitude safe_zone_radius / 2 along the line joining
    them, away from the partner (symmetric, momentum-free); pushes from
    multiple neighbours accumulate.  A coincident pair falls back to the
    x axis: +x for the lower index, -x for the higher.
    """
    half = 0.5 * safe_zone_radius

    def push(dx, dy, d):
        if d < COINCIDENT_DISTANCE:
            return half, 0.0
        return half * (dx / d), half * (dy / d)

    return np.array(_soft_offsets(positions, safe_zone_radius, push)).reshape(-1, 2)


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
    influence = 2.0 * collision_radius

    def push(dx, dy, d):
        if d < COINCIDENT_DISTANCE:
            d = COINCIDENT_DISTANCE
            ux, uy = 1.0, 0.0
        else:
            ux, uy = dx / d, dy / d
        # Python's float ** goes through libm pow, which rounds differently
        # from d * d on about 0.1% of inputs; the behaviour fingerprint pins
        # the libm rounding.
        magnitude = gain * (1.0 / d - 1.0 / influence) / d**2
        return magnitude * ux, magnitude * uy

    offsets = _soft_offsets(positions, influence, push)
    return np.array([clamp_step(o, max_step_size) for o in offsets]).reshape(-1, 2)


def escape_no_hotspot_zone(
    position,
    field: UncoveredHotspots,
    threshold_radius: float,
    max_step_size: float,
) -> tuple[float, float] | None:
    """Full-speed displacement toward the nearest uncovered hotspot, or None.

    ``field`` holds the uncovered hotspots (a FitnessField).  Fires only when
    none of them lies within threshold_radius of the agent at ``position`` —
    the agent is wandering dead ground — and returns an (x, y) vector of
    magnitude max_step_size aimed at the nearest one.  Returns None when some
    uncovered hotspot is already close, or when every hotspot is covered
    (there is nowhere useful to send the agent).

    The x-window of the threshold settles most calls (within()'s test,
    stopping at the first hit).  Only when the escape fires does it measure
    every hotspot, with one np.hypot over the field's array: a Python loop
    over the hotspots is slower than that at any count.
    """
    x, y, r = float(position[0]), float(position[1]), threshold_radius
    if not field.points:
        return None
    for _, hx, hy in field.window(x, r):
        if -r <= hy - y <= r and _norm_against(hx - x, hy - y, r) <= r:
            return None
    dx = field.xy[:, 0] - x
    dy = field.xy[:, 1] - y
    dists = np.hypot(dx, dy)
    nearest = int(dists.argmin())
    d = float(dists[nearest])
    return float(dx[nearest]) / d * max_step_size, float(dy[nearest]) / d * max_step_size


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
    start = np.array(positions, dtype=float)
    n = len(start)
    # Positions are (x, y) tuples of Python floats: a resolver pass makes
    # thousands of 2-vector operations, each far cheaper on floats than as a
    # numpy call.  The arithmetic and its rounding are those of numpy.
    pos = [tuple(p) for p in start.tolist()]

    def violating() -> list[tuple[int, int]]:
        return _violating_pairs(pos, collision_radius)

    pairs = violating()
    if not pairs:
        return start, np.zeros(n, dtype=bool), 0
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
            if _norm_against(ox, oy, budget) > budget:
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
            revert({k for pair in violating() for k in pair})
        pairs = violating()
    if pairs and revert_to is not None:
        revert(range(n))
        pairs = violating()
    if pairs:
        raise ConstraintError(
            f"collision resolution did not converge in {MAX_RESOLVE_PASSES} iterations"
        )
    return result()
