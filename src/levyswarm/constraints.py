"""Movement constraints: step clamping, boundary containment, collision handling.

The per-step pipeline gives every UAV two displacement budgets of
``max_step_size`` each: one for optimizer motion, one for collision response.
Within a budget, displacement is clamped radially about an anchor point, so a
UAV never travels more than ``max_step_size`` from its pre-phase position and
never more than twice that in a full step.  Hard separation is the one action
allowed to override the budget bookkeeping — pairwise minimum distance is a
zero-tolerance invariant — but it carries a terminal fallback (revert the
offending agents to their feasible step-start positions) that keeps both
guarantees intact simultaneously.  Agents pinned in a row on a grid edge,
where pairwise pushes would only halve their shortfall pass by pass, are
spaced along the edge in one least-squares solve instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .world import GridConfig, UncoveredHotspots, ValidationError

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


def clamp_step(x: float, y: float, limit: float) -> tuple[float, float]:
    """The displacement (x, y) scaled down to length at most limit, direction kept.

    The reduced vector's math.hypot length is <= limit exactly, not just to
    rounding: after the rescale, components are nudged toward zero until the
    recomputed norm passes.  Idempotent, and the identity on vectors already
    inside the limit.  A displacement with an infinite or nan component
    raises ValidationError.
    """
    if not limit > 0.0:
        raise ValidationError(f"max_step_size must be positive, got {limit}")
    norm = math.hypot(x, y)
    if norm <= limit:
        return x, y
    if not math.isfinite(norm):
        raise ValidationError(f"displacement must be finite, got ({x}, {y})")
    scale = limit / norm
    x, y = x * scale, y * scale
    while math.hypot(x, y) > limit:
        x, y = math.nextafter(x, 0.0), math.nextafter(y, 0.0)
    return x, y


def clamp_boundary(x: float, y: float, grid: GridConfig) -> tuple[float, float]:
    """The point (x, y) projected onto the grid box [0, width] x [0, height].

    Componentwise projection onto a box is non-expansive: for any anchor
    inside the box, the projected point is no farther from the anchor than the
    raw point was, so boundary clamping never breaks a step-size budget.
    A coordinate that is not above 0.0 (-0.0 and nan too) projects to +0.0.
    The comparisons are those of min(max(0.0, x), width), without the cost of
    two builtin calls.
    """
    width, height = float(grid.width), float(grid.height)
    x = x if x > 0.0 else 0.0
    y = y if y > 0.0 else 0.0
    return (width if x > width else x), (height if y > height else y)


def settle_within(x: float, y: float, ax: float, ay: float, budget: float) -> tuple[float, float]:
    """(x, y) nudged toward the anchor (ax, ay) until its math.hypot distance is <= budget.

    Composing `anchor + clamp_step(...)` rounds once per component, so the
    *measured* displacement of a stored position can exceed the budget by an
    ulp even though the step vector itself was clamped exactly.  This guard
    repairs that: a few nextafter moves toward the anchor (which is inside the
    grid, so containment is preserved) make the recomputed norm pass.  The
    identity for positions already within budget.
    """
    guard = 0
    while math.hypot(x - ax, y - ay) > budget:
        x, y = math.nextafter(x, ax), math.nextafter(y, ay)
        guard += 1
        if guard > 1000:
            raise ConstraintError("settle_within failed to converge")
    return x, y


@functools.lru_cache(maxsize=None)
def _pair_list(n: int) -> list[tuple[int, int]]:
    """Every agent pair (i, j) with i < j, in (i, j) order.

    Every pair loop in the step pipeline walks this one list, so the order in
    which per-agent offsets accumulate is fixed here.
    """
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _violating_pairs(pos: list, radius: float) -> tuple[list, float]:
    """(i, j, dx, dy, d) for each pair of _pair_list closer than radius, in that
    order, and the smallest d of all pairs (inf for one agent).

    (dx, dy) is position i minus position j and d = math.hypot(dx, dy),
    which decides closeness.  At radius 0.0 the walk lists no pair and only
    measures the smallest distance.
    """
    close = []
    smallest = math.inf
    for i, j in _pair_list(len(pos)):
        (xi, yi), (xj, yj) = pos[i], pos[j]
        dx, dy = xi - xj, yi - yj
        d = math.hypot(dx, dy)
        if d < smallest:
            smallest = d
        if d < radius:
            close.append((i, j, dx, dy, d))
    return close, smallest


def _soft_offsets(pairs, n: int, radius: float, push) -> list[tuple[float, float]]:
    """Per-agent sums of push(dx, dy, d) over the listed pairs closer than radius.

    pairs is _violating_pairs over a reach >= radius: d < radius keeps
    exactly the pairs _violating_pairs(positions, radius) would list.  Agent
    i receives +push, agent j -push.  Walking pairs in (i, j) order, each
    agent meets all its j-side pairs before any of its i-side pairs; every
    rounding of the sums depends on that addition order.
    """
    offsets = [[0.0, 0.0] for _ in range(n)]
    for i, j, dx, dy, d in pairs:
        if d < radius:
            px, py = push(dx, dy, d)
            offsets[i][0] += px
            offsets[i][1] += py
            offsets[j][0] -= px
            offsets[j][1] -= py
    return [(x, y) for x, y in offsets]


def safe_zone_separation(pairs, n: int, safe_zone_radius: float) -> list[tuple[float, float]]:
    """Per-agent (x, y) offsets pushing pairs closer than safe_zone_radius apart.

    pairs is _violating_pairs over a reach >= safe_zone_radius, n the agent
    count.  Each agent of a violating pair receives a push of magnitude
    safe_zone_radius / 2 along the line joining them, away from the partner
    (symmetric, momentum-free); pushes from multiple neighbours accumulate.
    A coincident pair falls back to the x axis: +x for the lower index, -x
    for the higher.
    """
    half = 0.5 * safe_zone_radius

    def push(dx, dy, d):
        if d < COINCIDENT_DISTANCE:
            return half, 0.0
        return half * (dx / d), half * (dy / d)

    return _soft_offsets(pairs, n, safe_zone_radius, push)


def potential_field_repulsion(
    pairs, n: int, collision_radius: float, gain: float, max_step_size: float
) -> list[tuple[float, float]]:
    """Repulsive-field (x, y) offsets for pairs inside twice the collision radius.

    pairs is _violating_pairs over a reach >= R = 2*collision_radius.  A pair
    at distance d < R contributes the classic repulsive-potential gradient
    gain*(1/d - 1/R)*(1/d^2) along the joining line, equal and opposite on
    the two agents.  Near-coincident pairs (d < 1e-9) use the same x-axis
    fallback as safe-zone separation with d floored at 1e-9.  Each agent's
    accumulated offset is clamped to max_step_size, which also caps that
    blow-up.
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

    offsets = _soft_offsets(pairs, n, influence, push)
    return [clamp_step(x, y, max_step_size) for x, y in offsets]


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

    One call, field.nearest() with the threshold, answers both questions:
    its outward walk over the x-sorted index gives None on meeting a
    hotspot within the threshold, and otherwise the least math.hypot
    distance, the lowest id on a tie.
    """
    x, y = float(position[0]), float(position[1])
    nearest = field.nearest(x, y, threshold_radius)
    if nearest is None:
        return None
    d, _, hx, hy = nearest
    return (hx - x) / d * max_step_size, (hy - y) / d * max_step_size


def _bounded_isotonic(values: list, lows: list, highs: list) -> list | None:
    """The nondecreasing z nearest values in least squares with lows[k] <= z[k] <= highs[k].

    Pool-adjacent-violators (Barlow et al. 1972; Best & Chakravarti 1990):
    a block's value is its members' mean (math.fsum) clipped to the
    intersection of their bounds, and a block whose value exceeds the next
    one's pools with it.  None when a block's intersection is empty.
    """
    blocks = []  # (values, lo, hi, value) of each pooled block, in order
    for v, lo, hi in zip(values, lows, highs):
        pooled = [v]
        while True:
            if lo > hi:
                return None
            value = min(max(math.fsum(pooled) / len(pooled), lo), hi)
            if not blocks or blocks[-1][3] <= value:
                break
            left, left_lo, left_hi, _ = blocks.pop()
            pooled, lo, hi = left + pooled, max(left_lo, lo), min(left_hi, hi)
        blocks.append((pooled, lo, hi, value))
    return [value for pooled, _, _, value in blocks for _ in pooled]


def _solve_wall_chain(
    pos: list, pairs: list, anchors: list, reverted: list, grid: GridConfig, radius: float,
    budget: float,
) -> list | None:
    """pos with one grid edge's agents spaced radius apart in one step, or None.

    In a row of agents pinned on an edge, each resolver pass only halves the
    shortfall.  The edge is the first of y = 0, y = height, x = 0 and
    x = width on which some pair of ``pairs`` has both agents, and both their
    anchors, exactly on the edge; the members are every agent so placed.
    In order along the edge (ties by index), the member of rank k at
    coordinate s_k may move within [max(0, a - budget), min(side, a + budget)]
    about its anchor's coordinate a, or not at all once reverted.  Gaps of
    target = radius * (1 + SEPARATION_MARGIN) or more are a nondecreasing
    z_k = s_k - k * target, so _bounded_isotonic fits z in the shifted
    intervals, and member k goes to z_k + k * target, clipped into its own
    interval.  A chain that cannot fit in its order along the edge is tried
    once more in the order of its anchors, in which the intervals rise.

    The result counts only when the resolver's own measures pass: one
    _violating_pairs walk lists no pair, and every member is within budget
    of its anchor by math.hypot and inside the grid.  None when no edge
    qualifies, neither order fits or a measure fails.
    """
    width, height = float(grid.width), float(grid.height)
    for across, wall, side in (
        (1, 0.0, width), (1, height, width), (0, 0.0, height), (0, width, height)
    ):
        on = [p[across] == wall and a[across] == wall for p, a in zip(pos, anchors)]
        if any(on[i] and on[j] for i, j, *_ in pairs):
            break
    else:
        return None
    along = 1 - across
    target = radius * (1.0 + SEPARATION_MARGIN)
    on_edge = [k for k, flag in enumerate(on) if flag]
    for key in (pos, anchors):
        members = sorted(on_edge, key=lambda k: (key[k][along], k))
        bounds = [
            (pos[k][along],) * 2 if reverted[k]
            else (max(0.0, anchors[k][along] - budget), min(side, anchors[k][along] + budget))
            for k in members
        ]
        shifts = [rank * target for rank in range(len(members))]
        fit = _bounded_isotonic(
            [pos[k][along] - shift for k, shift in zip(members, shifts)],
            [lo - shift for (lo, _), shift in zip(bounds, shifts)],
            [hi - shift for (_, hi), shift in zip(bounds, shifts)],
        )
        if fit is not None:
            break
    else:
        return None
    candidate = list(pos)
    for k, z, shift, (lo, hi) in zip(members, fit, shifts, bounds):
        c = min(max(z + shift, lo), hi)
        xy = (c, pos[k][1]) if along == 0 else (pos[k][0], c)
        if xy != pos[k]:
            candidate[k] = xy
    if _violating_pairs(candidate, radius)[0]:
        return None
    for k in members:
        (x, y), (ax, ay) = candidate[k], anchors[k]
        if not (math.hypot(x - ax, y - ay) <= budget and 0.0 <= x <= width and 0.0 <= y <= height):
            return None
    return candidate


def resolve_collisions(
    positions,
    grid: GridConfig,
    collision_radius: float,
    anchors=None,
    budget: float | None = None,
    revert_to=None,
) -> tuple[list[tuple[float, float]], np.ndarray, int]:
    """Push agents apart until every pair is at least collision_radius apart.

    positions, anchors and revert_to are sequences of (x, y) pairs.
    Violating pairs are processed in index order, each agent moving half the
    shortfall (plus a small margin) away from its partner, clamped to the grid
    and, when ``anchors``/``budget`` are given, to a displacement budget about
    each agent's anchor.  Wall- or budget-pinned agents route the remaining
    shortfall through their partner.  If the loop stalls — geometry or budgets
    leave no room — agents in violating pairs are reverted to ``revert_to``
    (their feasible step-start positions), cascading until feasible.  Without
    a revert fallback a stall raises ConstraintError.

    In a bounded call (anchors and budget given), a pass that leaves a
    violating pair on one grid edge is followed by _solve_wall_chain, which
    spaces that edge's agents in one step; when its result verifies, the
    call ends there.  Otherwise the passes go on as if it had not run.

    Returns (new positions as a list of (x, y) floats, touched mask as a
    bool array, pushes applied).  Each move of a pass is one push, and the
    solve adds one push per agent it moves.
    """
    # (x, y) tuples of Python floats: a resolver pass makes thousands of
    # 2-vector operations, each far cheaper on floats than as a numpy call.
    # The arithmetic is elementwise, so it rounds as numpy's does.
    pos = [(float(x), float(y)) for x, y in positions]
    n = len(pos)
    pairs, _ = _violating_pairs(pos, collision_radius)
    if not pairs:
        return pos, np.zeros(n, dtype=bool), 0
    bounded = anchors is not None and budget is not None
    if bounded:
        anchor_xy = [(float(x), float(y)) for x, y in anchors]
    width, height = float(grid.width), float(grid.height)
    target = collision_radius * (1.0 + SEPARATION_MARGIN)
    touched = [False] * n
    reverted = [False] * n
    pushes = 0
    # The agents moved in the current pass, each with its position at the
    # start of the pass; a pair's geometry from the last walk is current
    # while neither of its agents is here.
    moved = {}

    def move(idx, dx, dy):
        # clamp_boundary and clamp_step's screen inline: calls cost PSO ~10% of a step.
        nonlocal pushes
        px, py = pos[idx]
        x, y = px + dx, py + dy
        x = 0.0 if not x > 0.0 else width if x > width else x
        y = 0.0 if not y > 0.0 else height if y > height else y
        if bounded:
            ax, ay = anchor_xy[idx]
            ox, oy = x - ax, y - ay
            # clamp_step changes the offset exactly when it exceeds the budget.
            if math.hypot(ox, oy) > budget:
                cx, cy = clamp_step(ox, oy, budget)
                x, y = ax + cx, ay + cy
        if x != px or y != py:
            if idx not in moved:
                moved[idx] = (px, py)
            pos[idx] = (x, y)
            touched[idx] = True
            pushes += 1

    def revert(agents):
        starts = [(float(x), float(y)) for x, y in revert_to]
        for k in agents:
            if not reverted[k]:
                pos[k] = starts[k]
                reverted[k] = True
                touched[k] = True

    fallback_cycle = ((1.0, 0.0), (0.0, 1.0))
    for iteration in range(MAX_RESOLVE_PASSES):
        if not pairs:
            break
        moved.clear()
        for i, j, dx, dy, d in pairs:
            if i in moved or j in moved:
                dx, dy = pos[i][0] - pos[j][0], pos[i][1] - pos[j][1]
                d = math.hypot(dx, dy)
            if d >= target:
                continue
            if d > _TINY:
                ux, uy = dx / d, dy / d
            else:
                ux, uy = fallback_cycle[iteration % len(fallback_cycle)]
            if not (reverted[i] or reverted[j]):
                movers, share = ((i, ux, uy), (j, -ux, -uy)), (target - d) / 2
            elif not reverted[i]:
                movers, share = ((i, ux, uy),), target - d
            elif not reverted[j]:
                movers, share = ((j, -ux, -uy),), target - d
            else:
                continue
            for idx, vx, vy in movers:
                move(idx, vx * share, vy * share)
            # If clamping pinned one side, let the freer partner absorb the rest.
            d = math.hypot(pos[i][0] - pos[j][0], pos[i][1] - pos[j][1])
            if d < target and d > _TINY:
                for idx, vx, vy in movers:
                    move(idx, vx * (target - d), vy * (target - d))
                    d = math.hypot(pos[i][0] - pos[j][0], pos[i][1] - pos[j][1])
                    if d >= target:
                        break
        pairs, _ = _violating_pairs(pos, collision_radius)
        if pairs and bounded:
            solved = _solve_wall_chain(
                pos, pairs, anchor_xy, reverted, grid, collision_radius, budget
            )
            if solved is not None:
                for k, (old, new) in enumerate(zip(pos, solved)):
                    if new != old:
                        touched[k] = True
                        pushes += 1
                return solved, np.array(touched, dtype=bool), pushes
        # Agents not in moved kept their positions exactly.
        for k, (bx, by) in moved.items():
            x, y = pos[k]
            if not (abs(x - bx) < 1e-15 and abs(y - by) < 1e-15):
                break
        else:
            # No progress is possible under the current pins; fall back.
            if revert_to is None:
                raise ConstraintError(
                    "cannot separate agents to the collision radius within the "
                    "grid and step budget"
                )
            revert({k for i, j, *_ in pairs for k in (i, j)})
            pairs, _ = _violating_pairs(pos, collision_radius)
    if pairs and revert_to is not None:
        revert(range(n))
        pairs, _ = _violating_pairs(pos, collision_radius)
    if pairs:
        raise ConstraintError(
            f"collision resolution did not converge in {MAX_RESOLVE_PASSES} iterations"
        )
    return pos, np.array(touched, dtype=bool), pushes
