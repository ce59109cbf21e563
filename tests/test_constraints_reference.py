"""The float motion primitives against their numpy reference implementations.

``resolve_collisions``, ``clamp_step``, ``settle_within``,
``clamp_boundary`` and the two soft forces take and return Python floats.
The functions below are the earlier numpy implementations, kept as
references with one change: every length is math.hypot's, the simulator's
one norm, where they took np.hypot's (the two round apart on a few inputs in
a thousand).  Every result must match them bit for bit (position and offset
bytes including the sign of zero, the touched mask and the push count), or
both must raise the same exception type.  The references know nothing of
the wall-chain solve (``constraints._solve_wall_chain``), so a resolver call
that the solve ends is held to the resolver's invariants instead, and
``test_wall_chain`` checks the solve's result against a reference of its
own.  The soft forces are given the pair geometry of ``_violating_pairs``
over the collision stage's reach.  The invariants the resolver and the soft
forces promise are tested on the same inputs.
"""

from __future__ import annotations

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from levyswarm import constraints, harness
from levyswarm.constraints import (
    COINCIDENT_DISTANCE,
    ConstraintError,
    _violating_pairs,
    clamp_boundary,
    clamp_step,
    potential_field_repulsion,
    resolve_collisions,
    safe_zone_separation,
    settle_within,
)
from levyswarm.world import GridConfig, ValidationError, preset_scenario

# --- references: the numpy implementations ----------------------------------

_TINY = 1e-12
# math.hypot over arrays of components.
math_hypot = np.vectorize(math.hypot, otypes=[float])


def ref_clamp_step(displacement, max_step_size: float) -> np.ndarray:
    if not max_step_size > 0.0:
        raise ValidationError(f"max_step_size must be positive, got {max_step_size}")
    d = np.array(displacement, dtype=float)
    norm = math.hypot(d[0], d[1])
    if norm <= max_step_size:
        return d
    scaled = d * (max_step_size / norm)
    while math.hypot(scaled[0], scaled[1]) > max_step_size:
        scaled = np.nextafter(scaled, 0.0)
    return scaled


def ref_settle_within(position, anchor, budget: float) -> np.ndarray:
    p = np.array(position, dtype=float)
    a = np.asarray(anchor, dtype=float)
    guard = 0
    while math.hypot(p[0] - a[0], p[1] - a[1]) > budget:
        p = np.nextafter(p, a)
        guard += 1
        if guard > 1000:
            raise ConstraintError("settle_within failed to converge")
    return p


def ref_clamp_boundary(position, grid: GridConfig) -> np.ndarray:
    p = np.array(position, dtype=float)
    return np.clip(p, 0.0, [float(grid.width), float(grid.height)])


def _ref_close_pairs(positions: np.ndarray, radius: float):
    i, j = np.triu_indices(len(positions), 1)
    delta = positions[i] - positions[j]
    d = math_hypot(delta[:, 0], delta[:, 1])
    close = d < radius
    return i[close], j[close], delta[close], d[close]


def _ref_accumulate(n, i, j, push):
    offsets = np.zeros((n, 2))
    np.subtract.at(offsets, j, push)
    np.add.at(offsets, i, push)
    return offsets


def ref_safe_zone_separation(positions, safe_zone_radius):
    positions = np.asarray(positions, dtype=float)
    i, j, delta, d = _ref_close_pairs(positions, safe_zone_radius)
    coincident = d < COINCIDENT_DISTANCE
    unit = delta / np.where(coincident, 1.0, d)[:, None]
    unit[coincident] = (1.0, 0.0)
    return _ref_accumulate(len(positions), i, j, 0.5 * safe_zone_radius * unit)


def ref_potential_field_repulsion(positions, collision_radius, gain, max_step_size):
    positions = np.asarray(positions, dtype=float)
    influence = 2.0 * collision_radius
    i, j, delta, d = _ref_close_pairs(positions, influence)
    coincident = d < COINCIDENT_DISTANCE
    d_eff = np.where(coincident, COINCIDENT_DISTANCE, d)
    unit = delta / d_eff[:, None]
    unit[coincident] = (1.0, 0.0)
    d_squared = np.array([x**2 for x in d_eff.tolist()])
    magnitude = gain * (1.0 / d_eff - 1.0 / influence) / d_squared
    offsets = _ref_accumulate(len(positions), i, j, magnitude[:, None] * unit)
    for k in range(len(offsets)):
        offsets[k] = ref_clamp_step(offsets[k], max_step_size)
    return offsets


def ref_resolve_collisions(
    positions,
    grid,
    collision_radius,
    anchors=None,
    budget=None,
    revert_to=None,
    margin=1e-6,
    max_iter=200,
    settle=True,
):
    # settle=False returns the state after max_iter passes as it stands.
    pos = np.array(positions, dtype=float)
    n = len(pos)
    target = collision_radius * (1.0 + margin)
    touched = np.zeros(n, dtype=bool)
    reverted = np.zeros(n, dtype=bool)
    pushes = 0

    def violating():
        i, j, _, _ = _ref_close_pairs(pos, collision_radius)
        return list(zip(i.tolist(), j.tolist()))

    def separation(i, j):
        delta = pos[i] - pos[j]
        return delta, math.hypot(delta[0], delta[1])

    def move(idx, point):
        nonlocal pushes
        point = ref_clamp_boundary(point, grid)
        if anchors is not None and budget is not None:
            offset = point - anchors[idx]
            if math.hypot(offset[0], offset[1]) > budget:
                point = anchors[idx] + ref_clamp_step(offset, budget)
        if not np.array_equal(point, pos[idx]):
            pos[idx] = point
            touched[idx] = True
            pushes += 1

    def revert(agents):
        agents = agents & ~reverted
        pos[agents] = np.asarray(revert_to, dtype=float)[agents]
        reverted[agents] = True
        touched[agents] = True

    fallback_cycle = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    for iteration in range(max_iter):
        pairs = violating()
        if not pairs:
            return pos, touched, pushes
        before = pos.copy()
        for i, j in pairs:
            delta, d = separation(i, j)
            if d >= target:
                continue
            if d > _TINY:
                unit = delta / d
            else:
                unit = fallback_cycle[iteration % len(fallback_cycle)]
            movers = [(k, u) for k, u in ((i, unit), (j, -unit)) if not reverted[k]]
            if not movers:
                continue
            share = (target - d) / len(movers)
            for idx, direction in movers:
                move(idx, pos[idx] + direction * share)
            _, d = separation(i, j)
            if d < target and d > _TINY:
                for idx, direction in movers:
                    move(idx, pos[idx] + direction * (target - d))
                    _, d = separation(i, j)
                    if d >= target:
                        break
        if np.max(np.abs(pos - before)) < 1e-15:
            if revert_to is None:
                raise ConstraintError("stall")
            revert(np.isin(np.arange(n), violating()))
    if not settle:
        return pos, touched, pushes
    if violating() and revert_to is not None:
        revert(np.ones(n, dtype=bool))
    if violating():
        raise ConstraintError("no convergence")
    return pos, touched, pushes


# --- comparison ---------------------------------------------------------------


def float_bytes(points) -> bytes:
    """The float64 bytes of a point or of a sequence of points, array or floats."""
    return np.array(points, dtype=float).tobytes()


def outcome(fn, *args, **kwargs):
    """A comparable record of fn's result: raw bytes, or the exception type."""
    try:
        result = fn(*args, **kwargs)
    except (ValidationError, ConstraintError) as exc:
        return type(exc)
    if fn in (resolve_collisions, ref_resolve_collisions):
        positions, touched, pushes = result
        return float_bytes(positions), touched.dtype, touched.tobytes(), int(pushes)
    return float_bytes(result)


def as_lists(value):
    """An (n, 2) array as a list of [x, y] floats; None stays None."""
    return None if value is None else value.tolist()


@contextlib.contextmanager
def watched_solve():
    """Record each call of constraints._solve_wall_chain while the block runs.

    Yields a list that gains (positions after the pass, reverted flags,
    result) per call; a resolver call ended in the solve when its last
    record's result is not None.
    """
    records = []
    solve = constraints._solve_wall_chain

    def watched(pos, pairs, anchors, reverted, *args):
        out = solve(pos, pairs, anchors, reverted, *args)
        records.append((list(pos), list(reverted), out))
        return out

    with mock.patch.object(constraints, "_solve_wall_chain", watched):
        yield records


def ended_in_solve(records) -> bool:
    return bool(records) and records[-1][2] is not None


def assert_solve_ended(records, got, anchors, budget):
    """got, an outcome() of resolve_collisions, is the last solve's result,
    and every agent the solve moved is within budget of its anchor by
    math.hypot, exactly."""
    before, _, solved = records[-1]
    assert got[0] == float_bytes(solved)
    for (x, y), (ax, ay), old in zip(solved, anchors, before):
        if (x, y) != old:
            assert math.hypot(x - ax, y - ay) <= budget


def assert_resolved(positions, grid, radius, revert_to, **kwargs):
    """resolve_collisions' promise, when it returns: no pair closer than the
    radius by math.hypot, every agent it did not touch where it was, and
    every agent inside the grid unless a fallback start lies outside it."""
    try:
        out, touched, _ = resolve_collisions(positions, grid, radius, revert_to=revert_to, **kwargs)
    except ConstraintError:
        return
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            assert math.hypot(out[i][0] - out[j][0], out[i][1] - out[j][1]) >= radius
    for (x, y), start, moved in zip(out, positions, touched.tolist()):
        if not moved:
            assert float_bytes((x, y)) == float_bytes(start)
    if revert_to is None or all(grid.contains(p) for p in revert_to):
        assert all(grid.contains(p) for p in out)


# Signed zeros, walls, tiny and huge magnitudes alongside ordinary values.
special = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e-300, 1e300, 10.0])
coord = st.one_of(
    special, st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
)
limit = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1e-3, 5e-324, 1.0]),
    st.floats(1e-9, 100.0),
)


@given(x=coord, y=coord, max_step=limit)
@settings(max_examples=400, deadline=None)
def test_clamp_step_matches_reference(x, y, max_step):
    d = np.array([x, y])
    assert outcome(clamp_step, x, y, max_step) == outcome(ref_clamp_step, d, max_step)


@given(
    ax=st.floats(0.0, 100.0),
    ay=st.floats(0.0, 100.0),
    dx=coord,
    dy=coord,
    budget=st.one_of(limit, st.floats(1e-3, 10.0)),
    composed=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_settle_within_matches_reference(ax, ay, dx, dy, budget, composed):
    anchor = np.array([ax, ay])
    d = np.array([dx, dy])
    if composed and budget > 0.0:
        # The production composition, which lands within an ulp of the budget.
        d = ref_clamp_step(d, budget)
    position = anchor + d
    assume(np.all(np.isfinite(position)))
    assert outcome(settle_within, *position.tolist(), ax, ay, budget) == outcome(
        ref_settle_within, position, anchor, budget
    )


@given(
    x=st.one_of(coord, st.sampled_from([20.0, 20.5, 3.0])),
    y=st.one_of(coord, st.sampled_from([3.0, 2.999999999999, 7.0])),
    width=st.sampled_from([1, 3, 20, 100]),
    height=st.sampled_from([1, 3, 20, 100]),
)
@settings(max_examples=400, deadline=None)
def test_clamp_boundary_matches_reference(x, y, width, height):
    grid = GridConfig(width, height)
    p = np.array([x, y])
    assert outcome(clamp_boundary, x, y, grid) == outcome(ref_clamp_boundary, p, grid)


@given(
    x=st.floats(),
    y=st.floats(),
    width=st.sampled_from([1, 3, 20, 100]),
    height=st.sampled_from([1, 3, 20, 100]),
)
@settings(max_examples=400, deadline=None)
def test_clamp_boundary_is_min_of_max_on_any_float(x, y, width, height):
    # Any float, nan, infinities and -0.0 included, projects as
    # min(max(0.0, v), side) does.
    got = clamp_boundary(x, y, GridConfig(width, height))
    want = min(max(0.0, x), float(width)), min(max(0.0, y), float(height))
    assert all(type(v) is float for v in got)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_clamp_boundary_maps_negative_zero_to_positive_zero():
    out = clamp_boundary(-0.0, -0.0, GridConfig(10, 10))
    assert np.signbit(out).tolist() == [False, False]


GRID = 6


@st.composite
def swarms(draw):
    """Crowded swarms on a small grid: coincident pairs, agents on walls, -0.0."""
    wall = st.sampled_from([0.0, -0.0, float(GRID)])
    value = st.one_of(wall, st.floats(0.0, float(GRID)), st.floats(2.0, 3.0))
    n = draw(st.integers(1, 6))
    points = [(draw(value), draw(value)) for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        points.append(points[draw(st.integers(0, len(points) - 1))])
    return np.array(points, dtype=float)


@given(
    positions=swarms(),
    radius=st.sampled_from([0.5, 1.0, 1.7, 2.5]),
    budget=st.one_of(st.none(), st.sampled_from([1e-3, 0.05, 0.5, 1.0, 5.0])),
    jitter=st.floats(0.0, 0.5),
    revert=st.sampled_from(["none", "spread", "same"]),
)
@settings(max_examples=300, deadline=None)
def test_resolve_collisions_matches_reference(positions, radius, budget, jitter, revert):
    n = len(positions)
    grid = GridConfig(GRID, GRID)
    anchors = None if budget is None else np.clip(positions + jitter, 0.0, GRID)
    revert_to = {
        "none": None,
        # Feasible starts along the diagonal when the swarm is small enough.
        "spread": np.array([[float(k) * 2.6 % GRID, float(k) * 1.3] for k in range(n)]),
        "same": positions.copy(),
    }[revert]
    kwargs = dict(anchors=anchors, budget=budget, revert_to=revert_to)
    lists = dict(anchors=as_lists(anchors), budget=budget, revert_to=as_lists(revert_to))
    with watched_solve() as solves:
        got = outcome(resolve_collisions, positions.tolist(), grid, radius, **lists)
    if ended_in_solve(solves):
        assert_solve_ended(solves, got, lists["anchors"], budget)
    else:
        assert got == outcome(ref_resolve_collisions, positions, grid, radius, **kwargs)
    assert_resolved(positions.tolist(), grid, radius, **lists)


@st.composite
def pinned_at_the_wall(draw):
    """A crowd on the x = 0 wall whose budgets pin it there.

    Pushes into the wall project back onto it, and budgets of an ulp or so
    about the agents' own positions leave moves of under 1e-15, so a pass
    can change positions by less than the resolver's no-progress tolerance.
    """
    at_wall = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, 1e-16, 4e-16, 9e-16, 2e-15]),
        st.floats(0.0, 1e-14),
    )
    n = draw(st.integers(2, 5))
    points = [(draw(at_wall), draw(st.floats(2.0, 3.0))) for _ in range(n)]
    budget = draw(st.sampled_from([1e-16, 5e-16, 1e-15, 2e-15, 1e-3, 0.5]))
    nudge = draw(st.sampled_from([0.0, 1e-16, 3e-15]))
    anchors = [(x + nudge, y) for x, y in points]
    revert_to = draw(
        st.sampled_from(
            [None, [(float(k) * 1.3, 0.5) for k in range(n)], [(0.0, y) for _, y in points]]
        )
    )
    return points, anchors, budget, revert_to


@given(case=pinned_at_the_wall(), radius=st.sampled_from([0.5, 1.0]))
@settings(max_examples=120, deadline=None)
def test_resolve_collisions_on_lists_at_the_wall_matches_reference(case, radius):
    points, anchors, budget, revert_to = case
    grid = GridConfig(GRID, GRID)
    with watched_solve() as solves:
        got = outcome(
            resolve_collisions, points, grid, radius,
            anchors=anchors, budget=budget, revert_to=revert_to,
        )
    if ended_in_solve(solves):
        assert_solve_ended(solves, got, anchors, budget)
    else:
        assert got == outcome(
            ref_resolve_collisions, np.array(points), grid, radius, anchors=np.array(anchors),
            budget=budget, revert_to=None if revert_to is None else np.array(revert_to),
        )
    assert_resolved(points, grid, radius, revert_to, anchors=anchors, budget=budget)


def test_resolve_collisions_stall_revert_matches_reference():
    # Budgets too small to separate anything: the no-progress branch reverts
    # every violating agent at once.
    positions = np.array([[0.0, 0.0], [0.3, 0.0], [0.0, 0.3]])
    revert_to = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    args = (positions, GridConfig(10, 10), 1.0)
    kwargs = dict(anchors=positions, budget=1e-3, revert_to=revert_to)
    lists = (positions.tolist(), GridConfig(10, 10), 1.0)
    list_kwargs = dict(anchors=positions.tolist(), budget=1e-3, revert_to=revert_to.tolist())
    out, touched, pushes = resolve_collisions(*lists, **list_kwargs)
    assert outcome(resolve_collisions, *lists, **list_kwargs) == outcome(
        ref_resolve_collisions, *args, **kwargs
    )
    assert np.array_equal(out, revert_to)
    assert touched.all()
    assert pushes == 2


@pytest.mark.parametrize("budget", [None, 1e-3])
def test_resolve_collisions_stall_without_fallback_matches_reference(budget):
    positions = np.array([[0.0, 0.0], [0.3, 0.0], [0.0, 0.3]])
    anchors = None if budget is None else positions
    args = (positions, GridConfig(1, 1), 1.0)
    kwargs = dict(anchors=anchors, budget=budget)
    lists = (positions.tolist(), GridConfig(1, 1), 1.0)
    assert outcome(resolve_collisions, *lists, anchors=as_lists(anchors), budget=budget) == (
        outcome(ref_resolve_collisions, *args, **kwargs)
    )


def test_resolve_collisions_matches_reference_on_pso_traffic():
    # Every resolver call of a PSO run on twocluster20, launch included.  PSO
    # piles agents on the y = 0 wall, where passes alone would halve a
    # pinned chain's shortfall for up to 200 passes.  The wall-chain solve
    # must end some calls and keep every in-step call to 5 pair walks; each
    # call it ends meets the resolver's invariants, and every other call
    # matches the reference.
    calls, walks = [], []

    def counted_walk(*args):
        walks[-1] += 1
        return walk(*args)

    def recorded(positions, grid, radius, **kwargs):
        walks.append(0)
        with watched_solve() as solves:
            out, touched, pushes = resolve(positions, grid, radius, **kwargs)
        # Bytes and copies now: the run loop edits out and its lists afterwards.
        got = (float_bytes(out), touched.dtype, touched.tobytes(), pushes)
        kwargs = {k: v if k == "budget" else list(v) for k, v in kwargs.items()}
        calls.append((list(positions), grid, radius, kwargs, got, solves))
        return out, touched, pushes

    walk, resolve = constraints._violating_pairs, constraints.resolve_collisions
    # The launch calls the resolver only when its geometry is not cached.
    harness._launch.cache_clear()
    with mock.patch.object(constraints, "_violating_pairs", counted_walk), mock.patch.object(
        harness, "resolve_collisions", recorded
    ):
        harness.run_scenario(
            preset_scenario("twocluster20", seed=0, algorithm="pso", max_steps=150)
        )

    assert max(walks[1:]) <= 5
    assert any(ended_in_solve(solves) for *_, solves in calls)
    for positions, grid, radius, kwargs, got, solves in calls:
        if ended_in_solve(solves):
            assert_solve_ended(solves, got, kwargs["anchors"], kwargs["budget"])
            assert_resolved(positions, grid, radius, **kwargs)
        else:
            arrays = {k: v if k == "budget" else np.array(v) for k, v in kwargs.items()}
            want = outcome(ref_resolve_collisions, np.array(positions), grid, radius, **arrays)
            assert got == want


# --- the soft forces ------------------------------------------------------------


@st.composite
def near_radius(draw):
    """Agents placed within a few ulps of the radius from one another, and -0.0."""
    radius = draw(st.sampled_from([0.5, 1.0, 2.0, 2.5]))
    points = [(draw(st.sampled_from([0.0, -0.0, 3.0])), draw(st.sampled_from([0.0, -0.0, 3.0])))]
    for _ in range(draw(st.integers(1, 6))):
        x, y = points[draw(st.integers(0, len(points) - 1))]
        angle = draw(st.floats(0.0, 6.3))
        d = radius
        for _ in range(draw(st.integers(0, 2))):
            d = np.nextafter(d, draw(st.sampled_from([0.0, np.inf])))
        points.append((x + d * np.cos(angle), y + d * np.sin(angle)))
    return np.array(points), radius


def assert_unpushed(offsets, pairs, radius):
    """Agents in no pair closer than radius have the zero offset."""
    pushed = {k for i, j, *_, d in pairs if d < radius for k in (i, j)}
    for k, offset in enumerate(offsets):
        if k not in pushed:
            assert float_bytes(offset) == float_bytes((0.0, 0.0))


@given(
    case=st.one_of(
        near_radius(),
        st.tuples(swarms(), st.sampled_from([0.5, 1.0, 1.7, 2.5, 1e-10])),
    ),
    gain=st.sampled_from([1.0, 0.3, 7.5, -1.0]),
    max_step=st.sampled_from([0.05, 1.0, 5.0, 0.0]),
    half=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_soft_forces_match_reference(case, gain, max_step, half):
    # half: the field reaches twice the collision radius, so both forces see
    # the same pairs only when the collision radius is half the safe zone.
    positions, radius = case
    collision = radius / 2.0 if half else radius
    n = len(positions)
    # The collision stage's one pair walk, over the reach of both forces.
    pairs, _ = _violating_pairs(positions.tolist(), max(radius, 2.0 * collision))
    assert outcome(safe_zone_separation, pairs, n, radius) == outcome(
        ref_safe_zone_separation, positions, radius
    )
    args = (collision, gain, max_step)
    assert outcome(potential_field_repulsion, pairs, n, *args) == outcome(
        ref_potential_field_repulsion, positions, *args
    )
    # An agent in no pair closer than a force's radius gets no push from
    # it, and the field's offsets are clamped by math.hypot.
    assert_unpushed(safe_zone_separation(pairs, n, radius), pairs, radius)
    if max_step > 0.0:
        field = potential_field_repulsion(pairs, n, *args)
        assert_unpushed(field, pairs, 2.0 * collision)
        assert all(math.hypot(ox, oy) <= max_step for ox, oy in field)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_soft_forces_on_tiny_swarms_match_reference(n):
    positions = np.full((n, 2), 1.0)
    pairs, _ = _violating_pairs(positions.tolist(), 2.0)
    assert outcome(safe_zone_separation, pairs, n, 2.0) == outcome(
        ref_safe_zone_separation, positions, 2.0
    )
    args = (1.0, 1.0, 5.0)
    assert outcome(potential_field_repulsion, pairs, n, *args) == outcome(
        ref_potential_field_repulsion, positions, *args
    )
