"""The wall-chain solve of ``resolve_collisions``, against a reference of its own.

In a bounded resolver call (anchors and budget given), a pass that leaves a
violating pair with both agents, and both their anchors, exactly on one grid
edge is followed by ``constraints._solve_wall_chain``: the agents on that
edge are spaced ``collision_radius * (1 + SEPARATION_MARGIN)`` apart in one
bounded isotonic regression, solved by pool-adjacent-violators, and the call
ends when the result verifies.  ``ref_bounded_pav`` below solves the same
regression another way (pool the leftmost pair of blocks out of order, and
rescan), and ``ref_solve`` builds the solve's result from it on numpy
arrays; the resolver must match them byte for byte.  The state after the
pass comes from ``ref_resolve_collisions``, so a chain that ends in one
pass and one solve is checked end to end.  Walk counts are measured by
wrapping ``constraints._violating_pairs``.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyswarm import constraints, harness
from levyswarm.constraints import SEPARATION_MARGIN, resolve_collisions
from levyswarm.world import GridConfig, preset_scenario
from test_constraints_reference import (
    _ref_close_pairs,
    assert_resolved,
    assert_solve_ended,
    ended_in_solve,
    float_bytes,
    outcome,
    ref_resolve_collisions,
    watched_solve,
)

# --- reference: the solve on numpy arrays -------------------------------------


def ref_bounded_pav(values, lows, highs):
    """The nondecreasing fit to values within [lows, highs], or None.

    Blocks are index lists; each round pools the leftmost adjacent pair of
    blocks whose fitted values are out of order, until none is.  A block's
    fit is the math.fsum mean of its values clipped to the intersection of
    its bounds, None when that intersection is empty.
    """

    def fit(block):
        lo, hi = max(lows[k] for k in block), min(highs[k] for k in block)
        if lo > hi:
            return None
        mean = math.fsum(values[k] for k in block) / len(block)
        return lo if mean < lo else hi if mean > hi else mean

    blocks = [[k] for k in range(len(values))]
    while True:
        fits = [fit(block) for block in blocks]
        if None in fits:
            return None
        out_of_order = [t for t in range(len(blocks) - 1) if fits[t] > fits[t + 1]]
        if not out_of_order:
            return [f for f, block in zip(fits, blocks) for _ in block]
        t = out_of_order[0]
        blocks[t : t + 2] = [blocks[t] + blocks[t + 1]]


def edges_of(grid):
    """(axis across the edge, the edge's coordinate on it) in the solve's order."""
    return ((1, 0.0), (1, float(grid.height)), (0, 0.0), (0, float(grid.width)))


def ref_solve(positions, anchors, reverted, grid, radius, budget):
    """(new positions, the members in their order along the edge), or None."""
    pos, anc = np.array(positions, dtype=float), np.array(anchors, dtype=float)
    i, j, _, _ = _ref_close_pairs(pos, radius)
    for across, wall in edges_of(grid):
        on = (pos[:, across] == wall) & (anc[:, across] == wall)
        if np.any(on[i] & on[j]):
            break
    else:
        return None
    along = 1 - across
    side = float((grid.width, grid.height)[along])
    target = radius * (1.0 + SEPARATION_MARGIN)
    s, a = pos[:, along].tolist(), anc[:, along].tolist()
    for key in (s, a):
        members = sorted(np.flatnonzero(on).tolist(), key=lambda k: (key[k], k))
        lows = [s[k] if reverted[k] else max(0.0, a[k] - budget) for k in members]
        highs = [s[k] if reverted[k] else min(side, a[k] + budget) for k in members]
        shift = [rank * target for rank in range(len(members))]
        fit = ref_bounded_pav(
            [s[k] - d for k, d in zip(members, shift)],
            [lo - d for lo, d in zip(lows, shift)],
            [hi - d for hi, d in zip(highs, shift)],
        )
        if fit is not None:
            break
    else:
        return None
    out = pos.copy()
    for k, z, d, lo, hi in zip(members, fit, shift, lows, highs):
        out[k, along] = min(max(z + d, lo), hi)
    if len(_ref_close_pairs(out, radius)[0]):
        return None
    for k in members:
        if math.hypot(*(out[k] - anc[k]).tolist()) > budget or not grid.contains(out[k]):
            return None
    return out, members


# --- harness --------------------------------------------------------------------


def counted_resolve(positions, grid, radius, **kwargs):
    """resolve_collisions' result, its pair-walk count and its solve records."""
    walks = [0]
    walk = constraints._violating_pairs

    def counted(*args):
        walks[0] += 1
        return walk(*args)

    with mock.patch.object(constraints, "_violating_pairs", counted), watched_solve() as solves:
        result = resolve_collisions(positions, grid, radius, **kwargs)
    return result, walks[0], solves


def assert_chain_solved(positions, anchors, budget, revert_to, grid, radius=1.0):
    """The call ends in one pass and one solve, equal to the references byte for
    byte, and meets the resolver's invariants.  Returns the members in their
    order along the edge, and the positions after the pass."""
    (out, touched, pushes), walks, solves = counted_resolve(
        positions, grid, radius, anchors=anchors, budget=budget, revert_to=revert_to
    )
    # The first walk, the pass's closing walk and the solve's check.
    assert walks == 3
    assert len(solves) == 1 and ended_in_solve(solves)
    passed, ref_touched, ref_pushes = ref_resolve_collisions(
        np.array(positions), grid, radius, anchors=np.array(anchors), budget=budget,
        revert_to=np.array(revert_to), max_iter=1, settle=False,
    )
    assert float_bytes(solves[0][0]) == float_bytes(passed)
    want, members = ref_solve(passed, anchors, [False] * len(positions), grid, radius, budget)
    moved = np.any(want != passed, axis=1)
    assert float_bytes(out) == float_bytes(want)
    assert touched.tobytes() == (ref_touched | moved).tobytes()
    assert pushes == ref_pushes + int(moved.sum())
    assert_solve_ended(solves, (float_bytes(out),), anchors, budget)
    assert_resolved(positions, grid, radius, revert_to, anchors=anchors, budget=budget)
    # The members sit along the edge in the order the solve placed them.
    along = 1 - next(a for a, w in edges_of(grid) if all(out[k][a] == w for k in members))
    assert [out[k][along] for k in members] == sorted(out[k][along] for k in members)
    return members, passed


GRID = GridConfig(20, 12)
# Off every edge and far apart: a revert fallback that fits.
SPREAD = [(2.0 + 2.2 * (k % 8), 4.0 + 4.0 * (k // 8)) for k in range(10)]


def on_edge(edge, alongs, grid=GRID):
    across, wall = edges_of(grid)[edge]
    return [(wall, t) if across == 0 else (t, wall) for t in alongs]


# Chains along each edge, with a lone agent off the edges: (edge, positions
# and anchors along it, budget).  The x = width chain ends in the corner.
CHAINS = {
    "y=0": (0, [5.0, 5.3, 5.6, 5.9, 6.2], [5.0, 5.3, 5.6, 5.9, 6.2], 2.0),
    "y=height": (1, [10.0, 10.2, 10.4], [10.5, 10.7, 10.9], 2.0),
    "x=0": (2, [4.0, 4.3, 4.6, 4.9], [4.0, 4.3, 4.6, 4.9], 3.0),
    "x=width": (3, [11.0, 10.6, 10.8, 10.9], [11.5, 11.1, 11.3, 11.4], 3.0),
}


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_a_chain_on_each_edge_ends_in_one_solve(name):
    edge, alongs, anchor_alongs, budget = CHAINS[name]
    positions = on_edge(edge, alongs) + [(10.0, 6.0)]
    anchors = on_edge(edge, anchor_alongs) + [(10.0, 6.0)]
    revert_to = SPREAD[: len(positions)]
    members, passed = assert_chain_solved(positions, anchors, budget, revert_to, GRID)
    along = 1 - edges_of(GRID)[edge][0]
    # Every chain here fits in the order the pass left it.
    assert members == sorted(members, key=lambda k: (passed[k][along], k))
    assert len(members) == len(alongs)


# Two in-step calls of twocluster20 PSO (5 agents, budget 5, radius 1), with
# their anchors (the tentative positions) and step starts.  Passes alone
# spend all 200 on either and then revert every agent.  In both, the pass
# leaves agent 0 below agents 2 and 3 along the edge, but agent 0's budget
# interval starts too high for both to fit above it, so the chain fits only
# in the order of its anchors.
CAPTURED = {
    "seed 2, 600 steps, before the solve": (
        [(54.67618863378499, 0.0), (45.93629387423624, 0.0), (56.634354450048654, 0.0),
         (56.00071712181173, 0.0), (64.70750550198564, 0.0)],
        [(59.67618863378499, 0.0), (50.93629387423624, 0.0), (51.634354450048654, 0.0),
         (51.00071712181173, 0.0), (59.707505501985636, 0.0)],
        [(64.67618863378499, 0.0), (50.19479221550587, 0.0), (46.634354450048654, 0.0),
         (53.70750450198564, 0.0), (54.707505501985636, 0.0)],
    ),
    "seed 2, a position-order-only solve": (
        [(54.99386550372551, 0.0), (45.38117725756916, 0.0), (55.59380323047679, 0.0),
         (56.00223759715423, 0.0), (65.27931826415465, 0.0)],
        [(59.99386550372551, 0.0), (50.38117725756916, 0.0), (50.59380323047679, 0.0),
         (51.28555623361303, 0.0), (60.27931826415466, 0.0)],
        [(55.43732614229412, 0.0), (52.577900285100405, 0.0), (54.43732514229412, 0.0),
         (50.57186205938213, 0.0), (61.21319811813826, 0.0)],
    ),
}


@pytest.mark.parametrize("name", sorted(CAPTURED))
def test_a_captured_two_hundred_pass_call_ends_in_one_solve(name):
    positions, anchors, revert_to = CAPTURED[name]
    grid = GridConfig(100, 100)
    members, _ = assert_chain_solved(positions, anchors, 5.0, revert_to, grid)
    assert members == sorted(members, key=lambda k: (anchors[k][0], k))
    # Without the solve: 200 passes, then every agent reverted.
    want = ref_resolve_collisions(
        np.array(positions), grid, 1.0, anchors=np.array(anchors), budget=5.0,
        revert_to=np.array(revert_to),
    )
    assert float_bytes(want[0]) == float_bytes(revert_to) and want[1].all()


def test_an_infeasible_chain_runs_the_passes_as_without_the_solve():
    # Four agents within 0.2 of x = 1..1.3 on y = 0 need 3 along the wall.
    positions = on_edge(0, [1.0, 1.1, 1.2, 1.3])
    revert_to = SPREAD[:4]
    kwargs = dict(anchors=positions, budget=0.2, revert_to=revert_to)
    with watched_solve() as solves:
        got = outcome(resolve_collisions, positions, GRID, 1.0, **kwargs)
    assert solves and all(out is None for *_, out in solves)
    arrays = {k: v if k == "budget" else np.array(v) for k, v in kwargs.items()}
    assert got == outcome(ref_resolve_collisions, np.array(positions), GRID, 1.0, **arrays)


def test_bounded_pav_matches_the_reference_on_pooled_and_clipped_blocks():
    values = [3.0, 1.0, 2.0, 0.5, 4.0, 4.0, -1.0]
    lows = [0.0, -5.0, 1.5, -5.0, 0.0, 0.0, 3.9]
    highs = [9.0, 9.0, 9.0, 9.0, 9.0, 4.5, 9.0]
    fit = constraints._bounded_isotonic(values, lows, highs)
    assert fit == ref_bounded_pav(values, lows, highs)
    assert fit == sorted(fit)
    assert constraints._bounded_isotonic([0.0, 0.0], [1.0, -1.0], [2.0, 0.5]) is None


# --- the walk count on PSO traffic ------------------------------------------------


def walks_per_call(config):
    """The pair walks of each resolver call of one run, launch first."""
    # The launch calls the resolver only when its geometry is not cached.
    harness._launch.cache_clear()
    walks = []
    walk, resolve = constraints._violating_pairs, harness.resolve_collisions

    def counted(*args):
        walks[-1] += 1
        return walk(*args)

    def new_call(*args, **kwargs):
        walks.append(0)
        return resolve(*args, **kwargs)

    with mock.patch.object(constraints, "_violating_pairs", counted), mock.patch.object(
        harness, "resolve_collisions", new_call
    ):
        harness.run_scenario(config)
    return walks


def test_pso_resolver_walks_fall_by_half():
    # Passes alone make 25 207 walks here, up to 202 in one in-step call.
    walks = [
        walks_per_call(preset_scenario("twocluster20", seed=seed, algorithm="pso", max_steps=600))
        for seed in range(4)
    ]
    assert sum(map(sum, walks)) <= 12603
    assert max(max(run[1:]) for run in walks) <= 5


def test_the_launch_spread_is_unchanged():
    # The launch is unbounded, so the solve never runs there.
    walks = walks_per_call(preset_scenario("uniform20", seed=0, max_steps=1))
    assert walks[0] == 66


# --- every edge chain meets the invariants ----------------------------------------------


@st.composite
def edge_chains(draw):
    """2-8 agents crowded on a drawn edge of GRID, anchored on it within a
    drawn budget; some sit exactly a budget from their anchors."""
    edge = draw(st.integers(0, 3))
    side = float((GRID.width, GRID.height)[1 - edges_of(GRID)[edge][0]])
    budget = draw(st.sampled_from([0.05, 0.3, 1.0, 2.5, 5.0]))
    centre = draw(st.one_of(st.sampled_from([0.0, side]), st.floats(0.0, side)))
    anchors, alongs = [], []
    for _ in range(draw(st.integers(2, 8))):
        a = min(max(centre + draw(st.floats(-1.0, 1.0)), 0.0), side)
        offset = draw(st.one_of(st.sampled_from([-budget, budget]), st.floats(-budget, budget)))
        anchors.append(a)
        alongs.append(min(max(a + offset, 0.0), side))
    extra = draw(st.lists(st.tuples(st.floats(1.0, 19.0), st.floats(1.0, 11.0)), max_size=2))
    positions = on_edge(edge, alongs) + extra
    return positions, on_edge(edge, anchors) + extra, budget, SPREAD[: len(positions)]


@given(case=edge_chains(), radius=st.sampled_from([0.5, 1.0]))
@settings(max_examples=200, deadline=None)
def test_edge_chains_meet_the_invariants(case, radius):
    positions, anchors, budget, revert_to = case
    (out, _, _), _, solves = counted_resolve(
        positions, GRID, radius, anchors=anchors, budget=budget, revert_to=revert_to
    )
    assert_resolved(positions, GRID, radius, revert_to, anchors=anchors, budget=budget)
    if ended_in_solve(solves):
        assert_solve_ended(solves, (float_bytes(out),), anchors, budget)
        before, reverted, _ = solves[-1]
        want, _ = ref_solve(before, anchors, reverted, GRID, radius, budget)
        assert float_bytes(out) == float_bytes(want)
