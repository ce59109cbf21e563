"""The gated collision stage against the ungated one, and the facts the gate rests on.

``harness._collision_stage`` skips soft repulsion, the shove clamp, the
resolver and ``settle_within`` on steps where no pair is within
``max(safe_zone_radius, 2 * collision_radius)``, and otherwise runs them on
(x, y) floats with one pair walk.  ``reference_stage`` below is the ungated
stage as the run loop had it, on the numpy reference primitives of
``test_constraints_reference``: the gated stage must match it bit for bit
(position bytes including the sign of zero, and the intervened mask).  The
skip is exact only because every proposer keeps its tentative positions
within ``max_step_size`` of their anchors, so that invariant is tested here
too, as is the float re-check of violating pairs against the numpy
``_ref_close_pairs``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from levyswarm import harness
from levyswarm.constraints import _violating_pairs, resolve_collisions
from levyswarm.harness import _collision_stage, run_scenario
from levyswarm.world import AlgorithmParams, ConstraintParams, GridConfig, preset_scenario
from test_constraints_reference import (
    _ref_close_pairs,
    ref_clamp_boundary,
    ref_clamp_step,
    ref_potential_field_repulsion,
    ref_resolve_collisions,
    ref_safe_zone_separation,
    ref_settle_within,
)

# --- reference: the ungated collision stage -----------------------------------


def reference_stage(tentative, anchors, cons, grid):
    offsets = ref_safe_zone_separation(tentative, cons.safe_zone_radius)
    offsets += ref_potential_field_repulsion(
        tentative, cons.collision_radius, cons.potential_field_gain, cons.max_step_size
    )
    candidate = np.empty_like(tentative)
    for i in range(len(tentative)):
        shove = ref_clamp_step(offsets[i], cons.max_step_size)
        candidate[i] = ref_clamp_boundary(tentative[i] + shove, grid)
    final, touched, _ = ref_resolve_collisions(
        candidate,
        grid,
        cons.collision_radius,
        anchors=tentative,
        budget=cons.max_step_size,
        revert_to=anchors,
    )
    intervened = touched | np.any(candidate != tentative, axis=1)
    for i in range(len(final)):
        budget = 2.0 * cons.max_step_size if intervened[i] else cons.max_step_size
        final[i] = ref_settle_within(final[i], anchors[i], budget)
    return final, intervened


def reference_min_pairwise(positions):
    """The smallest pair distance over _ref_close_pairs' math.hypot lengths."""
    delta = _ref_close_pairs(positions, math.inf)[2]
    return min(map(math.hypot, delta[:, 0].tolist(), delta[:, 1].tolist()), default=math.inf)


def assert_stage_matches(tentative, anchors, cons, grid):
    final, intervened, min_pairwise = _collision_stage(
        tentative.tolist(), anchors.tolist(), cons, grid
    )
    ref_final, ref_intervened = reference_stage(tentative.copy(), anchors, cons, grid)
    assert np.array(final, dtype=float).tobytes() == ref_final.tobytes()
    # A skipped stage reports no mask: nobody intervened.
    if intervened is None:
        intervened = [False] * len(final)
    assert intervened == ref_intervened.tolist()
    assert min_pairwise == reference_min_pairwise(ref_final)


GRID = GridConfig(40, 40)

# Radius pairs (collision, safe zone) with validate()'s collision <= safe
# zone: the safe zone equal to, inside and beyond twice the collision radius.
RADII = [(1.0, 1.0), (1.0, 1.5), (1.0, 2.0), (1.0, 5.0), (2.0, 2.0), (0.5, 3.0)]


def motion(anchor, raw, max_step):
    """A proposer's move: clamped about the anchor, projected, settled."""
    step = ref_clamp_step(np.asarray(raw) - anchor, max_step)
    return ref_settle_within(ref_clamp_boundary(anchor + step, GRID), anchor, max_step)


coord = st.floats(min_value=0.0, max_value=40.0, allow_nan=False)
zero = st.sampled_from([0.0, -0.0])


@st.composite
def step_geometry(draw):
    collision, safe = draw(st.sampled_from(RADII))
    max_step = draw(st.sampled_from([0.5, 1.0, 5.0]))
    cons = ConstraintParams(
        max_step_size=max_step, safe_zone_radius=safe, collision_radius=collision
    )
    # A small box crowds the swarm, so both gated and ungated steps show up.
    side = draw(st.sampled_from([4.0, 12.0, 40.0]))
    # Signed zeros on the grid edge first: the stage must turn -0.0 into 0.0.
    points = [(draw(zero), draw(zero))] if draw(st.booleans()) else []
    points += [(draw(st.floats(0.0, side)), draw(st.floats(0.0, side))) for _ in range(8)]
    # Step starts are feasible, as in a run: no pair closer than the radius.
    kept = []
    for p in points[: draw(st.integers(min_value=1, max_value=8))]:
        if all(math.hypot(p[0] - q[0], p[1] - q[1]) >= collision for q in kept):
            kept.append(p)
    anchors = np.array(kept)
    # Some agents stay put, as a rejected ABC candidate leaves them.
    tentative = np.array(
        [
            a if draw(st.booleans()) else motion(a, (draw(coord), draw(coord)), max_step)
            for a in anchors
        ]
    )
    return tentative, anchors, cons


class TestGatedStageMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(step_geometry())
    def test_random_steps(self, geometry):
        tentative, anchors, cons = geometry
        assert_stage_matches(tentative, anchors, cons, GRID)

    @pytest.mark.parametrize("collision,safe", RADII)
    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_pair_at_the_reach(self, monkeypatch, collision, safe, ulps, axis):
        # Two agents exactly max(safe, 2 * collision) apart along an axis, or
        # one ulp nearer or farther, plus a third far away; from the origin
        # the distance is the coordinate itself, with no rounding.
        reach = max(safe, 2.0 * collision)
        d = reach
        for _ in range(abs(ulps)):
            d = math.nextafter(d, math.inf if ulps > 0 else 0.0)
        near = [0.0, 0.0]
        near[axis] = d
        tentative = np.array([[0.0, 0.0], near, [30.0, 30.0]])
        cons = ConstraintParams(
            max_step_size=1.0, safe_zone_radius=safe, collision_radius=collision
        )
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return resolve_collisions(*args, **kwargs)

        monkeypatch.setattr(harness, "resolve_collisions", counted)
        assert_stage_matches(tentative, tentative, cons, GRID)
        assert calls == ([1] if ulps < 0 else [])

    @pytest.mark.parametrize("math_above", [True, False])
    @pytest.mark.parametrize("on", ["np", "math"])
    def test_pair_the_two_norms_round_apart_at_the_reach(self, monkeypatch, math_above, on):
        # math.hypot and np.hypot differ by an ulp on this pair, and the
        # reach sits on one of the two values: the gate must follow
        # math.hypot, as the soft forces in the ungated stage do.
        dy = 1.0 / 3.0
        for dx in np.linspace(0.1, 1.9, 4000).tolist():
            norm, fast = float(np.hypot(dx, dy)), math.hypot(dx, dy)
            if fast != norm and (fast > norm) == math_above:
                break
        else:
            pytest.skip("no rounding difference between the two norms on this platform")
        reach = norm if on == "np" else fast
        cons = ConstraintParams(
            max_step_size=1.0, safe_zone_radius=reach, collision_radius=reach / 2.0
        )
        tentative = np.array([[0.0, 0.0], [dx, dy], [30.0, 30.0]])
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return resolve_collisions(*args, **kwargs)

        monkeypatch.setattr(harness, "resolve_collisions", counted)
        assert_stage_matches(tentative, tentative, cons, GRID)
        assert calls == ([1] if fast < reach else [])

    def test_negative_zero_becomes_positive_on_a_skipped_step(self):
        tentative = np.array([[-0.0, 5.0], [20.0, -0.0]])
        xy = tentative.tolist()
        final, intervened, _ = _collision_stage(xy, xy, ConstraintParams(), GRID)
        assert intervened is None
        assert np.signbit(final).tolist() == [[False, False], [False, False]]
        assert_stage_matches(tentative, tentative, ConstraintParams(), GRID)


# --- the invariant the gate needs from every proposer ------------------------


@settings(max_examples=25, deadline=None)
@given(
    algorithm=st.sampled_from(["hybrid-abc-levy", "abc", "pso"]),
    preset=st.sampled_from(["uniform20", "twocluster20"]),
    seed=st.integers(min_value=0, max_value=2**32),
    max_step=st.sampled_from([0.5, 1.0, 5.0, 13.0]),
    n_uavs=st.integers(min_value=1, max_value=8),
    knobs=st.fixed_dictionaries(
        {
            "shaping_epsilon": st.sampled_from([0.0, 0.01]),
            "exploit_coeff": st.sampled_from([0.02, -0.02]),
            "levy_beta": st.sampled_from([1.0, 1.5]),
            "stagnation_limit": st.sampled_from([3, 50]),
        }
    ),
)
def test_proposals_stay_within_one_step_of_their_anchors(
    algorithm, preset, seed, max_step, n_uavs, knobs
):
    propose = harness.propose_step
    checked = []

    def checked_propose(swarm, *args):
        anchors = swarm.positions()
        proposal = propose(swarm, *args)
        delta = proposal.positions - anchors
        assert all(math.hypot(dx, dy) <= max_step for dx, dy in delta.tolist())
        checked.append(len(anchors))
        return proposal

    config = preset_scenario(
        preset, seed, algorithm=algorithm, n_uavs=n_uavs, max_steps=40,
        params=AlgorithmParams(**knobs),
        constraints=ConstraintParams(max_step_size=max_step),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "propose_step", checked_propose)
        result = run_scenario(config)
    assert len(checked) == result.metrics.recorded_steps - 1


# --- violating pairs: the float walk against numpy's -------------------------------


def reference_pairs(pos, radius):
    i, j, _, _ = _ref_close_pairs(np.array(pos, dtype=float), radius)
    return list(zip(i.tolist(), j.tolist()))


def close_pairs(pos, radius):
    """The (i, j) of _violating_pairs' entries, after checking their geometry."""
    pairs, _ = _violating_pairs(pos, radius)
    for i, j, dx, dy, d in pairs:
        assert (dx, dy) == (pos[i][0] - pos[j][0], pos[i][1] - pos[j][1])
        assert d == math.hypot(dx, dy)
    return [(i, j) for i, j, *_ in pairs]


finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@st.composite
def pairs_near_a_radius(draw):
    """Points at distances within a few ulps of the radius, along any direction."""
    radius = draw(st.floats(min_value=1e-3, max_value=20.0))
    pos = [(draw(finite), draw(finite))]
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        angle = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
        d = radius
        for _ in range(draw(st.integers(0, 2))):
            d = math.nextafter(d, draw(st.sampled_from([0.0, math.inf])))
        base = pos[draw(st.integers(0, len(pos) - 1))]
        pos.append((base[0] + d * math.cos(angle), base[1] + d * math.sin(angle)))
    return pos, radius


class TestViolatingPairs:
    @settings(max_examples=300, deadline=None)
    @given(pairs_near_a_radius())
    def test_matches_close_pairs_around_the_radius(self, case):
        pos, radius = case
        assert close_pairs(pos, radius) == reference_pairs(pos, radius)

    @settings(max_examples=300, deadline=None)
    @given(dx=finite, dy=finite, side=st.sampled_from(["np", "math"]), ulps=st.integers(-1, 1))
    def test_radius_one_ulp_around_either_norm(self, dx, dy, side, ulps):
        # math.hypot and np.hypot round differently on some inputs; a radius
        # on or one ulp beside either one's result must follow math.hypot.
        radius = float(np.hypot(dx, dy)) if side == "np" else math.hypot(dx, dy)
        for _ in range(abs(ulps)):
            radius = math.nextafter(radius, math.inf if ulps > 0 else 0.0)
        assume(radius > 0.0)
        pos = [(dx, dy), (0.0, 0.0)]
        assert close_pairs(pos, radius) == reference_pairs(pos, radius)
        assert close_pairs(pos, radius) == ([(0, 1)] if math.hypot(dx, dy) < radius else [])

    def test_a_pair_the_two_norms_round_apart(self):
        # A pair whose math.hypot is an ulp below its np.hypot, with the
        # radius at np.hypot's value: the pair is close by math.hypot, the
        # simulator's norm, and would not be by np.hypot.
        dy = 1.0 / 3.0
        for dx in np.linspace(0.1, 9.9, 2000).tolist():
            if math.hypot(dx, dy) < float(np.hypot(dx, dy)):
                break
        else:
            pytest.skip("no rounding difference between the two norms on this platform")
        radius = float(np.hypot(dx, dy))
        pos = [(dx, dy), (0.0, 0.0)]
        assert reference_pairs(pos, radius) == [(0, 1)]
        assert close_pairs(pos, radius) == [(0, 1)]
