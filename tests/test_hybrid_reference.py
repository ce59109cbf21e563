"""The hybrid's one-pass proposal against the four-pass proposal it replaced.

``ref_propose_hybrid`` below is the earlier propose_hybrid, kept verbatim
with its ``_reinforce`` helper: it walks the agents once per phase (scout
reset, flight or escape, relocation leg, onlooker).  The proposer now
finishes each agent before the next.  Each agent draws only from its own
stream, so both must give the same positions and bookkeeping and leave
every stream at the same word.  The drawn steps reach every branch: agents
in transit or landing, stagnation on both sides of the limit, fitness ties
at the median, covered hotspots that make escapes fire (all covered too),
the sigmoid gate, the attractive exploit sign, the bare Mantegna kernel,
shaping, and flights clamped at the grid edge.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from levyswarm import constraints
from levyswarm.optimizers import (
    FitnessField,
    StepProposal,
    _constrain_motion,
    _median,
    _nearest_better_neighbor,
    adaptive_levy_probability,
    nectar_probabilities,
    propose_hybrid,
)
from levyswarm.rng import RandomSource, levy_step
from levyswarm.world import GridConfig, Hotspot, ScenarioConfig, SwarmState, UavState


def ref_propose_hybrid(swarm, fitness, config, rngs):
    params = config.params
    cons = config.constraints
    max_step = cons.max_step_size
    uavs = swarm.uavs
    n = len(uavs)
    width, height = float(config.grid.width), float(config.grid.height)
    for uav, src in zip(uavs, rngs):
        if uav.transit_target is None and uav.stagnation >= params.stagnation_limit:
            uav.transit_target = (src.uniform(0.0, 1.0) * width, src.uniform(0.0, 1.0) * height)
            uav.stagnation = 0
    anchors = [uav.position for uav in uavs]
    tentative = list(anchors)
    gx, gy = swarm.global_best_position
    # Balancing and nectar shares key on each agent's last realized fitness
    # (the reward credited for its previous move), not a re-evaluation at the
    # anchor: once a hotspot is marked, standing next to it scores nothing.
    values = [uav.fitness for uav in uavs]
    median_value = _median(values)
    report = constraints.ConstraintReport()
    transit_legs = 0
    guided = [False] * n
    scanning = [True] * n

    in_transit = [uav.transit_target is not None for uav in uavs]
    for i, uav in enumerate(uavs):
        if in_transit[i]:
            continue
        ax, ay = anchors[i]
        escape = constraints.escape_no_hotspot_zone(
            anchors[i], fitness, cons.no_hotspot_threshold_radius, max_step
        )
        if escape is not None:
            report.zone_escapes += 1
            guided[i] = True
            tentative[i] = _constrain_motion(
                (ax + escape[0], ay + escape[1]), anchors[i], config, report
            )
            continue
        fx, fy = levy_step(
            rngs[i], params.levy_weight, params.levy_beta, normalized=params.mantegna_normalized
        )
        x, y = ax + fx, ay + fy
        if values[i] > median_value:
            j = _nearest_better_neighbor(anchors, values, i)
            if j is not None:
                c = params.exploit_coeff
                x, y = x + c * (ax - anchors[j][0]), y + c * (ay - anchors[j][1])
        else:
            x, y = x + params.explore_coeff * (gx - ax), y + params.explore_coeff * (gy - ay)
        waypoint = constraints.clamp_boundary(x, y, config.grid)
        if waypoint != (x, y):
            report.boundary_hits += 1
        if math.hypot(waypoint[0] - ax, waypoint[1] - ay) > max_step:
            # The flight outruns one step: commit to the waypoint and start
            # traversing below.
            uav.transit_target = waypoint
            in_transit[i] = True
        else:
            tentative[i] = waypoint

    # Relocation legs: committed waypoints (long Levy flights and scout
    # resets) are approached at full speed with the sensor off, landing
    # exactly — and scanning — once the target is within one step.
    for i, uav in enumerate(uavs):
        if uav.transit_target is None:
            continue
        transit_legs += 1
        guided[i] = True
        (tx, ty), (ax, ay) = uav.transit_target, anchors[i]
        dx, dy = tx - ax, ty - ay
        if math.hypot(dx, dy) <= max_step:
            tentative[i] = (tx, ty)
            uav.transit_target = None
        else:
            scanning[i] = False
            report.clamped_steps += 1
            sx, sy = constraints.clamp_step(dx, dy, max_step)
            tentative[i] = constraints.settle_within(ax + sx, ay + sy, ax, ay, max_step)

    # Onlooker reinforcement: a Bernoulli per agent gates an extra Levy move,
    # kept only when it improves the fitness of that agent's tentative
    # position under the current uncovered set.
    shares = nectar_probabilities(values)
    for i in range(n):
        if in_transit[i]:
            continue
        if params.adaptive_lambda:
            gate = adaptive_levy_probability(
                values[i], swarm.global_best_fitness, params.sigma_sensitivity
            )
        else:
            gate = shares[i]
        if rngs[i].uniform(0.0, 1.0) >= gate:
            continue
        _reinforce(tentative, i, anchors, fitness, config, rngs[i], report)

    return StepProposal(tentative, transit_legs, report, np.array(guided), np.array(scanning))


def _reinforce(tentative, i, anchors, fitness, config, src, report):
    params = config.params
    fx, fy = levy_step(
        src, params.levy_weight, params.levy_beta, normalized=params.mantegna_normalized
    )
    x, y = tentative[i]
    candidate = _constrain_motion((x + fx, y + fy), anchors[i], config, report)
    if fitness.value(candidate) > fitness.value(tentative[i]):
        tentative[i] = candidate


# Coordinates on a 40 x 40 grid, with its edges and corners drawn often.
coord = st.one_of(st.floats(min_value=0.0, max_value=40.0), st.sampled_from([0.0, 40.0, 20.0]))
point = st.tuples(coord, coord)
LIMIT = 4


@st.composite
def hybrid_steps(draw):
    """One hybrid step: a config, a field, the agents, the global best and a seed."""
    n = draw(st.integers(1, 8))
    hotspots = [
        Hotspot(draw(point), draw(st.sampled_from([0.1, 0.5, 1.0])))
        for _ in range(draw(st.integers(1, 10)))
    ]
    config = ScenarioConfig(grid=GridConfig(40, 40), hotspots=hotspots, n_uavs=n)
    params, cons = config.params, config.constraints
    params.levy_weight = draw(st.sampled_from([0.3, 3.0, 60.0]))
    params.levy_beta = draw(st.sampled_from([1.0, 1.5, 2.0]))
    params.mantegna_normalized = draw(st.booleans())
    params.adaptive_lambda = draw(st.booleans())
    params.sigma_sensitivity = draw(st.sampled_from([0.5, 1.0, 40.0]))
    params.exploit_coeff = draw(st.sampled_from([0.02, 0.7, -0.02, -0.7]))
    params.explore_coeff = draw(st.sampled_from([0.02, 0.7]))
    params.stagnation_limit = LIMIT
    params.shaping_epsilon = draw(st.sampled_from([0.0, 0.001]))
    cons.max_step_size = draw(st.sampled_from([1.0, 5.0, 13.0]))
    cons.no_hotspot_threshold_radius = draw(st.sampled_from([2.0, 15.0]))
    fitness = FitnessField.from_config(hotspots, config)
    covered = draw(st.one_of(
        st.just(list(range(len(hotspots)))),
        st.lists(st.integers(0, len(hotspots) - 1), max_size=len(hotspots)),
    ))
    fitness.cover(covered)
    agents = []
    for _ in range(n):
        position = draw(point)
        # A pending relocation: none, one that lands this step, or a far one.
        kind = draw(st.sampled_from(["none", "none", "landing", "far"]))
        if kind == "landing":
            target = (position[0], min(position[1] + 0.5 * cons.max_step_size, 40.0))
        elif kind == "far":
            target = draw(point)
        else:
            target = None
        agents.append((
            position,
            draw(st.sampled_from([0.0, 1.0, 1.0, 2.0, 0.25])),
            draw(st.sampled_from([0, LIMIT - 1, LIMIT, LIMIT + 3])),
            target,
        ))
    best = (draw(point), draw(st.sampled_from([0.0, 1.0, 2.0, 5.0])))
    return config, fitness, agents, best, draw(st.integers(0, 2**64 - 1))


def _swarm(agents, best):
    uavs = [
        UavState(p, fitness=f, stagnation=s, transit_target=t) for p, f, s, t in agents
    ]
    swarm = SwarmState(uavs, best[0])
    swarm.global_best_fitness = best[1]
    return swarm


def _xy_bytes(points):
    return np.array(points, dtype=float).tobytes()


@settings(max_examples=400, deadline=None)
@given(step=hybrid_steps())
def test_one_pass_proposal_matches_four_passes(step):
    config, fitness, agents, best, seed = step
    ours, theirs = _swarm(agents, best), _swarm(agents, best)
    ours_rngs = [RandomSource(seed, i) for i in range(len(agents))]
    theirs_rngs = [RandomSource(seed, i) for i in range(len(agents))]
    got = propose_hybrid(ours, fitness, config, ours_rngs)
    want = ref_propose_hybrid(theirs, fitness, config, theirs_rngs)
    assert _xy_bytes(got.positions) == _xy_bytes(want.positions)
    assert got.report == want.report
    assert got.transit_legs == want.transit_legs
    assert got.guided == want.guided.tolist()
    assert got.scanning.tolist() == want.scanning.tolist()
    for a, b in zip(ours.uavs, theirs.uavs):
        assert a.stagnation == b.stagnation
        assert (a.transit_target is None) == (b.transit_target is None)
        if a.transit_target is not None:
            assert _xy_bytes(a.transit_target) == _xy_bytes(b.transit_target)
    # The same draws: every stream stands at the same word afterwards.
    assert [r.random_raw(2).tolist() for r in ours_rngs] == [
        r.random_raw(2).tolist() for r in theirs_rngs
    ]


def test_steps_reach_every_branch(monkeypatch):
    # A fixed sample of the drawn steps makes scout resets, escapes, flights
    # committed to waypoints, landings, edge clamps and onlooker moves; only
    # an onlooker move scores a candidate.
    seen = {"scout": 0, "escape": 0, "commit": 0, "land": 0, "edge": 0, "onlooker": 0}
    value = FitnessField.value

    def counted(self, position, ids=None):
        seen["onlooker"] += 1
        return value(self, position, ids)

    monkeypatch.setattr(FitnessField, "value", counted)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(step=hybrid_steps())
    def tally(step):
        config, fitness, agents, best, seed = step
        swarm = _swarm(agents, best)
        rngs = [RandomSource(seed, i) for i in range(len(agents))]
        proposal = propose_hybrid(swarm, fitness, config, rngs)
        for (_, _, stagnation, target), uav in zip(agents, swarm.uavs):
            seen["scout"] += target is None and stagnation >= LIMIT
            seen["commit"] += target is None and uav.transit_target is not None
            seen["land"] += target is not None and uav.transit_target is None
        seen["escape"] += proposal.report.zone_escapes
        seen["edge"] += proposal.report.boundary_hits

    tally()
    assert all(seen.values()), seen
