"""Behaviour fingerprint: a SHA-256 per run over everything a run determines.

Each case hashes the ``runs.csv`` bytes, the trajectory array, the collision
masks and the per-step minimum pairwise distances of one short run, and, on
lines of their own, the run's heatmap counts and its coverage curve.  The
digests are frozen in ``tests/golden/behaviour_fingerprint.txt``; any change
to a trajectory, a metric or an artifact byte fails here loudly, the way the
Philox golden file catches a change in the raw random words.

Regenerate the golden file (only for a deliberate behaviour change, stated in
the change log) with ``PYTHONPATH=src python tests/test_fingerprint.py``.
"""

from __future__ import annotations

import functools
import hashlib
import io
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from levyswarm.harness import run_scenario
from levyswarm.metrics import write_runs_csv
from levyswarm.world import (
    AlgorithmParams,
    ConstraintParams,
    GridConfig,
    ScenarioConfig,
    ScenarioKind,
    generate_hotspots,
    make_scenario,
    preset_scenario,
)

GOLDEN = Path(__file__).parent / "golden" / "behaviour_fingerprint.txt"
STEPS = 300
CROWD_CASE = "uniform/hybrid-abc-levy/7/n_uavs=8"
# Eight agents over 40 uniform hotspots weighted 0.1 to 0.9 in turn, once
# per algorithm.  Every other case has unit weights, whose sums are exact
# integers in any order.  These pin the bytes of a fractional
# biodiversity_b and run nectar shares over eight fractional fitnesses.  They
# do not pin the order of that sum: np.sum's order gives the same digests.
# TestNectarShares in test_float_step.py pins it.  The PSO case runs the soft
# forces over 28 pairs on nearly every step.
WEIGHTED_CASE = "uniform40/hybrid-abc-levy/5/n_uavs=8,weights=0.1..0.9"
WEIGHTED_CASES = [WEIGHTED_CASE] + [
    f"uniform40/{algorithm}/5/n_uavs=8,weights=0.1..0.9" for algorithm in ("abc", "pso")
]
WEIGHTS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
# Six PSO agents clumped on a 20x20 grid with a collision radius twice the
# step size: the collision resolver stalls and reverts agents to their step
# starts dozens of times per run, a branch the preset cases never reach.
TIGHT_STEPS = 40
TIGHT_CASES = [f"twocluster/pso/{seed}/tight" for seed in (3, 4)]
# Knob branches the preset defaults never take, each on one preset run.
# levy_beta is 1.5 in the unnormalized case because the Mantegna scale is 1
# at the default beta of 1.  The sign of exploit_coeff (exploit_sign in its
# case label) acts only between agents of unequal fitness above the median,
# which unit-weight coverage alone almost never gives, so it rides on shaping.
# The wide cases set safe_zone_radius above twice the collision radius (the
# presets have the two equal), so the safe-zone radius sets the reach of the
# collision stage.
KNOB_CASES = {
    "uniform20/hybrid-abc-levy/0/shaping": dict(params=AlgorithmParams(shaping_epsilon=0.01)),
    "uniform20/abc/0/shaping": dict(params=AlgorithmParams(shaping_epsilon=0.01)),
    "uniform20/hybrid-abc-levy/0/adaptive_lambda": dict(params=AlgorithmParams(adaptive_lambda=True)),
    "uniform20/hybrid-abc-levy/0/mantegna_unnormalized": dict(
        params=AlgorithmParams(levy_beta=1.5, mantegna_normalized=False)
    ),
    "uniform20/hybrid-abc-levy/0/shaping,exploit_sign=-1": dict(
        params=AlgorithmParams(shaping_epsilon=0.01, exploit_coeff=-0.02)
    ),
    "uniform20/hybrid-abc-levy/0/wide_safe_zone": dict(
        n_uavs=8, constraints=ConstraintParams(safe_zone_radius=5.0, collision_radius=1.0)
    ),
    "twocluster20/pso/0/wide_safe_zone": dict(
        constraints=ConstraintParams(safe_zone_radius=5.0, collision_radius=1.0)
    ),
}
# Ten thousand uniform hotspots, the most validate() accepts.  Within 300
# steps the hybrid covers more than half of them, so cover() runs past the
# point where the coverage index compacts its lists; ABC covers a few hundred.
LARGE_CASES = [f"uniform10000/{algorithm}/3" for algorithm in ("hybrid-abc-levy", "abc")]
CASES = [
    f"{preset}/{algorithm}/{seed}"
    for preset in ("uniform20", "twocluster20")
    for algorithm in ("hybrid-abc-levy", "abc", "pso")
    for seed in (0, 1)
] + [CROWD_CASE] + WEIGHTED_CASES + TIGHT_CASES + list(KNOB_CASES) + LARGE_CASES


def scenario(case: str):
    if case == CROWD_CASE:
        return make_scenario("uniform", 20, 7, n_uavs=8, max_steps=STEPS)
    if case in WEIGHTED_CASES:
        hotspots = [
            replace(hotspot, weight=WEIGHTS[k % len(WEIGHTS)])
            for k, hotspot in enumerate(
                generate_hotspots(ScenarioKind.UNIFORM_RANDOM, 40, 5, GridConfig())
            )
        ]
        return ScenarioConfig(
            hotspots=hotspots, seed=5, algorithm=case.split("/")[1], n_uavs=8, max_steps=STEPS
        ).validate()
    if case in LARGE_CASES:
        _, algorithm, seed = case.split("/")
        return make_scenario("uniform", 10_000, int(seed), algorithm=algorithm, max_steps=STEPS)
    if case in TIGHT_CASES:
        kind, algorithm, seed, _ = case.split("/")
        return make_scenario(
            kind, 20, int(seed), GridConfig(20, 20),
            algorithm=algorithm,
            n_uavs=6,
            start_position=(10.0, 10.0),
            constraints=ConstraintParams(
                max_step_size=1.0, safe_zone_radius=2.0, collision_radius=2.0
            ),
            max_steps=TIGHT_STEPS,
        )
    preset, algorithm, seed = case.split("/")[:3]
    return preset_scenario(
        preset, int(seed), algorithm=algorithm, max_steps=STEPS, **KNOB_CASES.get(case, {})
    )


def _update(digest, *arrays):
    for array in arrays:
        digest.update(repr(array.shape).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _run(case: str):
    return run_scenario(scenario(case), record_trajectories=True)


def fingerprint(result) -> str:
    runs_csv = io.StringIO()
    write_runs_csv([result.metrics], runs_csv)
    digest = hashlib.sha256()
    digest.update(runs_csv.getvalue().encode())
    return _update(
        digest,
        result.trajectories,
        result.collision_mask,
        np.array(result.metrics.min_pairwise_series, dtype=float),
    )


# The second and third golden line of a case: its heatmap counts and its
# (step, covered_count) coverage curve.
RECORDS = {
    "heatmap": lambda result: _update(hashlib.sha256(), result.metrics.heatmap.counts),
    "coverage": lambda result: _update(
        hashlib.sha256(), np.array(result.metrics.coverage_curve, dtype=np.int64)
    ),
}


def _golden() -> dict[str, str]:
    lines = [l for l in GOLDEN.read_text().splitlines() if l and not l.startswith("#")]
    return dict(line.split() for line in lines)


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(
        CASES + [f"{record}:{case}" for record in RECORDS for case in CASES]
    )


def test_golden_digests_are_distinct():
    # A knob case whose knob never acts would repeat its default twin's digest.
    assert len({_golden()[case] for case in CASES}) == len(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_behaviour_fingerprint(case):
    assert fingerprint(_run(case)) == _golden()[case]


@pytest.mark.parametrize("record", list(RECORDS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_heatmap_and_coverage_fingerprint(case, record):
    assert RECORDS[record](_run(case)) == _golden()[f"{record}:{case}"]


# RunMetrics.zone_escape_events reaches no artifact, so no digest covers it.
ZONE_ESCAPES = {
    "uniform20/hybrid-abc-levy/0": 324,
    "twocluster20/hybrid-abc-levy/0": 372,
    CROWD_CASE: 452,
    WEIGHTED_CASE: 353,
}


@pytest.mark.parametrize("case", sorted(ZONE_ESCAPES))
def test_zone_escape_events(case):
    assert _run(case).metrics.zone_escape_events == ZONE_ESCAPES[case]


if __name__ == "__main__":
    old = _golden()
    new = {name: fingerprint(_run(name)) for name in sorted(CASES)}
    for record, digest_of in RECORDS.items():
        new |= {f"{record}:{name}": digest_of(_run(name)) for name in sorted(CASES)}
    with open(GOLDEN, "w") as f:
        f.write(f"# SHA-256 per case: runs.csv, trajectories, collision masks, "
                f"min_pairwise_series; {STEPS} steps ({TIGHT_STEPS} for the tight "
                f"cases).\n")
        for name in sorted(CASES):
            f.write(f"{name} {new[name]}\n")
        f.write("# heatmap:<case> hashes the heatmap counts, coverage:<case> the "
                "(step, covered_count) curve.\n")
        for name, digest in new.items():
            if ":" in name:
                f.write(f"{name} {digest}\n")
    # The changed digests, for the change log.
    for name, digest in new.items():
        if old.get(name) != digest:
            print(f"{name}: {old.get(name)} -> {digest}")
