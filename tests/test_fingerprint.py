"""Behaviour fingerprint: a SHA-256 per run over everything a run determines.

Each case hashes the ``runs.csv`` bytes, the trajectory array, the collision
masks and the per-step minimum pairwise distances of one short run.  The
digests are frozen in ``tests/golden/behaviour_fingerprint.txt``; any change
to a trajectory, a metric or an artifact byte fails here loudly, the way the
Philox golden file catches a change in the raw random words.

Regenerate the golden file (only for a deliberate behaviour change, stated in
the change log) with ``PYTHONPATH=src python tests/test_fingerprint.py``.
"""

from __future__ import annotations

import hashlib
import io
from pathlib import Path

import numpy as np
import pytest

from levyswarm.harness import run_scenario
from levyswarm.metrics import write_runs_csv
from levyswarm.world import ConstraintParams, GridConfig, make_scenario, preset_scenario

GOLDEN = Path(__file__).parent / "golden" / "behaviour_fingerprint.txt"
STEPS = 300
CROWD_CASE = "uniform/hybrid-abc-levy/7/n_uavs=8"
# Six PSO agents clumped on a 20x20 grid with a collision radius twice the
# step size: the collision resolver stalls and reverts agents to their step
# starts dozens of times per run, a branch the preset cases never reach.
TIGHT_STEPS = 40
TIGHT_CASES = [f"twocluster/pso/{seed}/tight" for seed in (3, 4)]
CASES = [
    f"{preset}/{algorithm}/{seed}"
    for preset in ("uniform20", "twocluster20")
    for algorithm in ("hybrid-abc-levy", "abc", "pso")
    for seed in (0, 1)
] + [CROWD_CASE] + TIGHT_CASES


def scenario(case: str):
    if case == CROWD_CASE:
        return make_scenario("uniform", 20, 7, n_uavs=8, max_steps=STEPS)
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
    preset, algorithm, seed = case.split("/")
    return preset_scenario(preset, int(seed), algorithm=algorithm, max_steps=STEPS)


def fingerprint(config) -> str:
    result = run_scenario(config, record_trajectories=True)
    runs_csv = io.StringIO()
    write_runs_csv([result.metrics], runs_csv)
    digest = hashlib.sha256()
    digest.update(runs_csv.getvalue().encode())
    for array in (
        result.trajectories,
        result.collision_mask,
        np.array(result.metrics.min_pairwise_series, dtype=float),
    ):
        digest.update(repr(array.shape).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _golden() -> dict[str, str]:
    lines = [l for l in GOLDEN.read_text().splitlines() if l and not l.startswith("#")]
    return dict(line.split() for line in lines)


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_behaviour_fingerprint(case):
    assert fingerprint(scenario(case)) == _golden()[case]


if __name__ == "__main__":
    with open(GOLDEN, "w") as f:
        f.write(f"# SHA-256 per case: runs.csv, trajectories, collision masks, "
                f"min_pairwise_series; {STEPS} steps ({TIGHT_STEPS} for the tight "
                f"cases).\n")
        for name in sorted(CASES):
            f.write(f"{name} {fingerprint(scenario(name))}\n")
