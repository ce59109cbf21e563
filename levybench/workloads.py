"""The benchmark's workloads: CLI commands built from a workload seed.

A workload turns its seed into a fixed list of ``levyswarm`` commands (jobs),
writing and validating any scenario files they read.  One repetition runs
every job once; a benchmark run repeats the same list, so every repetition
must reproduce the same artifact bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass

SWEEP_VALUES = "1.5,2,2.5,3,5"
SWEEP_SEEDS = 6
COMPARE_SEEDS = 6
# ABC and PSO never reach the far cluster, so their runs all stop here.
COMPARE_MAX_STEPS = 600
CROWD_FILES = 30
CROWD_UAVS = 8
CROWD_HOTSPOTS = 20
CROWD_MAX_STEPS = 5000


@dataclass
class Job:
    """One CLI invocation; ``{out}`` in argv is replaced by a fresh directory."""

    argv: list[str]
    runs: int
    hashed: tuple[str, ...] = ("runs.csv",)

    def command(self, out_dir: str) -> list[str]:
        return [out_dir if arg == "{out}" else arg for arg in self.argv]


def _preset_seeds(seed: int, workload: str, count: int) -> list[int]:
    return random.Random(f"{workload}:{seed}").sample(range(1, 2**31), count)


def _seed_list(seeds) -> str:
    # "--seeds 7" would mean seeds 0..6; a comma makes it a list.
    return ",".join(map(str, seeds)) + ","


def _validate_presets(levyswarm, preset: str, seeds, **overrides):
    for s in seeds:
        levyswarm.world.preset_scenario(preset, s, **overrides).validate()


def build_sweep(levyswarm, seed: int, workdir) -> list[Job]:
    """Headline experiment 1: the flight-scale sweep, hybrid only, 5 UAVs."""
    seeds = _preset_seeds(seed, "sweep-uniform20", SWEEP_SEEDS)
    _validate_presets(levyswarm, "uniform20", seeds)
    argv = [
        "sweep", "--preset", "uniform20", "--values", SWEEP_VALUES, "--seeds", _seed_list(seeds),
        "--out", "{out}", "--workers", "1",
    ]
    return [Job(argv, runs=len(seeds) * len(SWEEP_VALUES.split(",")))]


def build_compare(levyswarm, seed: int, workdir) -> list[Job]:
    """Headline experiment 2: hybrid against ABC and PSO on the two-cluster layout."""
    seeds = _preset_seeds(seed, "compare-twocluster20", COMPARE_SEEDS)
    _validate_presets(levyswarm, "twocluster20", seeds, max_steps=COMPARE_MAX_STEPS)
    argv = [
        "compare", "--algorithms", "hybrid,abc,pso", "--preset", "twocluster20",
        "--max-steps", str(COMPARE_MAX_STEPS), "--seeds", _seed_list(seeds),
        "--out", "{out}", "--workers", "1",
    ]
    return [Job(argv, runs=3 * len(seeds))]


def crowd_scenario(rng: random.Random, index: int) -> dict:
    return {
        "grid": {"width": 100, "height": 100},
        "hotspots": [
            {"x": rng.uniform(0.0, 100.0), "y": rng.uniform(0.0, 100.0), "weight": 1.0}
            for _ in range(CROWD_HOTSPOTS)
        ],
        "n_uavs": CROWD_UAVS,
        "algorithm": "hybrid-abc-levy",
        "seed": rng.randrange(1, 2**31),
        "max_steps": CROWD_MAX_STEPS,
        "scenario_id": f"crowd8-{index}",
    }


def build_crowd(levyswarm, seed: int, workdir) -> list[Job]:
    """Eight UAVs from scenario files, run one at a time with trajectories."""
    rng = random.Random(f"crowd8-trajectories:{seed}")
    jobs = []
    for index in range(CROWD_FILES):
        path = workdir / f"crowd8-{index}.json"
        path.write_text(json.dumps(crowd_scenario(rng, index), indent=2) + "\n")
        with contextlib.redirect_stdout(io.StringIO()):
            code = levyswarm.cli.main(["validate", "--scenario", str(path)])
        if code != 0:
            raise RuntimeError(f"generated scenario {path.name} failed validation ({code})")
        argv = ["run", "--scenario", str(path), "--out", "{out}", "--trajectories"]
        jobs.append(Job(argv, runs=1, hashed=("runs.csv", "trajectories.csv")))
    return jobs


WORKLOADS = {
    "sweep-uniform20": build_sweep,
    "compare-twocluster20": build_compare,
    "crowd8-trajectories": build_crowd,
}
