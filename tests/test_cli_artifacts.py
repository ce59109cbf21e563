"""Byte pins for every file a CLI command writes, and for its stdout.

Each case runs one ``levyswarm`` command with ``--out`` and hashes every file
the command leaves there, plus what it printed.  The digests are frozen in
``tests/cli_artifacts.sha256``; a changed byte in ``runs.csv``, a heatmap,
``coverage_curve.csv``, ``trajectories.csv``, ``summary.csv``,
``comparison.csv`` or ``success.csv`` fails here.

Regenerate the golden file (only for a deliberate artifact change, stated in
the change log) with ``PYTHONPATH=src python tests/test_cli_artifacts.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from levyswarm.cli import EXIT_OK, main
from levyswarm.world import preset_scenario, save_scenario

GOLDEN = Path(__file__).parent / "cli_artifacts.sha256"

# Input files some cases read, written next to the output directory.
SCENARIO = "scenario.json"
SPEC = "spec.json"
SPEC_DATA = {
    "preset": "twocluster20",
    "algorithm": "hybrid",
    "levy_weights": [3.0, 1.5],
    "seeds": [4, 1],
    "max_steps": 300,
    "params": {"stagnation_limit": 4},
    "constraints": {"safe_zone_radius": 2.5, "coverage_radius": 8.0},
}

CASES = {
    "run-preset": [
        "run", "--preset", "uniform20", "--seed", "3", "--max-steps", "400", "--trajectories",
    ],
    "run-file-overrides": [
        "run", "--scenario", SCENARIO, "--seed", "5", "--levy-weight", "2.5",
        "--algorithm", "abc", "--max-steps", "140", "--trajectories",
    ],
    "sweep-values": [
        "sweep", "--values", "5,2,3", "--seeds", "3,5,", "--max-steps", "400",
    ],
    "sweep-spec": ["sweep", "--spec", SPEC],
    "compare-twocluster20": [
        "compare", "--algorithms", "hybrid,abc,pso", "--preset", "twocluster20",
        "--seeds", "2", "--max-steps", "150",
    ],
    "compare-uniform20-levy-weight": [
        "compare", "--algorithms", "hybrid,abc", "--preset", "uniform20",
        "--seeds", "3,5,", "--max-steps", "600", "--levy-weight", "2.5",
    ],
}


def digests(case: str, workdir: Path) -> dict[str, str]:
    """SHA-256 of stdout and of every file the command writes to --out."""
    save_scenario(preset_scenario("twocluster20", 1, max_steps=150), workdir / SCENARIO)
    (workdir / SPEC).write_text(json.dumps(SPEC_DATA))
    out = workdir / "out"
    argv = [str(workdir / a) if a in (SCENARIO, SPEC) else a for a in CASES[case]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv + ["--out", str(out)]) == EXIT_OK
    found = {"<stdout>": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
    for path in sorted(out.iterdir()):
        found[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def _golden() -> dict[str, dict[str, str]]:
    golden = {}
    for line in GOLDEN.read_text().splitlines():
        if line and not line.startswith("#"):
            case, name, digest = line.split()
            golden.setdefault(case, {})[name] = digest
    return golden


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_artifacts(case, tmp_path):
    assert digests(case, tmp_path) == _golden()[case]


if __name__ == "__main__":
    old = _golden()
    new = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            new[case] = digests(case, Path(tmp))
    with open(GOLDEN, "w") as f:
        f.write("# SHA-256 per CLI case: stdout and every file written to --out.\n")
        for case, found in new.items():
            for name, digest in found.items():
                f.write(f"{case} {name} {digest}\n")
    # The changed digests, for the change log.
    for case, found in new.items():
        for name, digest in found.items():
            before = old.get(case, {}).get(name)
            if before != digest:
                print(f"{case} {name}: {before} -> {digest}")
