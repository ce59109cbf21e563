"""Command-line harness.

Subcommands: run (one scenario), sweep (levy_weight x seed grid), compare
(algorithms over shared scenarios), validate (check a scenario file).

Exit codes: 0 success, 1 invalid configuration, 2 file/IO error,
3 coverage not reached under --require-coverage.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from . import harness, metrics, world
from .constraints import ConstraintError
from .world import ValidationError

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_NOT_COVERED = 3


def _parse_seeds(seeds) -> list[int]:
    """A count n (12 or '12') means seeds 0..n-1; '3,7,9' or [3, 7, 9] is an explicit list."""
    if isinstance(seeds, str):
        text = seeds.strip()
        seeds = [int(part) for part in text.split(",") if part.strip()] if "," in text else int(text)
    if isinstance(seeds, list):
        return [world.field_value(s, "int", "seed", load=True) for s in seeds]
    return list(range(world.field_value(seeds, "int", "seeds", load=True)))


def _parse_values(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _ensure_out(path) -> pathlib.Path:
    out = pathlib.Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _given(**flags) -> dict:
    """The flags that were set on the command line."""
    return {name: value for name, value in flags.items() if value is not None}


def _scenario_from_args(args) -> world.ScenarioConfig:
    if args.scenario:
        config = world.load_scenario(args.scenario)
    else:
        config = world.preset_scenario(args.preset, 0)
    if args.algorithm:
        config.algorithm = world.parse_algorithm(args.algorithm)
    if args.seed is not None:
        config.seed = args.seed
        if config.scenario_id in world.PRESET_KINDS:
            # Preset hotspot layouts are a function of the seed; regenerate
            # them on the config's grid and keep every other field.
            kind, n_hotspots = world.PRESET_KINDS[config.scenario_id]
            config.hotspots = world.generate_hotspots(kind, n_hotspots, args.seed, config.grid)
    if args.levy_weight is not None:
        config.params.levy_weight = args.levy_weight
    if args.max_steps is not None:
        config.max_steps = args.max_steps
    config.validate()
    return config


def _cmd_run(args) -> int:
    config = _scenario_from_args(args)
    result = harness.run_scenario(config, record_trajectories=args.trajectories)
    m = result.metrics
    covered = "all" if m.covered_all else f"{m.covered_count}/{m.n_hotspots}"
    steps = m.steps_to_cover if m.covered_all else "not reached"
    print(
        f"scenario={m.scenario_id} algorithm={m.algorithm} levy_weight={m.levy_weight} "
        f"seed={m.seed} covered={covered} steps_to_cover={steps} "
        f"biodiversity_b={m.biodiversity_b} min_pairwise={m.min_pairwise_distance:.6f} "
        f"collision_interventions={m.collision_interventions}"
    )
    if args.out:
        out = _ensure_out(args.out)
        metrics.write_runs_csv([m], out / "runs.csv")
        metrics.heatmap_to_pgm(m.heatmap, out / "heatmap.pgm")
        metrics.heatmap_to_csv(m.heatmap, out / "heatmap.csv")
        metrics.write_coverage_curve(m, out / "coverage_curve.csv")
        if args.trajectories:
            # The rows csv.writer would write, formatted directly: numbers need
            # no quoting, and repr of a Python float (not of a numpy scalar,
            # hence tolist(), a frame at a time) is the text csv writes for it.
            with open(out / "trajectories.csv", "w", newline="") as f:
                f.write("step,uav,x,y\n")
                f.writelines(
                    f"{step},{uav},{x!r},{y!r}\n"
                    for step, frame in enumerate(result.trajectories)
                    for uav, (x, y) in enumerate(frame.tolist())
                )
    if args.require_coverage and not m.covered_all:
        print("coverage incomplete", file=sys.stderr)
        return EXIT_NOT_COVERED
    return EXIT_OK


def _sweep_spec_from_args(args) -> harness.SweepSpec:
    """The spec file's keys, overridden by the flags given, as a scenario file's
    are by run's flags; SweepSpec fills in what neither gives."""
    data = _given(
        preset=args.preset,
        algorithm=args.algorithm,
        levy_weights=_parse_values(args.values) if args.values else None,
        seeds=args.seeds or None,
        max_steps=args.max_steps,
    )
    if args.spec:
        data = world.field_value(world.read_json(args.spec), "dict", "sweep spec") | data
    return world.load_section(
        harness.SweepSpec, data, "sweep spec", record_trajectories=None,
        algorithm=world.parse_algorithm, seeds=_parse_seeds,
        levy_weights=lambda weights: [
            world.field_value(w, "float", "levy_weight", load=True)
            for w in world.field_value(weights, "list", "levy_weights")
        ],
    )


def _cmd_sweep(args) -> int:
    spec = _sweep_spec_from_args(args)
    result = harness.run_sweep(spec, workers=args.workers)
    print(f"{'levy_weight':>12} {'median_steps':>13} {'iqr':>9} {'success':>8}")
    for cell in result.cells:
        print(
            f"{cell.levy_weight:>12} {cell.median_steps:>13.1f} "
            f"{cell.iqr_steps:>9.1f} {cell.success_rate:>8.2f}"
        )
    if args.out:
        out = _ensure_out(args.out)
        all_runs = [m for cell in sorted(result.cells, key=lambda c: c.levy_weight) for m in cell.runs]
        metrics.write_runs_csv(all_runs, out / "runs.csv")
        metrics.write_csv(
            out / "summary.csv",
            ["levy_weight", "median_steps", "iqr_steps", "success_rate"],
            ((c.levy_weight, c.median_steps, c.iqr_steps, c.success_rate) for c in result.cells),
        )
        for cell in result.cells:
            tag = repr(cell.levy_weight)
            metrics.heatmap_to_pgm(cell.heatmap, out / f"heatmap_{tag}.pgm")
            metrics.heatmap_to_csv(cell.heatmap, out / f"heatmap_{tag}.csv")
    return EXIT_OK


def _cmd_compare(args) -> int:
    algorithms = [a for a in args.algorithms.split(",") if a.strip()]
    flags = _given(
        preset=args.preset,
        seeds=_parse_seeds(args.seeds) if args.seeds else None,
        max_steps=args.max_steps,
        params=None if args.levy_weight is None else {"levy_weight": args.levy_weight},
    )
    result = harness.compare_algorithms(algorithms, workers=args.workers, **flags)
    for name, group in result.groups.items():
        far = result.median_far_covered(name)
        far_text = "NA" if far is None else f"{far:.1f}"
        print(
            f"{name}: success_rate={group.success_rate:.2f} "
            f"median_steps={group.median_steps:.1f} median_far_covered={far_text}"
        )
    if args.out:
        out = _ensure_out(args.out)
        metrics.write_runs_csv([row.metrics for row in result.rows], out / "runs.csv")
        metrics.write_csv(
            out / "comparison.csv",
            ["algorithm", "seed", "steps_to_cover", "covered_count", "far_covered"],
            (
                (r.algorithm, r.seed, r.metrics.csv_row()["steps_to_cover"],
                 r.metrics.covered_count, r.far_covered)
                for r in result.rows
            ),
        )
        metrics.write_csv(
            out / "success.csv", ["algorithm", "success_rate"], result.success_rates.items()
        )
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = world.load_scenario(args.scenario)
    print(
        f"OK: {config.scenario_id} ({len(config.hotspots)} hotspots, "
        f"{config.n_uavs} agents, {config.grid.width}x{config.grid.height} grid)"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyswarm",
        description="Multi-agent hotspot coverage: ABC/PSO baselines and a Levy-flight hybrid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario")
    run.add_argument("--scenario", help="scenario JSON file")
    run.add_argument(
        "--preset", default="uniform20", choices=sorted(world.PRESET_KINDS), help="named layout"
    )
    run.add_argument("--algorithm", help="abc | pso | hybrid-abc-levy")
    run.add_argument("--levy-weight", type=float, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--max-steps", type=int, default=None)
    run.add_argument("--out", help="directory for runs.csv, heatmaps, coverage curve")
    run.add_argument("--trajectories", action="store_true", help="also write trajectories.csv")
    run.add_argument(
        "--require-coverage",
        action="store_true",
        help="exit 3 if the run ends with uncovered hotspots",
    )
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="levy_weight x seed grid")
    sweep.add_argument("--spec", help="JSON sweep spec")
    sweep.add_argument("--preset", choices=sorted(world.PRESET_KINDS))
    sweep.add_argument("--algorithm", help="abc | pso | hybrid-abc-levy")
    sweep.add_argument("--values", help="comma-separated levy_weight values")
    sweep.add_argument("--seeds", help="count (e.g. 20) or comma-separated seed list")
    sweep.add_argument("--max-steps", type=int, default=None)
    sweep.add_argument("--out", help="directory for runs.csv, summary.csv, per-value heatmaps")
    sweep.add_argument("--workers", type=int, default=1)
    sweep.set_defaults(func=_cmd_sweep)

    compare = sub.add_parser("compare", help="run several algorithms on shared scenarios")
    compare.add_argument("--algorithms", required=True, help="comma list, e.g. abc,pso,hybrid")
    compare.add_argument("--preset", choices=sorted(world.PRESET_KINDS))
    compare.add_argument("--seeds", help="count or comma-separated list")
    compare.add_argument("--max-steps", type=int, default=None)
    compare.add_argument("--levy-weight", type=float, default=None)
    compare.add_argument("--out", help="directory for runs.csv, comparison.csv, success.csv")
    compare.add_argument("--workers", type=int, default=1)
    compare.set_defaults(func=_cmd_compare)

    validate = sub.add_parser("validate", help="validate a scenario file")
    validate.add_argument("--scenario", required=True)
    validate.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValidationError, ConstraintError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
