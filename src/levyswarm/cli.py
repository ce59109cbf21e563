"""Command-line harness.

Subcommands: run (one scenario), sweep (levy_weight x seed grid), compare
(algorithms over shared scenarios), validate (check a scenario file).

Exit codes: 0 success, 1 invalid configuration, 2 file/IO error,
3 coverage not reached under --require-coverage.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

from . import harness, metrics, world
from .constraints import ConstraintError
from .world import ValidationError

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_NOT_COVERED = 3


def _parse_seeds(text: str) -> list[int]:
    """'12' means seeds 0..11; '3,7,9' is an explicit list."""
    text = text.strip()
    if "," in text:
        return [int(part) for part in text.split(",") if part.strip()]
    return list(range(int(text)))


def _parse_values(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _ensure_out(path) -> pathlib.Path:
    out = pathlib.Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _scenario_from_args(args) -> world.ScenarioConfig:
    if args.scenario:
        config = world.load_scenario(args.scenario)
        if args.algorithm:
            config.algorithm = world.parse_algorithm(args.algorithm)
        if args.seed is not None:
            config.seed = args.seed
            if config.scenario_id in world.PRESET_KINDS:
                # Preset layouts are a function of the seed; regenerate.
                config = world.preset_scenario(
                    config.scenario_id,
                    args.seed,
                    algorithm=config.algorithm,
                    params=config.params,
                    constraints=config.constraints,
                    max_steps=config.max_steps,
                    dt=config.dt,
                )
    else:
        from dataclasses import replace

        params = world.AlgorithmParams()
        if args.levy_weight is not None:
            params = replace(params, levy_weight=args.levy_weight)
        config = world.preset_scenario(
            args.preset,
            args.seed if args.seed is not None else 0,
            algorithm=world.parse_algorithm(args.algorithm or "hybrid-abc-levy"),
            params=params,
        )
    if args.levy_weight is not None and args.scenario:
        config.params.levy_weight = args.levy_weight
    if args.max_steps is not None:
        config.max_steps = args.max_steps
    config.validate()
    return config


def _write_run_outputs(result: harness.RunResult, out_dir):
    out = _ensure_out(out_dir)
    metrics.write_runs_csv([result.metrics], out / "runs.csv")
    metrics.heatmap_to_pgm(result.metrics.heatmap, out / "heatmap.pgm")
    metrics.heatmap_to_csv(result.metrics.heatmap, out / "heatmap.csv")
    metrics.write_coverage_curve(result.metrics, out / "coverage_curve.csv")
    if result.trajectories is not None:
        with open(out / "trajectories.csv", "w", newline="") as f:
            f.write("step,uav,x,y\n")
            for step, frame in enumerate(result.trajectories):
                for uav, (x, y) in enumerate(frame):
                    f.write(f"{step},{uav},{x!r},{y!r}\n")


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
        _write_run_outputs(result, args.out)
    if args.require_coverage and not m.covered_all:
        print("coverage incomplete", file=sys.stderr)
        return EXIT_NOT_COVERED
    return EXIT_OK


def _sweep_spec_from_args(args) -> harness.SweepSpec:
    if args.spec:
        with open(args.spec) as f:
            data = json.load(f)
        values = data.get("levy_weights", data.get("values"))
        spec = harness.SweepSpec(
            preset=data.get("preset", "uniform20"),
            algorithm=world.parse_algorithm(data.get("algorithm", "hybrid-abc-levy")),
            levy_weights=[float(v) for v in values] if values else harness.SweepSpec().levy_weights,
            seeds=(
                [int(s) for s in data["seeds"]]
                if isinstance(data.get("seeds"), list)
                else _parse_seeds(str(data.get("seeds", "20")))
            ),
            max_steps=int(data.get("max_steps", 5000)),
            params=data.get("params", {}),
            constraints=data.get("constraints", {}),
        )
        return spec
    return harness.SweepSpec(
        preset=args.preset,
        algorithm=world.parse_algorithm(args.algorithm or "hybrid-abc-levy"),
        levy_weights=_parse_values(args.values) if args.values else harness.SweepSpec().levy_weights,
        seeds=_parse_seeds(args.seeds) if args.seeds else list(range(20)),
        max_steps=args.max_steps if args.max_steps is not None else 5000,
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
        with open(out / "summary.csv", "w", newline="") as f:
            f.write("levy_weight,median_steps,iqr_steps,success_rate\n")
            for cell in result.cells:
                f.write(
                    f"{cell.levy_weight!r},{cell.median_steps!r},"
                    f"{cell.iqr_steps!r},{cell.success_rate!r}\n"
                )
        for cell in result.cells:
            tag = repr(cell.levy_weight)
            metrics.heatmap_to_pgm(cell.heatmap, out / f"heatmap_{tag}.pgm")
            metrics.heatmap_to_csv(cell.heatmap, out / f"heatmap_{tag}.csv")
    return EXIT_OK


def _cmd_compare(args) -> int:
    algorithms = [a for a in args.algorithms.split(",") if a.strip()]
    max_steps = args.max_steps if args.max_steps is not None else 5000
    result = harness.compare_algorithms(
        algorithms,
        preset=args.preset,
        seeds=_parse_seeds(args.seeds) if args.seeds else range(20),
        max_steps=max_steps,
        levy_weight=args.levy_weight,
        workers=args.workers,
    )
    for name, rate in result.success_rates.items():
        mine = [row for row in result.rows if row.algorithm == name]
        steps = harness._censored_steps([row.metrics for row in mine], max_steps)
        far = [row.far_covered for row in mine if row.far_covered is not None]
        far_text = f"{statistics.median(far):.1f}" if far else "NA"
        print(
            f"{name}: success_rate={rate:.2f} median_steps={statistics.median(steps):.1f} "
            f"median_far_covered={far_text}"
        )
    if args.out:
        out = _ensure_out(args.out)
        metrics.write_runs_csv([row.metrics for row in result.rows], out / "runs.csv")
        with open(out / "comparison.csv", "w", newline="") as f:
            f.write("algorithm,seed,steps_to_cover,covered_count,far_covered\n")
            for row in result.rows:
                steps = "NA" if row.metrics.steps_to_cover is None else row.metrics.steps_to_cover
                far = "" if row.far_covered is None else row.far_covered
                f.write(f"{row.algorithm},{row.seed},{steps},{row.metrics.covered_count},{far}\n")
        with open(out / "success.csv", "w", newline="") as f:
            f.write("algorithm,success_rate\n")
            for name, rate in result.success_rates.items():
                f.write(f"{name},{rate!r}\n")
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = world.load_scenario(args.scenario)
    config.validate()
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
    sweep.add_argument("--preset", default="uniform20", choices=sorted(world.PRESET_KINDS))
    sweep.add_argument("--algorithm", help="abc | pso | hybrid-abc-levy")
    sweep.add_argument("--values", help="comma-separated levy_weight values")
    sweep.add_argument("--seeds", help="count (e.g. 20) or comma-separated seed list")
    sweep.add_argument("--max-steps", type=int, default=None)
    sweep.add_argument("--out", help="directory for runs.csv, summary.csv, per-value heatmaps")
    sweep.add_argument("--workers", type=int, default=1)
    sweep.set_defaults(func=_cmd_sweep)

    compare = sub.add_parser("compare", help="run several algorithms on shared scenarios")
    compare.add_argument("--algorithms", required=True, help="comma list, e.g. abc,pso,hybrid")
    compare.add_argument("--preset", default="twocluster20", choices=sorted(world.PRESET_KINDS))
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
    except (OSError, json.JSONDecodeError) as exc:
        # JSONDecodeError subclasses ValueError, so file problems go first.
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValidationError, ConstraintError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
