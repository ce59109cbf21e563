"""Command-line interface: subcommands, artifacts, exit codes."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from levyswarm.cli import (
    EXIT_INVALID,
    EXIT_IO,
    EXIT_NOT_COVERED,
    EXIT_OK,
    _parse_seeds,
    _parse_values,
    main,
)
from levyswarm.harness import run_scenario
from levyswarm.metrics import heatmap_from_csv, read_runs_csv
from levyswarm.world import preset_scenario, save_scenario


class TestArgHelpers:
    def test_seed_count_expands_to_range(self):
        assert _parse_seeds("12") == list(range(12))

    def test_seed_list_passes_through(self):
        assert _parse_seeds("3,7,9") == [3, 7, 9]

    def test_values_parse(self):
        assert _parse_values("1.5,2.0,5") == [1.5, 2.0, 5.0]


class TestRunCommand:
    def test_preset_run_reports_and_exits_zero(self, capsys):
        code = main(["run", "--preset", "uniform20", "--seed", "0", "--max-steps", "30"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "scenario=uniform20" in out
        assert "seed=0" in out
        assert "algorithm=hybrid-abc-levy" in out

    def test_artifacts_written_and_parseable(self, tmp_path):
        out_dir = tmp_path / "artifacts"
        code = main(
            [
                "run", "--preset", "uniform20", "--seed", "1", "--max-steps", "25",
                "--out", str(out_dir), "--trajectories",
            ]
        )
        assert code == EXIT_OK
        rows = read_runs_csv(out_dir / "runs.csv")
        assert len(rows) == 1
        assert rows[0]["seed"] == 1
        assert rows[0]["algorithm"] == "hybrid-abc-levy"
        assert (out_dir / "heatmap.pgm").read_text().startswith("P2\n100 100\n255\n")
        heat = heatmap_from_csv(out_dir / "heatmap.csv")
        assert heat.counts.shape == (100, 100)
        curve = (out_dir / "coverage_curve.csv").read_text().splitlines()
        assert curve[0] == "step,covered_count"
        assert len(curve) >= 2
        traj = (out_dir / "trajectories.csv").read_text().splitlines()
        assert traj[0] == "step,uav,x,y"
        assert len(traj) == 1 + 5 * len(curve[1:])  # n_uavs rows per recorded step
        expected = run_scenario(
            preset_scenario("uniform20", 1, max_steps=25), record_trajectories=True
        ).trajectories
        for line in traj[1:]:
            step, uav, x, y = line.split(",")
            assert [float(x), float(y)] == expected[int(step), int(uav)].tolist()

    def test_rerun_writes_identical_bytes(self, tmp_path):
        args = ["run", "--preset", "twocluster20", "--seed", "4", "--max-steps", "25"]
        assert main([*args, "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main([*args, "--out", str(tmp_path / "b")]) == EXIT_OK
        for name in ("runs.csv", "heatmap.pgm", "heatmap.csv", "coverage_curve.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_require_coverage_exit_code(self, capsys):
        code = main(
            [
                "run", "--preset", "uniform20", "--seed", "0", "--max-steps", "1",
                "--require-coverage",
            ]
        )
        assert code == EXIT_NOT_COVERED
        assert "coverage incomplete" in capsys.readouterr().err

    def test_scenario_file_run_with_algorithm_override(self, tmp_path):
        path = tmp_path / "layout.json"
        save_scenario(preset_scenario("uniform20", seed=2, max_steps=15), path)
        out_dir = tmp_path / "out"
        code = main(
            ["run", "--scenario", str(path), "--algorithm", "abc", "--out", str(out_dir)]
        )
        assert code == EXIT_OK
        assert read_runs_csv(out_dir / "runs.csv")[0]["algorithm"] == "abc"

    def test_seed_override_rebuilds_preset_layout(self, tmp_path, capsys):
        path = tmp_path / "layout.json"
        save_scenario(preset_scenario("uniform20", seed=2, max_steps=15), path)
        code = main(["run", "--scenario", str(path), "--seed", "9", "--max-steps", "10"])
        assert code == EXIT_OK
        assert "seed=9" in capsys.readouterr().out

    def test_seed_override_keeps_the_file_fields(self, tmp_path):
        config = preset_scenario(
            "uniform20", seed=2, max_steps=10, n_uavs=3, start_position=[10.0, 10.0]
        )
        path = tmp_path / "layout.json"
        save_scenario(config, path)
        out_dir = tmp_path / "out"
        args = ["run", "--scenario", str(path), "--seed", "4", "--out", str(out_dir)]
        assert main([*args, "--trajectories"]) == EXIT_OK
        expected = preset_scenario(
            "uniform20", seed=4, max_steps=10, n_uavs=3, start_position=[10.0, 10.0]
        )
        trajectories = run_scenario(expected, record_trajectories=True).trajectories
        rows = (out_dir / "trajectories.csv").read_text().splitlines()[1:]
        assert [[float(v) for v in row.split(",")[2:]] for row in rows] == (
            trajectories.reshape(-1, 2).tolist()
        )

    def test_unknown_preset_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--preset", "uniform21"])
        assert excinfo.value.code == 2

    def test_invalid_configuration_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"hotspots": [{"x": 1, "y": 1}], "n_uavs": 0}))
        assert main(["run", "--scenario", str(path)]) == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [
            {"grid": {"depth": 1}},
            {"grid": [100, 100]},
            {"params": [1]},
            {"params": {"pso": {"foo": 1}}},
            {"params": {"pso": [1]}},
            {"constraints": "tight"},
            {"hotspots": 5},
            {"hotspots": [{"x": 1, "y": 1, "weight": [1]}]},
            {"n_uavs": [5]},
            {"seed": None},
            {"start": {"x": 1}},
            {"start": "50"},
            {"start": ["50", "0"]},
            {"start": [50, 0, 7]},
            {"dt": "0.5"},
            {"dt": 10**400},
            {"hotspots": [{"x": "10", "y": 1}]},
            {"hotspots": [{"x": True, "y": 1}]},
            {"hotspots": [{"x": 1, "y": 1, "weight": "2"}]},
            {"hotspots": [{"x": 1, "y": 1, "covered": False}]},
            {"hotspots": [5]},
            5,
            [{"x": 1, "y": 1}],
        ],
    )
    def test_wrong_shape_scenario_exits_one(self, tmp_path, capsys, fields):
        path = tmp_path / "bad.json"
        if isinstance(fields, dict):
            fields = {"hotspots": [{"x": 1, "y": 1}], **fields}
        path.write_text(json.dumps(fields))
        assert main(["validate", "--scenario", str(path)]) == EXIT_INVALID
        assert main(["run", "--scenario", str(path)]) == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [
            {"constraints": {"max_step_size": math.inf}},
            {"constraints": {"coverage_radius": math.inf}},
            {"constraints": {"potential_field_gain": math.inf}},
            {"constraints": {"safe_zone_radius": math.nan}},
            {"params": {"levy_weight": math.inf}},
            {"params": {"explore_coeff": math.nan}},
            {"params": {"pso": {"inertia": -math.inf}}},
            {"params": {"levy_weight": "3"}},
            {"dt": math.inf},
            {"hotspots": [{"x": 1, "y": 1, "weight": math.inf}]},
        ],
    )
    def test_non_finite_value_exits_one(self, tmp_path, capsys, fields):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"hotspots": [{"x": 1, "y": 1}], "max_steps": 5, **fields}))
        assert main(["run", "--scenario", str(path)]) == EXIT_INVALID
        assert "must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [
            {"params": {"stagnation_limit": "5"}},
            {"params": {"stagnation_limit": True}},
            {"params": {"stagnation_limit": 2.5}},
            {"params": {"shaping": "false"}},
            {"params": {"adaptive_lambda": "no"}},
            {"params": {"mantegna_normalized": "false"}},
            {"params": {"mantegna_normalized": 0}},
            {"n_uavs": 2.7},
            {"n_uavs": "5"},
            {"max_steps": True},
            {"seed": 1.5},
            {"grid": {"height": True}},
            {"hotspots": None, "kind": "uniform", "n_hotspots": 2.5},
        ],
    )
    def test_wrongly_typed_int_or_bool_exits_one(self, tmp_path, capsys, fields):
        scenario = {"hotspots": [{"x": 1, "y": 1}], "max_steps": 5, **fields}
        if scenario["hotspots"] is None:
            del scenario["hotspots"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", "--scenario", str(path)]) == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    def test_integral_floats_load_as_ints(self, tmp_path):
        path = tmp_path / "floats.json"
        path.write_text(
            json.dumps(
                {
                    "hotspots": [{"x": 1, "y": 1}],
                    "n_uavs": 3.0,
                    "max_steps": 5.0,
                    "seed": 2.0,
                    "params": {"stagnation_limit": 50.0, "exploit_sign": -1.0},
                }
            )
        )
        assert main(["run", "--scenario", str(path)]) == EXIT_OK

    @pytest.mark.parametrize("beta, code", [(1e-3, EXIT_OK), (1e-4, EXIT_INVALID)])
    def test_tiny_levy_beta_runs_or_is_rejected(self, tmp_path, capsys, beta, code):
        path = tmp_path / "tiny-beta.json"
        path.write_text(
            json.dumps(
                {"hotspots": [{"x": 50, "y": 90}], "max_steps": 40, "params": {"levy_beta": beta}}
            )
        )
        assert main(["run", "--scenario", str(path)]) == code
        if code == EXIT_INVALID:
            assert "error:" in capsys.readouterr().err

    def test_missing_scenario_file_exits_two(self, tmp_path, capsys):
        assert main(["run", "--scenario", str(tmp_path / "nope.json")]) == EXIT_IO
        assert "io error:" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--scenario", str(path)]) == EXIT_IO


class TestSweepCommand:
    def test_sweep_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code = main(
            [
                "sweep", "--values", "3.0", "--seeds", "0,1", "--max-steps", "25",
                "--out", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        assert "levy_weight" in capsys.readouterr().out
        rows = read_runs_csv(out_dir / "runs.csv")
        assert len(rows) == 2
        assert {r["levy_weight"] for r in rows} == {3.0}
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert summary[0] == "levy_weight,median_steps,iqr_steps,success_rate"
        assert len(summary) == 2
        assert (out_dir / "heatmap_3.0.pgm").exists()
        heat = heatmap_from_csv(out_dir / "heatmap_3.0.csv")
        assert heat.counts.sum() > 0

    def test_sweep_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "preset": "uniform20",
                    "algorithm": "hybrid",
                    "levy_weights": [2.0, 3.0],
                    "seeds": "2",
                    "max_steps": 20,
                }
            )
        )
        code = main(["sweep", "--spec", str(spec_path)])
        assert code == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 3  # header + one row per levy_weight

    @pytest.mark.parametrize(
        "section",
        [
            {"params": {"abc_limit_neighbors": 2}},
            {"constraints": [1]},
            {"max_step": 3},
            {"values": [3.0]},
            {"levy_weights": ["3"]},
            {"levy_weights": 3.0},
            {"seeds": [True]},
            {"seeds": None},
            {"max_steps": 5.7},
            {"preset": ["uniform20"]},
            [{"levy_weights": [3.0]}],
        ],
    )
    def test_spec_with_unknown_or_malformed_section_exits_one(self, tmp_path, capsys, section):
        spec_path = tmp_path / "spec.json"
        if isinstance(section, dict):
            section = {"levy_weights": [3.0], "seeds": [0], "max_steps": 5, **section}
        spec_path.write_text(json.dumps(section))
        assert main(["sweep", "--spec", str(spec_path)]) == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    def test_duplicate_values_exit_one(self, capsys):
        code = main(["sweep", "--values", "3.0,3.0", "--seeds", "1", "--max-steps", "5"])
        assert code == EXIT_INVALID
        assert "error:" in capsys.readouterr().err


class TestCompareCommand:
    def test_compare_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "cmp"
        code = main(
            [
                "compare", "--algorithms", "hybrid,abc", "--preset", "twocluster20",
                "--seeds", "1", "--max-steps", "25", "--out", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "hybrid-abc-levy: success_rate=" in out
        assert "abc: success_rate=" in out
        comparison = (out_dir / "comparison.csv").read_text().splitlines()
        assert comparison[0] == "algorithm,seed,steps_to_cover,covered_count,far_covered"
        assert len(comparison) == 3
        for line in comparison[1:]:
            assert line.split(",")[4] != ""  # two-cluster preset tallies far coverage
        success = (out_dir / "success.csv").read_text().splitlines()
        assert success[0] == "algorithm,success_rate"
        assert len(read_runs_csv(out_dir / "runs.csv")) == 2

    def test_duplicate_algorithms_exit_one(self, capsys):
        code = main(
            ["compare", "--algorithms", "hybrid,hybrid", "--seeds", "1", "--max-steps", "5"]
        )
        assert code == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    def test_duplicate_seeds_exit_one(self, capsys):
        code = main(
            ["compare", "--algorithms", "hybrid,abc", "--seeds", "1,1,", "--max-steps", "5"]
        )
        assert code == EXIT_INVALID
        assert "must be distinct" in capsys.readouterr().err


class TestValidateCommand:
    def test_valid_file(self, tmp_path, capsys):
        path = tmp_path / "ok.json"
        save_scenario(preset_scenario("twocluster20", seed=0), path)
        assert main(["validate", "--scenario", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("OK: twocluster20 (20 hotspots")

    def test_missing_file(self, tmp_path):
        assert main(["validate", "--scenario", str(tmp_path / "gone.json")]) == EXIT_IO

    def test_invalid_values(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"hotspots": [{"x": -5, "y": 1}]}))
        assert main(["validate", "--scenario", str(path)]) == EXIT_INVALID

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"hotspots": [{"x": 1, "y": 1}], "speed": 3}))
        assert main(["validate", "--scenario", str(path)]) == EXIT_INVALID
