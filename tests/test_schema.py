"""The typed field table: one rule per field, shared by the JSON loaders and validate().

The fuzz draws values for every float, int, bool and str field of the scenario
dataclasses, so a new field is fuzzed by construction.  It only loads and
validates: no draw is ever run or allocated beyond a size cap.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyswarm.cli import _parse_seeds, _scenario_from_args, _sweep_spec_from_args, build_parser
from levyswarm.world import (
    _COEFFICIENT,
    _POSITIVE,
    _RANGES,
    AlgorithmParams,
    ConstraintParams,
    GridConfig,
    Hotspot,
    PsoParams,
    ScenarioConfig,
    ValidationError,
    load_fields,
    make_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

HOTSPOT = {"x": 1.0, "y": 1.0}
TYPES = {"float": float, "int": int, "bool": bool, "str": str}

# Each section of a scenario file: its path in the JSON and its dataclass.
SECTIONS = [
    ((), ScenarioConfig),
    (("grid",), GridConfig),
    (("params",), AlgorithmParams),
    (("params", "pso"), PsoParams),
    (("constraints",), ConstraintParams),
    (("hotspots", 0), Hotspot),
]
# (path, name, kind) of every typed JSON key: the typed dataclass fields plus
# the typed keys that are not fields.
KEYS = [
    (path, f.name, f.type)
    for path, cls in SECTIONS
    for f in fields(cls)
    if f.type in TYPES
] + [((), "n_hotspots", "int"), (("hotspots", 0), "x", "float"), (("hotspots", 0), "y", "float")]

WRONG_KINDS = st.one_of(
    st.none(), st.text(max_size=3), st.lists(st.integers(), max_size=2), st.just({"a": 1})
)
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan, 10**400])


def values(name: str, kind: str):
    """Values of the field's own kind, which may still break its bound (sizes up
    to cap + 2), or else of a wrong kind: bools, non-finite numbers, fractions."""
    wrong = st.one_of(st.booleans(), NON_FINITE, WRONG_KINDS)
    if kind == "int":
        low, high = _RANGES.get(name, (-3, 3))
        ints = st.integers(low - 2, high + 2 if high < math.inf else 10**6)
        fractions = st.floats(-1e6, 1e6).filter(lambda v: not v.is_integer())
        return st.one_of(ints, ints.map(float), st.one_of(fractions, wrong))
    if kind == "float":
        # A capped float also draws its caps and the floats on either side.
        caps = [b for b in _RANGES.get(name, ()) if math.isfinite(b)]
        edges = [
            v for b in caps for v in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf))
        ]
        finite = st.floats(allow_nan=False, allow_infinity=False)
        return st.one_of(finite, st.sampled_from(edges or [0.0]), st.integers(-5, 5), wrong)
    if kind == "bool":
        return st.one_of(st.booleans(), st.sampled_from([0, 1, "false", "true", None]))
    return st.one_of(st.text(max_size=8), st.integers(), wrong)


@st.composite
def scenarios(draw) -> dict:
    scenario = {"hotspots": [dict(HOTSPOT)]}
    for path, name, kind in draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=3)):
        if name == "n_hotspots":
            scenario.pop("hotspots", None)
            scenario["kind"] = "uniform"
        section = scenario
        for step in path:
            if step == 0:
                section = section[0]
            else:
                section = section.setdefault(step, [dict(HOTSPOT)] if step == "hotspots" else {})
        section[name] = draw(values(name, kind))
    return scenario


def _typed_parts(config: ScenarioConfig):
    yield from (config, config.grid, config.params, config.params.pso, config.constraints)
    yield from config.hotspots


class TestLoaderFuzz:
    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(scenarios())
    def test_every_draw_is_rejected_or_loads_exactly(self, scenario):
        try:
            config = scenario_from_dict(scenario)
        except ValidationError:
            return
        config.validate()
        for part in _typed_parts(config):
            for f in fields(part):
                if f.type in TYPES:
                    assert type(getattr(part, f.name)) is TYPES[f.type], (f.name, scenario)
        data = scenario_to_dict(config)
        assert scenario_to_dict(scenario_from_dict(json.loads(json.dumps(data)))) == data


@st.composite
def generated_layouts(draw) -> dict:
    """A valid kind-generated scenario on any grid up to the cap, with the
    start drawn inside the grid: every draw must load."""
    side = st.integers(1, _RANGES["width"][1])
    width, height = draw(side), draw(side)
    return {
        "kind": draw(st.sampled_from(["uniform", "twocluster"])),
        "n_hotspots": draw(st.integers(1, 40)),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "grid": {"width": width, "height": height},
        "start": [draw(st.floats(0, width)), draw(st.floats(0, height))],
    }


class TestValidLayoutFuzz:
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(generated_layouts())
    def test_every_valid_layout_loads(self, scenario):
        config = scenario_from_dict(scenario)
        assert len(config.hotspots) == scenario["n_hotspots"]
        assert list(config.start_position) == scenario["start"]
        data = scenario_to_dict(config)
        assert scenario_to_dict(scenario_from_dict(json.loads(json.dumps(data)))) == data


class TestSmallGrid:
    """A generated layout on a grid narrower than the default start (50, 0)."""

    SCENARIO = {
        "kind": "uniform", "n_hotspots": 3, "grid": {"width": 20, "height": 20}, "start": [10, 0]
    }

    def test_kind_file_with_its_own_start_loads(self):
        config = scenario_from_dict(self.SCENARIO)
        assert config.grid == GridConfig(20, 20) and list(config.start_position) == [10, 0]
        assert all(config.grid.contains(h.position) for h in config.hotspots)

    def test_preset_id_file_takes_a_seed(self, tmp_path):
        path = tmp_path / "small.json"
        path.write_text(json.dumps({**self.SCENARIO, "n_hotspots": 20, "scenario_id": "uniform20"}))
        args = argparse.Namespace(
            scenario=str(path), preset=None, algorithm=None, seed=4, levy_weight=None, max_steps=None
        )
        config = _scenario_from_args(args)
        assert config.seed == 4 and list(config.start_position) == [10, 0]
        assert len(config.hotspots) == 20
        assert all(config.grid.contains(h.position) for h in config.hotspots)


# The values a scenario file sets, pinned so that a new knob is added here on
# purpose: each section's fields, in order, and the file keys that are no
# field.  start stands for start_position, x and y for a hotspot's position,
# and kind and n_hotspots name a generated layout in place of hotspots.
SETTABLE = {
    GridConfig: ("width", "height"),
    Hotspot: ("position", "weight"),
    PsoParams: ("inertia", "cognitive", "social"),
    AlgorithmParams: (
        "levy_weight", "levy_beta", "explore_coeff", "exploit_coeff", "adaptive_lambda",
        "sigma_sensitivity", "pso", "stagnation_limit", "shaping_epsilon", "mantegna_normalized",
    ),
    ConstraintParams: (
        "max_step_size", "safe_zone_radius", "coverage_radius", "collision_radius",
        "potential_field_gain", "no_hotspot_threshold_radius",
    ),
    ScenarioConfig: (
        "grid", "hotspots", "n_uavs", "start_position", "algorithm", "params", "constraints",
        "seed", "max_steps", "dt", "scenario_id",
    ),
}
FILE_ONLY = {ScenarioConfig: ("kind", "n_hotspots", "start"), Hotspot: ("x", "y")}


class TestSettableValues:
    def test_every_section_field_is_pinned(self):
        assert {cls: tuple(f.name for f in fields(cls)) for cls in SETTABLE} == SETTABLE

    def test_algorithm_params_set_twelve_values(self):
        # pso is a section of three.
        assert len(SETTABLE[AlgorithmParams]) - 1 + len(SETTABLE[PsoParams]) == 12

    def test_file_only_keys_are_no_fields_and_load(self):
        for cls, keys in FILE_ONLY.items():
            assert not set(keys) & set(SETTABLE[cls])
        generated = scenario_from_dict({"kind": "uniform", "n_hotspots": 3, "start": [1, 2]})
        assert len(generated.hotspots) == 3 and generated.start_position == (1.0, 2.0)
        listed = scenario_from_dict({"hotspots": [{"x": 4, "y": 5}]})
        assert listed.hotspots[0].position == (4.0, 5.0)


# Every dataclass field that shares a name with a row of the bounds table.
# The table is keyed by bare name, so a new field of that name anywhere in
# the package has to be added here on purpose.
BOUND_FIELDS = {
    "dt": {"ScenarioConfig"},
    "weight": {"Hotspot"},
    "levy_weight": {"AlgorithmParams", "SweepCell", "RunMetrics"},
    "levy_beta": {"AlgorithmParams"},
    "sigma_sensitivity": {"AlgorithmParams"},
    "stagnation_limit": {"AlgorithmParams"},
    "max_step_size": {"ConstraintParams"},
    "safe_zone_radius": {"ConstraintParams"},
    "coverage_radius": {"ConstraintParams"},
    "collision_radius": {"ConstraintParams"},
    "potential_field_gain": {"ConstraintParams"},
    "inertia": {"PsoParams"},
    "cognitive": {"PsoParams"},
    "social": {"PsoParams"},
    "explore_coeff": {"AlgorithmParams"},
    "exploit_coeff": {"AlgorithmParams"},
    "shaping_epsilon": {"AlgorithmParams"},
    "no_hotspot_threshold_radius": {"ConstraintParams"},
    "width": {"GridConfig", "Heatmap"},
    "height": {"GridConfig", "Heatmap"},
    "n_uavs": {"ScenarioConfig"},
    "n_hotspots": {"RunMetrics"},
    "max_steps": {"ScenarioConfig", "SweepSpec"},
    "seeds": {"SweepSpec"},
    "workers": set(),
    "seed": {"ScenarioConfig", "CompareRow", "RunMetrics", "RandomSource"},
}
MODULES = ["constraints", "harness", "metrics", "optimizers", "rng", "world"]


class TestBoundsTable:
    def test_each_bound_names_the_fields_it_was_written_for(self):
        owners = {name: set() for name in _POSITIVE | set(_RANGES)}
        for module in MODULES:
            for cls in vars(importlib.import_module(f"levyswarm.{module}")).values():
                if isinstance(cls, type) and dataclasses.is_dataclass(cls):
                    for f in fields(cls):
                        if f.name in owners:
                            owners[f.name].add(cls.__name__)
        assert owners == BOUND_FIELDS

    def test_a_field_without_a_load_rule_is_refused(self):
        with pytest.raises(TypeError, match="start_position"):
            load_fields(ScenarioConfig, {}, "scenario", hotspots=None, algorithm=None)


class TestUnifiedRule:
    def test_integral_float_grid_loads_as_int(self):
        config = scenario_from_dict({"hotspots": [HOTSPOT], "grid": {"width": 100.0}})
        assert config.grid.width == 100 and type(config.grid.width) is int

    def test_integral_number_loads_as_float(self):
        config = scenario_from_dict({"hotspots": [HOTSPOT], "params": {"levy_weight": 3}})
        assert config.params.levy_weight == 3.0 and type(config.params.levy_weight) is float

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ScenarioConfig(hotspots=[Hotspot(position=[1.0, 1.0])], n_uavs=3.0),
            lambda: ScenarioConfig(hotspots=[Hotspot(position=[1.0, 1.0])], seed=2.0),
            lambda: GridConfig(width=100.0),
        ],
    )
    def test_validate_rejects_a_float_in_an_int_field(self, build):
        with pytest.raises(ValidationError, match="must be an integer"):
            build().validate()

    def test_unknown_kind_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="unknown scenario kind"):
            scenario_from_dict({"kind": "foo"})

    def test_kind_is_case_blind(self):
        assert len(scenario_from_dict({"kind": "TwoCluster", "n_hotspots": 4}).hotspots) == 4


# (path, name) of every float key capped above as a coefficient; below, the
# cap is the coefficient cap's negative, or 0 for shaping_epsilon.
CAPPED = [
    (path, name)
    for path, name, kind in KEYS
    if kind == "float" and _RANGES.get(name, (0, 0))[1] == _COEFFICIENT[1]
]


def _section(config: ScenarioConfig, path):
    """The part of config that the JSON path names."""
    part = config
    for step in path:
        part = part[step] if step == 0 else getattr(part, step)
    return part


class TestCoefficientCaps:
    """A coefficient or length of any magnitude up to its cap runs
    (tests/test_cli.py runs each one there); a larger one is rejected up
    front."""

    def test_the_unbounded_coefficients_are_capped(self):
        assert sorted(name for _, name in CAPPED if _RANGES[name] == _COEFFICIENT) == sorted(
            [
                "inertia", "cognitive", "social", "potential_field_gain", "explore_coeff",
                "exploit_coeff", "weight", "levy_weight", "max_step_size", "safe_zone_radius",
            ]
        )
        # A weight, 0 for off.
        assert _RANGES["shaping_epsilon"] == (0.0, 1e100)

    @pytest.mark.parametrize("path, name", CAPPED)
    def test_cap_is_accepted_and_the_next_float_rejected(self, path, name):
        def scenario(value):
            data = {"hotspots": [dict(HOTSPOT)]}
            section = data
            for step in path:
                section = section[step] if step == 0 else section.setdefault(step, {})
            section[name] = value
            return data

        low, high = _RANGES[name]
        edges = [(low, math.nextafter(low, -math.inf)), (high, math.nextafter(high, math.inf))]
        for bound, beyond in edges:
            if name in _POSITIVE and bound < 0.0:
                continue
            if name == "shaping_epsilon" and bound > 1.0:
                # validate() holds epsilon * sum(w) below min(w): it refuses
                # an epsilon above 1 in every scenario.
                for value, message in ((bound, "shaping term"), (beyond, f"{name} must lie in")):
                    with pytest.raises(ValidationError, match=message):
                        scenario_from_dict(scenario(value))
                continue
            config = scenario_from_dict(scenario(bound))
            assert getattr(_section(config, path), name) == bound
            with pytest.raises(ValidationError, match=f"{name} must lie in"):
                scenario_from_dict(scenario(beyond))
            if path[:1] == ("hotspots",):
                # A hotspot is frozen: put a changed copy in its place.
                config.hotspots[0] = dataclasses.replace(config.hotspots[0], **{name: beyond})
            else:
                setattr(_section(config, path), name, beyond)
            with pytest.raises(ValidationError, match=f"{name} must lie in"):
                config.validate()


class TestSizeCaps:
    @pytest.mark.parametrize(
        "section, name",
        [("grid", "width"), ("grid", "height"), (None, "n_uavs"), (None, "max_steps")],
    )
    def test_cap_is_accepted_and_one_more_rejected(self, section, name):
        cap = _RANGES[name][1]

        def scenario(value):
            fields_ = {name: value}
            return {"hotspots": [HOTSPOT], **({section: fields_} if section else fields_)}

        scenario_from_dict(scenario(cap)).validate()
        with pytest.raises(ValidationError, match=name):
            scenario_from_dict(scenario(cap + 1))
        config = scenario_from_dict(scenario(cap))
        if section:
            config.grid = GridConfig(**{name: cap + 1})
        else:
            setattr(config, name, cap + 1)
        with pytest.raises(ValidationError, match=name):
            config.validate()

    def test_hotspot_count_cap(self):
        cap = _RANGES["n_hotspots"][1]
        with pytest.raises(ValidationError, match="n_hotspots"):
            scenario_from_dict({"kind": "uniform", "n_hotspots": cap + 1})
        with pytest.raises(ValidationError, match="n_hotspots"):
            make_scenario("uniform", cap + 1, seed=0)

    def test_seed_count_cap(self, tmp_path):
        cap = _RANGES["seeds"][1]
        assert _parse_seeds(str(cap)) == list(range(cap))
        with pytest.raises(ValidationError, match="seeds"):
            _parse_seeds(str(cap + 1))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seeds": cap + 1}))
        with pytest.raises(ValidationError, match="seeds"):
            _sweep_spec_from_args(build_parser().parse_args(["sweep", "--spec", str(spec)]))

    def test_spec_file_rejects_record_trajectories(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"record_trajectories": True}))
        with pytest.raises(ValidationError, match="unknown sweep spec keys"):
            _sweep_spec_from_args(build_parser().parse_args(["sweep", "--spec", str(spec)]))
