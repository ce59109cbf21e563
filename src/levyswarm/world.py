"""Grid world, hotspots, swarm state, scenario configuration and generators.

Agents move in the continuous domain [0, width] x [0, height]; the integer
cell grid exists only for heatmap binning.  Scenario generation is a pure
function of (kind, n_hotspots, seed, grid): identical inputs reproduce the
hotspot list bit for bit.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .rng import SCENARIO_STREAM, RandomSource, mantegna_sigma


class ValidationError(ValueError):
    """A configuration value violates its documented invariant."""


def _is_integer(value) -> bool:
    """An int, or an integral float such as 50.0, but never a bool."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and value.is_integer())


def _is_number(value) -> bool:
    """A finite int or float, but never a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _require_typed(obj, where: str = ""):
    """Reject a float, int or bool field of the dataclass obj holding another kind.

    Floats must be finite numbers.  Ints may be written as integral floats
    (50.0) but not as bools, strings or fractions.  Bools must be JSON
    booleans: the string "false" is truthy and would switch a feature on.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type == "float":
            ok, want = _is_number(value), "a finite number"
        elif f.type == "int":
            ok, want = _is_integer(value), "an integer"
        elif f.type == "bool":
            ok, want = isinstance(value, bool), "true or false"
        else:
            continue
        if not ok:
            raise ValidationError(f"{where}{f.name} must be {want}, got {value!r}")


class Algorithm(str, enum.Enum):
    ABC = "abc"
    PSO = "pso"
    HYBRID_ABC_LEVY = "hybrid-abc-levy"


_ALGORITHM_ALIASES = {
    "abc": Algorithm.ABC,
    "pso": Algorithm.PSO,
    "hybrid": Algorithm.HYBRID_ABC_LEVY,
    "hybrid-abc-levy": Algorithm.HYBRID_ABC_LEVY,
    "hybrid_abc_levy": Algorithm.HYBRID_ABC_LEVY,
    "hybridabclevy": Algorithm.HYBRID_ABC_LEVY,
}


def parse_algorithm(name) -> Algorithm:
    if isinstance(name, Algorithm):
        return name
    try:
        return _ALGORITHM_ALIASES[str(name).strip().lower()]
    except KeyError:
        raise ValidationError(
            f"unknown algorithm {name!r}; expected one of abc, pso, hybrid-abc-levy"
        ) from None


class ScenarioKind(str, enum.Enum):
    UNIFORM_RANDOM = "uniform"
    TWO_CLUSTER = "twocluster"
    CUSTOM = "custom"


@dataclass(frozen=True)
class GridConfig:
    width: int = 100
    height: int = 100

    def validate(self):
        if not all(
            isinstance(v, int) and not isinstance(v, bool) for v in (self.width, self.height)
        ):
            raise ValidationError("grid width/height must be integers")
        if self.width < 1 or self.height < 1:
            raise ValidationError(f"grid must be at least 1x1, got {self.width}x{self.height}")

    def contains(self, position) -> bool:
        x, y = float(position[0]), float(position[1])
        return 0.0 <= x <= self.width and 0.0 <= y <= self.height


@dataclass
class Hotspot:
    position: np.ndarray
    weight: float = 1.0
    covered: bool = False

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)


@dataclass
class PsoParams:
    inertia: float = 0.7
    cognitive: float = 1.5
    social: float = 1.5


@dataclass
class AlgorithmParams:
    levy_weight: float = 3.0
    # Cauchy-tailed flights: long relocations are common enough that the
    # flight-length scale (levy_weight) matters at the 100x100 benchmark
    # scale.  Lighter tails (e.g. the textbook 1.5) make nearly every draw a
    # single-step hop, which washes out the weight sweep.
    levy_beta: float = 1.0
    explore_coeff: float = 0.02
    exploit_coeff: float = 0.02
    adaptive_lambda: bool = False
    sigma_sensitivity: float = 1.0
    pso: PsoParams = field(default_factory=PsoParams)
    stagnation_limit: int = 50
    # Optional proximity shaping of the objective (off by default: the plain
    # coverage sum is the benchmark objective for every algorithm).
    shaping: bool = False
    shaping_epsilon: float = 0.01
    mantegna_normalized: bool = True
    # +1 nudges a high-fitness UAV away from its better neighbor (the update
    # as written); -1 flips it to the attractive variant.
    exploit_sign: int = 1

    def validate(self):
        _require_typed(self)
        _require_typed(self.pso, "pso.")
        if not 0.0 < self.levy_beta <= 2.0:
            raise ValidationError(f"levy_beta must lie in (0, 2], got {self.levy_beta}")
        try:
            mantegna_sigma(self.levy_beta)
        except OverflowError:
            raise ValidationError(
                f"levy_beta={self.levy_beta} is too small: the Mantegna scale overflows"
            ) from None
        if not self.levy_weight > 0.0:
            raise ValidationError(f"levy_weight must be positive, got {self.levy_weight}")
        if self.stagnation_limit < 1:
            raise ValidationError(f"stagnation_limit must be >= 1, got {self.stagnation_limit}")
        if not self.sigma_sensitivity > 0.0:
            raise ValidationError("sigma_sensitivity must be positive")
        if self.shaping and not self.shaping_epsilon > 0.0:
            raise ValidationError("shaping_epsilon must be positive when shaping is on")
        if self.exploit_sign not in (1, -1):
            raise ValidationError("exploit_sign must be +1 or -1")


@dataclass
class ConstraintParams:
    max_step_size: float = 5.0
    safe_zone_radius: float = 2.0
    coverage_radius: float = 3.0
    collision_radius: float = 1.0
    potential_field_gain: float = 1.0
    no_hotspot_threshold_radius: float = 15.0

    def validate(self):
        _require_typed(self)
        if not self.max_step_size > 0.0:
            raise ValidationError("max_step_size must be positive")
        if not self.coverage_radius > 0.0:
            raise ValidationError("coverage_radius must be positive")
        if not 0.0 < self.collision_radius <= self.safe_zone_radius:
            raise ValidationError(
                "collision_radius must satisfy 0 < collision_radius <= safe_zone_radius, "
                f"got {self.collision_radius} vs {self.safe_zone_radius}"
            )
        if not self.potential_field_gain > 0.0:
            raise ValidationError("potential_field_gain must be positive")
        if not self.no_hotspot_threshold_radius > 0.0:
            raise ValidationError("no_hotspot_threshold_radius must be positive")


@dataclass
class UavState:
    position: np.ndarray
    fitness: float = 0.0
    stagnation: int = 0
    # Reference value for the stagnation counter: the best fitness this agent
    # has observed in the run.  Doubles as the PSO personal-best fitness.
    best_fitness: float = -math.inf
    personal_best: np.ndarray | None = None
    velocity: np.ndarray | None = None
    # Active relocation waypoint: set while the agent is committed to a
    # multi-step traversal (a long Levy flight or a scout reset), cleared on
    # arrival.  The agent flies toward it at the per-step speed cap.
    transit_target: np.ndarray | None = None

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)


@dataclass
class SwarmState:
    uavs: list[UavState]
    global_best_position: np.ndarray
    global_best_fitness: float = -math.inf
    step: int = 0
    covered_count: int = 0

    def observe(self, position: np.ndarray, fitness: float):
        """Fold one fitness evaluation into the running global best."""
        if fitness > self.global_best_fitness:
            self.global_best_fitness = fitness
            self.global_best_position = np.array(position, dtype=float)

    def positions(self) -> np.ndarray:
        return np.array([u.position for u in self.uavs])


@dataclass
class ScenarioConfig:
    grid: GridConfig = field(default_factory=GridConfig)
    hotspots: list[Hotspot] = field(default_factory=list)
    n_uavs: int = 5
    start_position: np.ndarray = field(default_factory=lambda: np.array([50.0, 0.0]))
    algorithm: Algorithm = Algorithm.HYBRID_ABC_LEVY
    params: AlgorithmParams = field(default_factory=AlgorithmParams)
    constraints: ConstraintParams = field(default_factory=ConstraintParams)
    seed: int = 0
    max_steps: int = 5000
    dt: float = 0.5
    scenario_id: str = "custom"

    def __post_init__(self):
        self.start_position = np.asarray(self.start_position, dtype=float)
        self.algorithm = parse_algorithm(self.algorithm)

    def validate(self):
        self.grid.validate()
        self.params.validate()
        self.constraints.validate()
        _require_typed(self)
        if not self.hotspots:
            raise ValidationError("scenario needs at least one hotspot")
        for i, h in enumerate(self.hotspots):
            _require_typed(h, f"hotspot {i} ")
            if not self.grid.contains(h.position):
                raise ValidationError(
                    f"hotspot {i} at ({h.position[0]}, {h.position[1]}) lies outside the "
                    f"{self.grid.width}x{self.grid.height} grid"
                )
            if not h.weight > 0.0:
                raise ValidationError(f"hotspot {i} weight must be positive, got {h.weight}")
        if not self.grid.contains(self.start_position):
            raise ValidationError("start_position lies outside the grid")
        if self.n_uavs < 1:
            raise ValidationError(f"n_uavs must be >= 1, got {self.n_uavs}")
        if not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.max_steps < 1:
            raise ValidationError(f"max_steps must be >= 1, got {self.max_steps}")
        if not self.dt > 0.0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if self.params.shaping:
            total_w = sum(h.weight for h in self.hotspots)
            min_w = min(h.weight for h in self.hotspots)
            if not self.params.shaping_epsilon * total_w < min_w:
                raise ValidationError(
                    "shaping term must stay below the smallest coverage increment: "
                    f"epsilon*sum(w)={self.params.shaping_epsilon * total_w:.6g} "
                    f"vs min(w)={min_w:.6g}"
                )
        return self


def make_swarm(config: ScenarioConfig) -> SwarmState:
    """All UAVs at the start position; separation happens in the run pipeline."""
    uavs = []
    for _ in range(config.n_uavs):
        uav = UavState(position=config.start_position.copy())
        if config.algorithm is Algorithm.PSO:
            uav.personal_best = config.start_position.copy()
            uav.velocity = np.zeros(2)
        uavs.append(uav)
    return SwarmState(uavs=uavs, global_best_position=config.start_position.copy())


# --- scenario generators ---------------------------------------------------

# TwoCluster geometry: an easy band near the start edge plus a compact far
# cluster, the layout on which plain ABC/PSO stall in the near band.
NEAR_BAND_FRACTION = 0.3
FAR_CENTER_FRACTION = (0.5, 0.9)
FAR_RADIUS_FRACTION = 0.1


def make_scenario(
    kind: ScenarioKind | str,
    n_hotspots: int,
    seed: int,
    grid: GridConfig = GridConfig(),
    custom_hotspots: list[Hotspot] | None = None,
    **config_overrides,
) -> ScenarioConfig:
    """Build a scenario of the given kind.

    uniform:    n i.i.d. uniform hotspots over the grid interior.
    twocluster: ceil(n/2) uniform in the near band y <= NEAR_BAND_FRACTION*height,
                floor(n/2) in a disc of radius FAR_RADIUS_FRACTION*min(w,h)
                centered at FAR_CENTER_FRACTION of the grid.  Near hotspots come
                first in the list, far-cluster hotspots last.
    custom:     pass-through of custom_hotspots.
    """
    kind = ScenarioKind(kind)
    grid.validate()
    if kind is ScenarioKind.CUSTOM:
        if not custom_hotspots:
            raise ValidationError("custom scenario requires a non-empty hotspot list")
        hotspots = [replace(h, position=np.array(h.position, dtype=float)) for h in custom_hotspots]
    else:
        if n_hotspots < 1:
            raise ValidationError(f"n_hotspots must be >= 1, got {n_hotspots}")
        src = RandomSource(seed=seed, stream_id=SCENARIO_STREAM)
        w, h = float(grid.width), float(grid.height)
        if kind is ScenarioKind.UNIFORM_RANDOM:
            pts = src.uniform(0.0, 1.0, (n_hotspots, 2)) * np.array([w, h])
        else:
            n_near = (n_hotspots + 1) // 2
            n_far = n_hotspots // 2
            near = src.uniform(0.0, 1.0, (n_near, 2)) * np.array([w, NEAR_BAND_FRACTION * h])
            center = np.array([FAR_CENTER_FRACTION[0] * w, FAR_CENTER_FRACTION[1] * h])
            radius = FAR_RADIUS_FRACTION * min(w, h)
            angles = src.uniform(0.0, 2.0 * math.pi, n_far)
            radii = radius * np.sqrt(src.uniform(0.0, 1.0, n_far))
            far = center + np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
            pts = np.vstack([near, far]) if n_far else near
        hotspots = [Hotspot(position=p) for p in pts]
    config = ScenarioConfig(grid=grid, hotspots=hotspots, seed=seed, **config_overrides)
    config.validate()
    return config


def two_cluster_far_indices(n_hotspots: int) -> list[int]:
    """Indices of the far-cluster hotspots in a twocluster scenario."""
    return list(range((n_hotspots + 1) // 2, n_hotspots))


def mark_coverage(
    swarm: SwarmState,
    hotspots: list[Hotspot],
    coverage_radius: float,
    scanning: np.ndarray | None = None,
) -> list[int]:
    """Flip uncovered hotspots within coverage_radius of any scanning UAV.

    Returns the indices newly covered.  ``scanning`` masks which agents have
    an active sensor this step (default: all); agents mid-traversal of a
    committed relocation fly dark and only scan on arrival.
    """
    if not coverage_radius > 0.0:
        raise ValidationError("coverage_radius must be positive")
    positions = swarm.positions()
    if scanning is not None:
        positions = positions[np.asarray(scanning, dtype=bool)]
    uncovered = [k for k, hot in enumerate(hotspots) if not hot.covered]
    newly = []
    if len(positions) and uncovered:
        # One agents x uncovered-hotspots distance matrix; np.hypot over an
        # array rounds exactly as it does element by element.
        delta = positions[:, None, :] - np.array([hotspots[k].position for k in uncovered])
        nearest = np.hypot(delta[..., 0], delta[..., 1]).min(axis=0)
        for k, d in zip(uncovered, nearest.tolist()):
            if d <= coverage_radius:
                hotspots[k].covered = True
                newly.append(k)
    swarm.covered_count = sum(1 for h in hotspots if h.covered)
    return newly


PRESET_KINDS = {
    "uniform20": (ScenarioKind.UNIFORM_RANDOM, 20),
    "twocluster20": (ScenarioKind.TWO_CLUSTER, 20),
}


def preset_scenario(name: str, seed: int, **config_overrides) -> ScenarioConfig:
    """Named benchmark layout; the seed drives both hotspot placement and dynamics."""
    try:
        kind, n_hotspots = PRESET_KINDS[name]
    except (KeyError, TypeError):
        raise ValidationError(
            f"unknown preset {name!r}; expected one of {sorted(PRESET_KINDS)}"
        ) from None
    config_overrides.setdefault("scenario_id", name)
    return make_scenario(kind, n_hotspots, seed, **config_overrides)


# --- scenario file I/O -----------------------------------------------------

_TOP_KEYS = {
    "grid", "hotspots", "kind", "n_hotspots", "n_uavs", "start", "algorithm",
    "params", "constraints", "seed", "max_steps", "dt", "scenario_id",
}


def _object(value, name: str, keys) -> dict:
    """A copy of value, which must be a JSON object using only the given keys."""
    if not isinstance(value, dict):
        raise ValidationError(f"{name!r} must be an object, got {value!r}")
    unknown = set(value) - set(keys)
    if unknown:
        raise ValidationError(f"unknown {name} keys: {sorted(unknown)}")
    return dict(value)


def _section(data: dict, name: str, cls) -> dict:
    """A copy of the JSON object data[name] (default {}), keyed by fields of cls."""
    return _object(data.get(name, {}), name, [f.name for f in fields(cls)])


def params_from_dict(data: dict) -> tuple[AlgorithmParams, ConstraintParams]:
    """The optional 'params' and 'constraints' sections of a scenario or sweep job."""
    params = _section(data, "params", AlgorithmParams)
    if "pso" in params:
        params["pso"] = PsoParams(**_section(params, "pso", PsoParams))
    constraints = _section(data, "constraints", ConstraintParams)
    return AlgorithmParams(**params), ConstraintParams(**constraints)


def _integer(data: dict, key: str, default: int) -> int:
    value = data.get(key, default)
    if not _is_integer(value):
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _number(data: dict, key: str, default: float, where: str = "") -> float:
    value = data.get(key, default)
    if not _is_number(value):
        raise ValidationError(f"{where}{key} must be a finite number, got {value!r}")
    return float(value)


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Parse the scenario JSON schema; unknown keys are validation errors."""
    data = _object(data, "scenario", _TOP_KEYS)
    if "hotspots" not in data and "kind" not in data:
        raise ValidationError("scenario must give either 'hotspots' or ('kind', 'n_hotspots')")

    grid = GridConfig(**_section(data, "grid", GridConfig))
    params, constraints = params_from_dict(data)

    overrides = dict(
        n_uavs=_integer(data, "n_uavs", 5),
        algorithm=parse_algorithm(data.get("algorithm", Algorithm.HYBRID_ABC_LEVY)),
        params=params,
        constraints=constraints,
        max_steps=_integer(data, "max_steps", 5000),
        dt=_number(data, "dt", 0.5),
        scenario_id=str(data.get("scenario_id", "custom")),
    )
    if "start" in data:
        start = data["start"]
        if not (isinstance(start, list) and len(start) == 2 and all(map(_is_number, start))):
            raise ValidationError(f"start must be a list of two finite numbers, got {start!r}")
        overrides["start_position"] = np.array(start, dtype=float)
    seed = _integer(data, "seed", 0)

    if "hotspots" in data:
        if not isinstance(data["hotspots"], list):
            raise ValidationError(f"'hotspots' must be a list, got {data['hotspots']!r}")
        hotspots = []
        for i, entry in enumerate(data["hotspots"]):
            entry = _object(entry, f"hotspot {i}", ("x", "y", "weight"))
            xy = [entry.get("x"), entry.get("y")]
            if not all(map(_is_number, xy)):
                raise ValidationError(f"hotspot {i} needs finite numbers x and y, got {entry!r}")
            weight = _number(entry, "weight", 1.0, where=f"hotspot {i} ")
            hotspots.append(Hotspot(position=np.array(xy, dtype=float), weight=weight))
        config = make_scenario(
            ScenarioKind.CUSTOM, len(hotspots), seed, grid,
            custom_hotspots=hotspots, **overrides,
        )
    else:
        kind = ScenarioKind(str(data["kind"]).lower())
        config = make_scenario(kind, _integer(data, "n_hotspots", 20), seed, grid, **overrides)
    return config


def scenario_to_dict(config: ScenarioConfig) -> dict:
    return {
        "grid": asdict(config.grid),
        "hotspots": [
            {"x": float(h.position[0]), "y": float(h.position[1]), "weight": h.weight}
            for h in config.hotspots
        ],
        "n_uavs": config.n_uavs,
        "start": [float(config.start_position[0]), float(config.start_position[1])],
        "algorithm": config.algorithm.value,
        "params": asdict(config.params),
        "constraints": asdict(config.constraints),
        "seed": config.seed,
        "max_steps": config.max_steps,
        "dt": config.dt,
        "scenario_id": config.scenario_id,
    }


def load_scenario(path) -> ScenarioConfig:
    with open(path) as f:
        data = json.load(f)
    config = scenario_from_dict(data)
    if config.scenario_id == "custom":
        import os

        config.scenario_id = os.path.splitext(os.path.basename(str(path)))[0]
    return config


def save_scenario(config: ScenarioConfig, path):
    with open(path, "w") as f:
        json.dump(scenario_to_dict(config), f, indent=2)
        f.write("\n")
