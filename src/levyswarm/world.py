"""Grid world, hotspots, swarm state, scenario configuration and generators.

Agents move in the continuous domain [0, width] x [0, height]; the integer
cell grid exists only for heatmap binning.  Scenario generation is a pure
function of (kind, n_hotspots, seed, grid): identical inputs reproduce the
hotspot list bit for bit.  A hotspot is a point and a weight, input to a
run; which hotspots a run covers lives only in its UncoveredHotspots.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import os
import sys
from bisect import bisect_left
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .rng import SCENARIO_STREAM, RandomSource, mantegna_sigma


class ValidationError(ValueError):
    """A configuration value violates its documented invariant."""


# --- the field table -------------------------------------------------------
# A field is typed by its annotation; the JSON loaders and every validate()
# check it with field_value, and validate() adds only cross-field rules.

_KINDS = {
    "float": (float, "a finite number"),
    "int": (int, "an integer"),
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
    "list": (list, "a list"),
    "dict": (dict, "an object"),
}

# Bounds by field name, checked after the type: floats in _POSITIVE are > 0,
# numbers in _RANGES lie in their inclusive range.  A name means one quantity
# in every class with such a field (tests/test_schema.py pins them).  The int
# caps bound the heatmap, UAVs, hotspots, trajectory frames and runs of a seed
# count.  The coefficient cap keeps every product a coefficient enters finite:
# it meets grid offsets of at most 1024, a potential-field push of at most
# gain * 1e27 per pair (d >= 1e-9) over at most 255 pairs, and fitness sums
# of at most 10^4 weights, added over at most 256 agents.  It caps two lengths
# too: up to 255 safe-zone pushes of safe_zone_radius / 2 are summed, and
# math.hypot measures the steps max_step_size scales.  Even the square of a
# capped value stays far below the float maximum of about 1.8e308.
# shaping_epsilon shares the upper cap above a floor of 0, which is off.  The
# collision_radius floor keeps the resolver's margin, radius * 1e-6, at about
# 4 ulps of a coordinate near 1024; with smaller radii the launch can stall.
_POSITIVE = {
    "dt", "weight", "levy_weight", "levy_beta", "sigma_sensitivity", "max_step_size",
    "safe_zone_radius", "coverage_radius", "potential_field_gain", "no_hotspot_threshold_radius",
}
_COEFFICIENT = (-1e100, 1e100)
_RANGES = {
    **dict.fromkeys(
        [
            "inertia", "cognitive", "social", "potential_field_gain", "explore_coeff", "exploit_coeff",
            "weight", "levy_weight", "max_step_size", "safe_zone_radius",
        ],
        _COEFFICIENT,
    ),
    "shaping_epsilon": (0.0, _COEFFICIENT[1]),
    "collision_radius": (1e-6, math.inf),
    "width": (1, 1024),
    "height": (1, 1024),
    "n_uavs": (1, 256),
    "n_hotspots": (1, 10_000),
    "max_steps": (1, 100_000),
    "seeds": (1, 10_000),
    "seed": (0, 2**64 - 1),
    "stagnation_limit": (1, math.inf),
    "workers": (1, math.inf),
}


def field_value(value, kind: str, name: str, where: str = "", load: bool = False):
    """value as a field of the given kind within its bound, else a ValidationError.

    kind is a key of _KINDS.  A float is a finite int or float.  An int is an
    int, or, when loading JSON, an integral float such as 50.0.  A bool must
    be true or false: the string "false" is truthy.  Loaded numbers come
    back as exactly float or int.  where prefixes name in the message.
    """
    type_, want = _KINDS[kind]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "float":
        # A comparison, not math.isfinite, which raises on an int like 10**400.
        ok = number and abs(value) <= sys.float_info.max
    elif kind == "int":
        ok = number and (isinstance(value, int) or load and value.is_integer())
    else:
        ok = isinstance(value, type_)
    if not ok:
        raise ValidationError(f"{where}{name} must be {want}, got {value!r}")
    if load and number:
        value = type_(value)
    if kind == "float" and name in _POSITIVE and not value > 0.0:
        raise ValidationError(f"{where}{name} must be positive, got {value!r}")
    low, high = _RANGES.get(name, (-math.inf, math.inf))
    if number and not low <= value <= high:
        raise ValidationError(f"{where}{name} must lie in [{low}, {high}], got {value!r}")
    return value


def left_to_right_sum(values) -> float:
    """The sum of values as floats, added left to right.

    Builtin sum() compensates float rounding on Python 3.12 and later, so
    its last bits, which reach the artifacts, would depend on the version.
    """
    total = 0.0
    for v in values:
        total += v
    return total


@functools.cache
def _typed_fields(cls) -> tuple[tuple[str, str], ...]:
    """(name, kind) of each field of the dataclass cls typed by a kind of _KINDS."""
    return tuple((f.name, f.type) for f in fields(cls) if f.type in _KINDS)


def _check_fields(obj, where: str):
    """field_value on every float, int, bool and str field of the dataclass obj."""
    for name, kind in _typed_fields(type(obj)):
        field_value(getattr(obj, name), kind, name, where)


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


def _parse_enum(value, text: str, table: dict, what: str, expected):
    """table's entry for text, case-blind; else a ValidationError naming value."""
    try:
        return table[text.lower()]
    except KeyError:
        raise ValidationError(f"unknown {what} {value!r}; expected one of {expected}") from None


def parse_algorithm(name) -> Algorithm:
    if isinstance(name, Algorithm):
        return name
    return _parse_enum(
        name, str(name).strip(), _ALGORITHM_ALIASES, "algorithm", "abc, pso, hybrid-abc-levy"
    )


class ScenarioKind(str, enum.Enum):
    UNIFORM_RANDOM = "uniform"
    TWO_CLUSTER = "twocluster"


_KIND_NAMES = {k.value: k for k in ScenarioKind}


def _parse_kind(kind) -> ScenarioKind:
    text = field_value(kind, "str", "kind")
    return _parse_enum(kind, text, _KIND_NAMES, "scenario kind", list(_KIND_NAMES))


def _xy(point) -> tuple[float, float]:
    """point as an (x, y) pair of Python floats."""
    return float(point[0]), float(point[1])


@dataclass(frozen=True)
class GridConfig:
    width: int = 100
    height: int = 100

    def validate(self):
        _check_fields(self, "grid ")

    def contains(self, position) -> bool:
        x, y = float(position[0]), float(position[1])
        return 0.0 <= x <= self.width and 0.0 <= y <= self.height


@dataclass(frozen=True)
class Hotspot:
    position: tuple[float, float]
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "position", _xy(self.position))


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
    # Positive: the update as written, a push away from the nearest better
    # neighbour; negative: the attractive variant.
    exploit_coeff: float = 0.02
    adaptive_lambda: bool = False
    sigma_sensitivity: float = 1.0
    pso: PsoParams = field(default_factory=PsoParams)
    stagnation_limit: int = 50
    # Weight of the optional proximity shaping of the objective; 0.0, the
    # default, is off: the plain coverage sum is the benchmark objective for
    # every algorithm.
    shaping_epsilon: float = 0.0
    mantegna_normalized: bool = True

    def validate(self):
        _check_fields(self, "params ")
        _check_fields(self.pso, "pso ")
        if not self.levy_beta <= 2.0:
            raise ValidationError(f"levy_beta must lie in (0, 2], got {self.levy_beta}")
        try:
            mantegna_sigma(self.levy_beta)
        except OverflowError:
            raise ValidationError(
                f"levy_beta={self.levy_beta} is too small: the Mantegna scale overflows"
            ) from None


@dataclass
class ConstraintParams:
    max_step_size: float = 5.0
    safe_zone_radius: float = 2.0
    coverage_radius: float = 3.0
    collision_radius: float = 1.0
    potential_field_gain: float = 1.0
    no_hotspot_threshold_radius: float = 15.0

    def validate(self):
        _check_fields(self, "constraints ")
        if not self.collision_radius <= self.safe_zone_radius:
            raise ValidationError(
                "collision_radius must not exceed safe_zone_radius, "
                f"got {self.collision_radius} vs {self.safe_zone_radius}"
            )


@dataclass
class UavState:
    """One agent's state, the same memory for every algorithm.  Points and
    vectors are (x, y) pairs of Python floats: immutable, so the run loop
    shares them without a copy."""

    position: tuple[float, float]
    fitness: float = 0.0
    stagnation: int = 0
    # Reference value for the stagnation counter: the best fitness this agent
    # has observed in the run, seen at personal_best.
    best_fitness: float = -math.inf
    personal_best: tuple[float, float] | None = None
    velocity: tuple[float, float] = (0.0, 0.0)
    # Active relocation waypoint, an (x, y) pair of floats: set while the
    # agent is committed to a multi-step traversal (a long Levy flight or a
    # scout reset), cleared on arrival.  The agent flies toward it at the
    # per-step speed cap.
    transit_target: tuple[float, float] | None = None

    def __post_init__(self):
        self.position = _xy(self.position)
        if self.personal_best is not None:
            self.personal_best = _xy(self.personal_best)
        self.velocity = _xy(self.velocity)


@dataclass
class SwarmState:
    uavs: list[UavState]
    global_best_position: tuple[float, float]
    global_best_fitness: float = -math.inf
    covered_count: int = 0

    def __post_init__(self):
        self.global_best_position = _xy(self.global_best_position)

    def positions(self) -> np.ndarray:
        """The agents' positions as an (n, 2) array, for callers that want one."""
        return np.array([u.position for u in self.uavs])


@dataclass
class ScenarioConfig:
    grid: GridConfig = field(default_factory=GridConfig)
    hotspots: list[Hotspot] = field(default_factory=list)
    n_uavs: int = 5
    start_position: tuple[float, float] = (50.0, 0.0)
    algorithm: Algorithm = Algorithm.HYBRID_ABC_LEVY
    params: AlgorithmParams = field(default_factory=AlgorithmParams)
    constraints: ConstraintParams = field(default_factory=ConstraintParams)
    seed: int = 0
    max_steps: int = 5000
    dt: float = 0.5
    scenario_id: str = "custom"

    def __post_init__(self):
        self.start_position = _xy(self.start_position)
        self.algorithm = parse_algorithm(self.algorithm)

    def validate(self):
        self.grid.validate()
        self.params.validate()
        self.constraints.validate()
        _check_fields(self, "scenario ")
        if not self.hotspots:
            raise ValidationError("scenario needs at least one hotspot")
        # _check_fields and grid.contains on each hotspot, with the "hotspot
        # {i} " prefix written only into an error.  A Hotspot's position is
        # already a pair of floats.
        width, height = self.grid.width, self.grid.height
        for i, h in enumerate(self.hotspots):
            try:
                for name, kind in _typed_fields(type(h)):
                    field_value(getattr(h, name), kind, name)
            except ValidationError as error:
                raise ValidationError(f"hotspot {i} {error}") from None
            x, y = h.position
            if not (0.0 <= x <= width and 0.0 <= y <= height):
                raise ValidationError(
                    f"hotspot {i} at ({h.position[0]}, {h.position[1]}) lies outside the "
                    f"{self.grid.width}x{self.grid.height} grid"
                )
        if not self.grid.contains(self.start_position):
            raise ValidationError("start_position lies outside the grid")
        diagonal = math.hypot(width, height)
        if self.n_uavs >= 2 and self.constraints.collision_radius > diagonal:
            # No two points of the grid lie that far apart.
            raise ValidationError(
                f"collision_radius {self.constraints.collision_radius} exceeds the "
                f"{width}x{height} grid's diagonal {diagonal}: {self.n_uavs} UAVs cannot separate"
            )
        if self.params.shaping_epsilon > 0.0:
            total_w = left_to_right_sum(h.weight for h in self.hotspots)
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
    start = config.start_position
    uavs = [UavState(position=start, personal_best=start) for _ in range(config.n_uavs)]
    return SwarmState(uavs=uavs, global_best_position=start)


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
    **config_overrides,
) -> ScenarioConfig:
    """Build a scenario with a generated layout of the given kind.

    uniform:    n i.i.d. uniform hotspots over the grid interior.
    twocluster: ceil(n/2) uniform in the near band y <= NEAR_BAND_FRACTION*height,
                floor(n/2) in a disc of radius FAR_RADIUS_FRACTION*min(w,h)
                centered at FAR_CENTER_FRACTION of the grid.  Near hotspots come
                first in the list, far-cluster hotspots last.

    A listed layout needs no generator: ScenarioConfig(hotspots=...).validate().
    """
    hotspots = generate_hotspots(_parse_kind(kind), n_hotspots, seed, grid)
    return ScenarioConfig(grid=grid, hotspots=hotspots, seed=seed, **config_overrides).validate()


def generate_hotspots(kind: ScenarioKind, n_hotspots: int, seed: int, grid: GridConfig):
    """The hotspots of a uniform or twocluster layout (see make_scenario); checks its arguments."""
    grid.validate()
    field_value(n_hotspots, "int", "n_hotspots")
    src = RandomSource(seed=field_value(seed, "int", "seed"), stream_id=SCENARIO_STREAM)
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
    return [Hotspot(position=p) for p in pts.tolist()]


def two_cluster_far_indices(n_hotspots: int) -> list[int]:
    """Indices of the far-cluster hotspots in a twocluster scenario."""
    return list(range((n_hotspots + 1) // 2, n_hotspots))


# The cell index's side exceeds its reach by this factor, so a hotspot whose
# rounded length from a query point is at most the reach always lies in the
# query's own cell or one of its eight neighbours.  Cells are capped at
# _MAX_CELLS a side, and _MAX_KEY keeps every cell key an exact float.
_SIDE_MARGIN = 1.0 + 2.0**-20
_MAX_CELLS = 256
_MAX_KEY = 2.0**50
# x-sorted lists this short are filtered on every cover() that covers
# something, so nearest()'s walks meet no covered entry.
_SHORT_LIST = 64
_NO_GRID = (-math.inf, 1.0, 1.0, {})


class UncoveredHotspots:
    """A run's coverage of its hotspots, indexed for radius queries.

    ``hotspots`` is the run's list, and a hotspot's id is its index there.
    ``covered[k]`` is true once hotspot k is covered; the field is the only
    owner of these flags, and ``n_uncovered`` counts the hotspots left.
    ``points`` gives (id, x, y) of each uncovered hotspot, in list order.
    Every hotspot starts uncovered, and coverage changes only through
    cover(), which sets flags and lowers the count.

    Two indexes answer the queries.  Given a radius, square cells of side
    just above it serve within() up to the cells' reach (the radius, or a
    256th of the layout's extent if larger): each cell lists, in id order,
    the hotspots of its 3 x 3 neighbourhood, so a query costs one dict
    lookup and one math.hypot per neighbour, and its hits come out in list
    order.  An x-sorted list serves nearest(), which walks outward from the
    query's x.  A within() query beyond the reach, or without cells, scans
    points.

    Both indexes keep covered entries, which every query skips, until more
    than half of what they listed at their last filtering is covered; then
    cover() filters them, so covering costs amortised O(1) a hotspot.
    """

    __slots__ = (
        "hotspots", "covered", "n_uncovered", "_points", "_xs", "_by_x", "_grid", "_listed"
    )

    def __init__(self, hotspots, radius: float | None = None):
        self.hotspots = hotspots
        self.covered = [False] * len(hotspots)
        self.n_uncovered = len(hotspots)
        self._points = [(k, *hot.position) for k, hot in enumerate(hotspots)]
        self._by_x = sorted(self._points, key=lambda point: point[1])
        self._xs = [x for _, x, _ in self._by_x]
        self._grid = self._grid_for(radius)
        self._listed = len(hotspots)

    def _grid_for(self, radius):
        """(reach, side, stride, cells) of the cell index; a reach of -inf,
        which no query radius is below, without one.

        A cell is (floor(y / side), floor(x / side)), which float // computes
        exactly.  If math.hypot(hx - x, hy - y) <= r <= reach, then
        |hx - x| <= r * (1 + 2**-52) <= side, since hypot is at least its
        rounded leg, so the two cells differ by at most one in each axis.
        Only cells with a hotspot among their neighbours get an entry.  Its
        key, cy * stride + cx, is an exact float that no other cell of the
        layout's bounds, widened by one cell, shares.  A query beyond them is
        more than the reach from every hotspot, so whatever cell its key
        names, the hotspots there fail its math.hypot test.
        """
        if radius is None or not self._points:
            return _NO_GRID
        xs = self._xs
        y_min = min(y for _, _, y in self._points)
        y_max = max(y for _, _, y in self._points)
        reach = max(float(radius), max(xs[-1] - xs[0], y_max - y_min) / _MAX_CELLS)
        side = reach * _SIDE_MARGIN
        if not 0.0 < side < math.inf:
            return _NO_GRID
        x_lo, x_hi = xs[0] // side - 1.0, xs[-1] // side + 1.0
        y_lo, y_hi = y_min // side - 1.0, y_max // side + 1.0
        stride = x_hi - x_lo + 1.0
        if not (abs(y_lo) + abs(y_hi)) * stride + abs(x_lo) + abs(x_hi) < _MAX_KEY:
            return _NO_GRID
        offsets = [row + column for row in (-stride, 0.0, stride) for column in (-1.0, 0.0, 1.0)]
        cells = {}
        for point in self._points:
            _, hx, hy = point
            key = (hy // side) * stride + hx // side
            for offset in offsets:
                cell = cells.get(key + offset)
                if cell is None:
                    cells[key + offset] = [point]
                else:
                    cell.append(point)
        return reach, side, stride, cells

    @property
    def points(self) -> list[tuple[int, float, float]]:
        """(id, x, y) of each uncovered hotspot, in list order."""
        if self.n_uncovered == len(self._points):
            return self._points
        covered = self.covered
        return [point for point in self._points if not covered[point[0]]]

    def cover(self, ids) -> None:
        """Mark the hotspots ids covered, filtering the indexes when due.

        Every id is checked before anything is written: one outside
        0 <= id < len(covered) raises IndexError and leaves the field as it
        was.  Filtering keeps each list's order, so the stable x-sorted list
        keeps the order that sorting the remaining hotspots again would give.
        """
        gone = set(ids)
        covered = self.covered
        for k in gone:
            if not 0 <= k < len(covered):
                raise IndexError(f"hotspot id {k} out of range for {len(covered)} hotspots")
        for k in gone:
            if not covered[k]:
                covered[k] = True
                self.n_uncovered -= 1
        if 2 * self.n_uncovered < self._listed:
            self._listed = self.n_uncovered
            _, _, _, cells = self._grid
            for cell in cells.values():
                cell[:] = [point for point in cell if not covered[point[0]]]
        elif not self.n_uncovered < len(self._points) <= _SHORT_LIST:
            return
        self._points = [point for point in self._points if not covered[point[0]]]
        self._by_x = [point for point in self._by_x if not covered[point[0]]]
        self._xs = [x for _, x, _ in self._by_x]

    def within(self, x: float, y: float, r: float) -> list[int]:
        """Ids of the uncovered hotspots within r of (x, y), in list order.

        A hotspot is within r when math.hypot(hx - x, hy - y) <= r.
        """
        reach, side, stride, cells = self._grid
        if r <= reach:
            near = cells.get((y // side) * stride + x // side)
            if not near:
                return []
            covered = self.covered
            hits = []
            for k, hx, hy in near:
                if math.hypot(hx - x, hy - y) <= r and not covered[k]:
                    hits.append(k)
            return hits
        return [k for k, hx, hy in self.points if math.hypot(hx - x, hy - y) <= r]

    def nearest(self, x: float, y: float, r: float) -> tuple[float, int, float, float] | None:
        """(d, id, hx, hy) of the uncovered hotspot nearest (x, y), or None.

        None when none is left, or once the walk meets one with
        math.hypot(hx - x, hy - y) <= r (-math.inf asks for the plain
        nearest).  Otherwise d is that length, the least, and id the lowest
        among equal d.  The walk goes outward from x through the x-sorted
        list, the side whose next |hx - x| is smaller first, skips covered
        entries and stops once that exceeds the best d: math.hypot(dx, dy) >=
        |dx| under faithful rounding, and |hx - x| only grows outward, so no
        hotspot beyond is nearer, ties, or lies within r unless the best does.
        """
        xs, by_x, covered = self._xs, self._by_x, self.covered
        hi = bisect_left(xs, x)
        lo = hi - 1
        best = None
        while lo >= 0 or hi < len(xs):
            if hi < len(xs) and (lo < 0 or xs[hi] - x <= x - xs[lo]):
                k, hx, hy = by_x[hi]
                hi += 1
            else:
                k, hx, hy = by_x[lo]
                lo -= 1
            if best is not None and abs(hx - x) > best[0]:
                break
            if covered[k]:
                continue
            candidate = (math.hypot(hx - x, hy - y), k, hx, hy)
            if candidate[0] <= r:
                return None
            if best is None or candidate < best:
                best = candidate
        return best


def mark_coverage(swarm: SwarmState, field: UncoveredHotspots, hits) -> list[int]:
    """Cover the uncovered hotspots among the ids hits; returns them in list order.

    The run loop passes the union of the scanning agents' within() queries
    at coverage_radius, so "covered" means a math.hypot length <= the radius
    from an agent whose sensor is active; agents mid-traversal of a committed
    relocation fly dark and make no query.  field.covered holds the flags,
    and swarm.covered_count is updated.
    """
    newly = sorted({k for k in hits if not field.covered[k]})
    if newly:
        field.cover(newly)
    swarm.covered_count = len(field.hotspots) - field.n_uncovered
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

# The config dataclasses that a loader builds from a nested JSON object.
_SECTIONS = {cls.__name__: cls for cls in (GridConfig, PsoParams, AlgorithmParams, ConstraintParams)}
_RULE_NAMES = _KINDS.keys() | _SECTIONS.keys()


def load_fields(cls, value, name: str, **rules) -> dict:
    """The JSON object value as keyword arguments for the dataclass cls.

    A key's rule is a parser, a kind that field_value casts to, or the name
    of a section, loaded in turn.  A field's rule defaults to its own type.
    A key whose rule is None, or that is not a field, is an error; a field
    left out takes its default.
    """
    return _load_with(_load_rules(cls, **rules), value, name)


def _load_rules(cls, **rules) -> dict:
    """Every key's load rule for load_fields, built once for many entries."""
    rules = {f.name: f.type for f in fields(cls)} | rules
    untyped = [k for k, r in rules.items() if not (r is None or callable(r) or r in _RULE_NAMES)]
    if untyped:
        raise TypeError(f"{cls.__name__} fields without a load rule: {untyped}")
    return rules


def _load_with(rules: dict, value, name: str) -> dict:
    data = dict(field_value(value, "dict", name))
    unknown = [key for key in data if rules.get(key) is None]
    if unknown:
        raise ValidationError(f"unknown {name} keys: {sorted(unknown)}")
    for key, item in data.items():
        rule = rules[key]
        if callable(rule):
            data[key] = rule(item)
        elif rule in _SECTIONS:
            data[key] = load_section(_SECTIONS[rule], item, key)
        else:
            data[key] = field_value(item, rule, key, f"{name} ", load=True)
    return data


def load_section(cls, value, name: str, **rules):
    """The dataclass cls built from the JSON object value by load_fields."""
    return cls(**load_fields(cls, value, name, **rules))


def _start(value) -> tuple[float, float]:
    if not (isinstance(value, list) and len(value) == 2):
        raise ValidationError(f"start must be a list of two finite numbers, got {value!r}")
    return tuple(field_value(v, "float", "start", load=True) for v in value)


def _hotspots(entries) -> list[Hotspot]:
    rules = _load_rules(Hotspot, x="float", y="float", position=None)
    hotspots = []
    for i, entry in enumerate(field_value(entries, "list", "hotspots")):
        data = _load_with(rules, entry, f"hotspot {i}")
        if "x" not in data or "y" not in data:
            raise ValidationError(f"hotspot {i} needs x and y, got {entry!r}")
        hotspots.append(Hotspot(position=[data.pop("x"), data.pop("y")], **data))
    return hotspots


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Parse the scenario JSON schema; unknown keys are validation errors."""
    data = load_fields(
        ScenarioConfig, data, "scenario", hotspots=_hotspots, kind=_parse_kind, n_hotspots="int",
        start=_start, start_position=None, algorithm=parse_algorithm,
    )
    listed = "hotspots" in data
    if listed == ("kind" in data) or (listed and "n_hotspots" in data):
        raise ValidationError("scenario must give 'hotspots' or ('kind', 'n_hotspots'), not both")
    if "start" in data:
        data["start_position"] = data.pop("start")
    kind, n_hotspots = data.pop("kind", None), data.pop("n_hotspots", 20)
    config = ScenarioConfig(**data)
    if not listed:
        config.hotspots = generate_hotspots(kind, n_hotspots, config.seed, config.grid)
    return config.validate()


def scenario_to_dict(config: ScenarioConfig) -> dict:
    return {
        "grid": asdict(config.grid),
        "hotspots": [
            {"x": h.position[0], "y": h.position[1], "weight": h.weight}
            for h in config.hotspots
        ],
        "n_uavs": config.n_uavs,
        "start": list(config.start_position),
        "algorithm": config.algorithm.value,
        "params": asdict(config.params),
        "constraints": asdict(config.constraints),
        "seed": config.seed,
        "max_steps": config.max_steps,
        "dt": config.dt,
        "scenario_id": config.scenario_id,
    }


def read_json(path):
    """The JSON document in the UTF-8 file at path; OSError, as for a file that
    cannot be read, if it cannot be decoded (malformed, not UTF-8, too deep)."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except (ValueError, RecursionError) as exc:
            raise OSError(f"{path}: not a JSON document: {exc}") from None


def load_scenario(path) -> ScenarioConfig:
    config = scenario_from_dict(read_json(path))
    if config.scenario_id == "custom":
        config.scenario_id = os.path.splitext(os.path.basename(str(path)))[0]
    return config


def save_scenario(config: ScenarioConfig, path):
    with open(path, "w") as f:
        json.dump(scenario_to_dict(config), f, indent=2)
        f.write("\n")
