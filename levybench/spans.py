"""Aggregated spans around levyswarm's public functions, installed by patching.

Each traced function is replaced, at every name its callers bind, by a wrapper
that times the call with ``perf_counter`` and keeps a stack of open spans, so a
span's self time is its duration minus the time of the traced calls made
inside it.  Spans are folded into per-name totals (calls, inclusive seconds,
self seconds) as they close: a traced run makes millions of calls, too many to
keep one record each.

The span table names a function once per binding.  ``from .constraints import
resolve_collisions`` in ``harness`` makes a second name for the same function,
so patching ``levyswarm.constraints.resolve_collisions`` alone would miss every
call the harness makes; the table lists both.
"""

from __future__ import annotations

import functools
import time

# (span name, [(module or class path, attribute), ...]).  A path is relative
# to the levyswarm package; "world.SwarmState" names a class attribute.
SPANS = [
    ("cli.main", [("cli", "main")]),
    ("harness.run_sweep", [("harness", "run_sweep")]),
    ("harness.compare_algorithms", [("harness", "compare_algorithms")]),
    ("harness.run_scenario", [("harness", "run_scenario")]),
    ("optimizers.propose_step", [("harness", "propose_step"), ("optimizers", "propose_step")]),
    ("optimizers.FitnessField.value", [("optimizers.FitnessField", "value")]),
    ("optimizers.FitnessField.from_config", [("optimizers.FitnessField", "from_config")]),
    ("rng.levy_step", [("optimizers", "levy_step"), ("rng", "levy_step")]),
    ("rng.RandomSource.uniform", [("rng.RandomSource", "uniform")]),
    ("rng.RandomSource.integers", [("rng.RandomSource", "integers")]),
    ("rng.RandomSource.init", [("rng.RandomSource", "__post_init__")]),
    ("constraints.clamp_step", [("harness", "clamp_step"), ("constraints", "clamp_step")]),
    ("constraints.clamp_boundary", [("harness", "clamp_boundary"), ("constraints", "clamp_boundary")]),
    ("constraints.settle_within", [("harness", "settle_within"), ("constraints", "settle_within")]),
    ("constraints.safe_zone_separation",
     [("harness", "safe_zone_separation"), ("constraints", "safe_zone_separation")]),
    ("constraints.potential_field_repulsion",
     [("harness", "potential_field_repulsion"), ("constraints", "potential_field_repulsion")]),
    ("constraints.resolve_collisions",
     [("harness", "resolve_collisions"), ("constraints", "resolve_collisions")]),
    ("constraints.escape_no_hotspot_zone", [("constraints", "escape_no_hotspot_zone")]),
    ("world.mark_coverage", [("harness", "mark_coverage"), ("world", "mark_coverage")]),
    ("world.make_swarm", [("harness", "make_swarm"), ("world", "make_swarm")]),
    ("world.preset_scenario", [("harness", "preset_scenario"), ("world", "preset_scenario")]),
    ("world.load_scenario", [("world", "load_scenario")]),
    ("world.ScenarioConfig.validate", [("world.ScenarioConfig", "validate")]),
    ("world.SwarmState.positions", [("world.SwarmState", "positions")]),
    ("metrics.Heatmap.record", [("metrics.Heatmap", "record")]),
    ("metrics.merge_heatmaps", [("harness", "merge_heatmaps"), ("metrics", "merge_heatmaps")]),
    ("metrics.biodiversity_metric",
     [("harness", "biodiversity_metric"), ("metrics", "biodiversity_metric")]),
    ("metrics.write_runs_csv", [("metrics", "write_runs_csv")]),
    ("metrics.heatmap_to_pgm", [("metrics", "heatmap_to_pgm")]),
    ("metrics.heatmap_to_csv", [("metrics", "heatmap_to_csv")]),
    ("metrics.write_coverage_curve", [("metrics", "write_coverage_curve")]),
]

LAYERS = ("cli", "harness", "optimizers", "rng", "constraints", "world", "metrics")


def _count_resolver(counts, result):
    _, touched, pushes = result
    counts["constraints.resolve_collisions.pushes"] += int(pushes)
    counts["constraints.resolve_collisions.touched"] += int(touched.sum())


def _count_proposal(counts, proposal):
    counts["optimizers.transit_legs"] += int(proposal.transit_legs)
    counts["optimizers.dark_agent_steps"] += int((~proposal.scanning).sum())


def _count_escape(counts, escape):
    counts["constraints.escape_no_hotspot_zone.fired"] += escape is not None


def _count_coverage(counts, newly):
    counts["world.mark_coverage.newly_covered"] += len(newly)


# Counts read from return values, at the span that returns them.
RESULT_COUNTERS = {
    "constraints.resolve_collisions": _count_resolver,
    "optimizers.propose_step": _count_proposal,
    "constraints.escape_no_hotspot_zone": _count_escape,
    "world.mark_coverage": _count_coverage,
}
COUNTER_NAMES = (
    "constraints.resolve_collisions.pushes",
    "constraints.resolve_collisions.touched",
    "optimizers.transit_legs",
    "optimizers.dark_agent_steps",
    "constraints.escape_no_hotspot_zone.fired",
    "world.mark_coverage.newly_covered",
)


def _resolve(package, path):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Installs the span wrappers on a levyswarm package and folds their timings."""

    def __init__(self, package):
        self._package = package
        self._patched = []  # (owner, attribute, original raw attribute)
        # The wrappers close over these three objects, so reset() clears them
        # in place instead of replacing them.
        self.stats = {name: [0, 0.0, 0.0] for name, _ in SPANS}  # calls, total_s, self_s
        self.counts = dict.fromkeys(COUNTER_NAMES, 0)
        self._stack = []

    def reset(self):
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]
        for name in self.counts:
            self.counts[name] = 0
        self._stack.clear()

    def exclude(self, seconds):
        """Take time the benchmark spent inside the open span out of its self time."""
        if self._stack:
            self._stack[-1][0] += seconds

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        counts = self.counts
        on_result = RESULT_COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if on_result is not None:
                on_result(counts, result)
            return result

        return traced

    def install(self):
        for name, bindings in SPANS:
            for path, attribute in bindings:
                owner = _resolve(self._package, path)
                raw = owner.__dict__[attribute]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(name, raw.__func__))
                else:
                    patched = self._wrap(name, raw)
                self._patched.append((owner, attribute, raw))
                setattr(owner, attribute, patched)

    def uninstall(self):
        for owner, attribute, raw in reversed(self._patched):
            setattr(owner, attribute, raw)
        self._patched.clear()
