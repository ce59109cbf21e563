"""Seedable random streams and the Mantegna heavy-tailed step sampler.

Every stochastic component in the simulator draws from a RandomSource.
The generator is Philox (counter based, period 2^256) keyed through
``numpy.random.SeedSequence(seed, spawn_key=(stream_id,))``, which is
numpy's documented scheme for statistically independent streams.  Each
UAV owns one stream; scenario generation uses a reserved stream id.
The raw output for seed 0, stream 0 is pinned by a golden file under
``tests/golden/`` so a numpy upgrade that changes the bit stream is
caught instead of silently altering every experiment.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# Stream ids 0..n_uavs-1 belong to the UAVs; ids at or above this value
# are reserved for non-agent draws.
SCENARIO_STREAM = 1 << 32

# Smallest |v| accepted by the Mantegna kernel before a re-draw.
_MIN_ABS_V = 1e-300
_MAX_REDRAWS = 8
# Finiteness guard for the degenerate post-re-draw substitution path.
_MAX_COMPONENT = 1e300


class ParameterError(ValueError):
    """Raised when a sampler parameter is outside its documented range."""


@dataclass
class RandomSource:
    """One deterministic stream: same (seed, stream_id) -> same draws."""

    seed: int
    stream_id: int
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.Philox(ss))

    def standard_normal(self, n: int) -> np.ndarray:
        return self._gen.standard_normal(n)

    def uniform(self, low: float, high: float, size=None):
        """Generator.uniform bit for bit: numpy's low + (high - low) * u, with u
        from Generator.random, which skips uniform's costly argument handling."""
        span = high - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if span < 0.0:
            raise ValueError("high - low < 0")
        return low + span * self._gen.random(size)

    def integers(self, low: int, high: int) -> int:
        return int(self._gen.integers(low, high))

    def random_raw(self, n: int) -> np.ndarray:
        """Raw 64-bit generator words, used only by the golden-file test."""
        return self._gen.bit_generator.random_raw(n)


class LevyStep(NamedTuple):
    """A sampled 2-D heavy-tailed displacement, recorded before any clamping."""

    x: float
    y: float


def mantegna_sigma(beta: float) -> float:
    """Scale of the numerator Gaussian in the Mantegna construction.

    sigma_u = [Gamma(1+b) sin(pi b/2) / (Gamma((1+b)/2) b 2^((b-1)/2))]^(1/b)

    Valid for 0 < beta <= 2.  At beta = 2 the analytic value is zero
    (sin(pi) = 0); IEEE evaluation yields a tiny positive number, which is
    what this function returns and what the regression oracle pins.
    """
    if not (isinstance(beta, (int, float)) and math.isfinite(beta)) or not 0.0 < beta <= 2.0:
        raise ParameterError(f"beta must lie in (0, 2], got {beta!r}")
    return _mantegna_sigma(float(beta))


# A run samples at one beta, so a handful of entries covers every caller.
@functools.lru_cache(maxsize=8)
def _mantegna_sigma(beta: float) -> float:
    num = math.gamma(1.0 + beta) * math.sin(math.pi * beta / 2.0)
    den = math.gamma((1.0 + beta) / 2.0) * beta * 2.0 ** ((beta - 1.0) / 2.0)
    return (num / den) ** (1.0 / beta)


def _normals(first, src: RandomSource):
    """The four draws of a 2-D step, then src's standard-normal stream one
    value at a time for re-drawn denominators.  Philox gives the same values
    in the same order as four single draws."""
    yield from first
    while True:
        yield float(src.standard_normal(1)[0])


def _draw_v(draws) -> float:
    """Denominator Gaussian; re-draws near-zero values to bound 1/|v|^(1/beta)."""
    for _ in range(_MAX_REDRAWS + 1):
        v = next(draws)
        if abs(v) >= _MIN_ABS_V:
            return v
    return _MIN_ABS_V


def levy_step(
    src: RandomSource,
    levy_weight: float,
    beta: float,
    normalized: bool = True,
) -> LevyStep:
    """Sample one 2-D Levy-flight displacement.

    Each axis draws an independent Gaussian pair (u, v) and takes
    ``levy_weight * sigma_u * u / |v|^(1/beta)``.  With ``normalized``
    false, sigma_u is dropped (the bare u / |v|^(1/beta) kernel) and only
    the weight scales the step.  Components saturate instead of raising:
    they are capped at 1e300, which also covers the re-draw substitution
    path and a denominator that underflows to 0 (tiny beta, |v| < 1), and a
    denominator that overflows (tiny beta, |v| > 1) gives a signed zero.

    The four Gaussians come from one ``standard_normal(4)`` draw.  When both
    denominators need no re-draw and both components land within the cap,
    the quotients are the step; otherwise the guarded code below takes over
    the same four values and continues the stream with single draws.
    """
    if not levy_weight > 0.0:
        raise ParameterError(f"levy_weight must be positive, got {levy_weight!r}")
    sigma = mantegna_sigma(beta)  # validates beta
    scale = levy_weight * (sigma if normalized else 1.0)
    first = src.standard_normal(4).tolist()
    u1, v1, u2, v2 = first
    if abs(v1) >= _MIN_ABS_V and abs(v2) >= _MIN_ABS_V:
        try:
            x = scale * u1 / abs(v1) ** (1.0 / beta)
            y = scale * u2 / abs(v2) ** (1.0 / beta)
        except (OverflowError, ZeroDivisionError):
            pass
        else:
            if -_MAX_COMPONENT <= x <= _MAX_COMPONENT and -_MAX_COMPONENT <= y <= _MAX_COMPONENT:
                return LevyStep(x, y)
    draws = _normals(first, src)
    out = []
    for _ in range(2):
        u = next(draws)
        v = _draw_v(draws)
        try:
            denominator = abs(v) ** (1.0 / beta)
        except OverflowError:
            denominator = math.inf
        step = scale * u / denominator if denominator > 0.0 else math.inf
        if not math.isfinite(step):
            step = math.copysign(_MAX_COMPONENT, u)
        out.append(min(max(step, -_MAX_COMPONENT), _MAX_COMPONENT))
    return LevyStep(*out)
