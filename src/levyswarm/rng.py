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

# Cap on a step component's magnitude; the sampler saturates here.
_MAX_COMPONENT = 1e300


class ParameterError(ValueError):
    """Raised when a sampler parameter is outside its documented range."""


# Philox words to doubles in [0, 1): the top 53 bits times 2**-53, as
# numpy's next_double computes them.
_TO_UNIT = 2.0**-53
_HALF_MASK = 0xFFFFFFFF


@dataclass
class RandomSource:
    """One deterministic stream: same (seed, stream_id) -> same draws.

    uniform and integers decode the Philox words themselves, bit for bit as
    numpy's Generator.uniform and Generator.integers decode them, without
    numpy's per-call argument handling; numpy's Generator is used only for
    standard_normal.  integers keeps the upper half of a word for its next
    draw, as Philox's own 32-bit buffer does.
    """

    seed: int
    stream_id: int
    _gen: np.random.Generator = field(init=False, repr=False)
    _raw: object = field(init=False, repr=False)
    _half: int | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.Philox(ss))
        self._raw = self._gen.bit_generator.random_raw

    def standard_normal(self, n: int) -> np.ndarray:
        return self._gen.standard_normal(n)

    def uniform(self, low: float, high: float, size=None):
        """Generator.uniform bit for bit: low + (high - low) * u, with u the top
        53 bits of one Philox word times 2**-53, a Python float when size is None."""
        span = high - low
        if not 0.0 <= span < math.inf:
            if not math.isfinite(span):
                raise OverflowError("high - low range exceeds valid bounds")
            raise ValueError("high - low < 0")
        if size is None:
            return low + span * ((self._raw() >> 11) * _TO_UNIT)
        return low + span * ((self._raw(size) >> 11) * _TO_UNIT)

    def integers(self, low: int, high: int) -> int:
        """Generator.integers(low, high) bit for bit, for spans up to 2**32.

        numpy's 32-bit Lemire rejection (Lemire, ACM TOMACS 29(1), 2019)
        over 32-bit draws, each the low half of a fresh word or the held high
        half of the last one.  Span 1 draws nothing; span 2**32 is one 32-bit
        draw.  A wider span raises ParameterError."""
        span = high - low
        if not (0 < span <= 1 << 32 and -(1 << 63) <= low and high <= 1 << 63):
            if span <= 0:
                raise ValueError("low >= high")
            if span > 1 << 32:
                raise ParameterError(f"integers draws spans up to 2**32, got {span}")
            raise ValueError("low or high is out of bounds for int64")
        if span == 1:
            return low
        m = self._next32() * span
        if (m & _HALF_MASK) < span:
            threshold = ((1 << 32) - span) % span
            while (m & _HALF_MASK) < threshold:
                m = self._next32() * span
        return low + (m >> 32)

    def _next32(self) -> int:
        """Philox's next_uint32: the held high half-word, else the low half of
        a fresh word, keeping its high half."""
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._raw()
        self._half = word >> 32
        return word & _HALF_MASK

    def random_raw(self, n: int) -> np.ndarray:
        """Raw 64-bit generator words, for tests."""
        return self._raw(n)


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


def _saturated(scale: float, u: float, v: float, inv_beta: float) -> float:
    """One component scale * u / |v|^inv_beta, saturated instead of raised: a
    denominator that underflows to 0 gives the 1e300 cap with u's sign, one
    that overflows gives a signed zero, and a component beyond the cap is capped."""
    try:
        denominator = abs(v) ** inv_beta
    except OverflowError:
        denominator = math.inf
    step = scale * u / denominator if denominator > 0.0 else math.inf
    if not math.isfinite(step):
        return math.copysign(_MAX_COMPONENT, u)
    return min(max(step, -_MAX_COMPONENT), _MAX_COMPONENT)


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
    they are capped at 1e300, which also covers a denominator that
    underflows to 0 (|v| = 0, or tiny beta with |v| < 1), and a denominator
    that overflows (tiny beta, |v| > 1) gives a signed zero.

    Every call reads exactly the four Gaussians of one ``standard_normal(4)``
    draw.  When both quotients compute and land within the cap, they are the
    step; otherwise ``_saturated`` recomputes both from the same four values.
    """
    if not levy_weight > 0.0:
        raise ParameterError(f"levy_weight must be positive, got {levy_weight!r}")
    sigma = mantegna_sigma(beta)  # validates beta
    scale = levy_weight * (sigma if normalized else 1.0)
    inv_beta = 1.0 / beta
    u1, v1, u2, v2 = src.standard_normal(4).tolist()
    try:
        x = scale * u1 / abs(v1) ** inv_beta
        y = scale * u2 / abs(v2) ** inv_beta
    except (OverflowError, ZeroDivisionError):
        pass
    else:
        if -_MAX_COMPONENT <= x <= _MAX_COMPONENT and -_MAX_COMPONENT <= y <= _MAX_COMPONENT:
            # tuple.__new__ skips the named tuple's Python-level __new__ and its call.
            return tuple.__new__(LevyStep, (x, y))
    return tuple.__new__(
        LevyStep, (_saturated(scale, u1, v1, inv_beta), _saturated(scale, u2, v2, inv_beta))
    )
