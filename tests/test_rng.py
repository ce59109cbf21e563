"""Random-stream and heavy-tailed-step sampler tests.

The sigma_u oracle re-derives the closed form with mpmath's arbitrary
precision gamma so a typo in the production formula cannot hide; the four
reference values are additionally frozen as literals to catch regressions
in either implementation.
"""

import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from levyswarm.harness import run_scenario
from levyswarm.rng import (
    SCENARIO_STREAM,
    LevyStep,
    ParameterError,
    RandomSource,
    levy_step,
    mantegna_sigma,
)
from levyswarm.world import preset_scenario

GOLDEN = Path(__file__).parent / "golden" / "philox_seed0_stream0.txt"

# Frozen regression values (independently derived before the build with the
# oracle below; see oracle_sigma for the beta=2 float-boundary note).
SIGMA_REFERENCE = {
    0.5: 1.4793375595943192,
    1.0: 1.0,
    1.5: 0.6965745025576968,
    2.0: 9.884972298779197e-09,
}


def oracle_sigma(beta: float) -> float:
    """Independent evaluation of the numerator-Gaussian scale.

    Gamma factors come from mpmath at 50 significant digits; the sin, pi,
    division, and root run in IEEE doubles exactly as the production code's
    arithmetic does.  At beta=2 the analytic value is zero (sin(pi) = 0) but
    IEEE sin(pi) is ~1.22e-16, so the realizable value is a tiny positive
    number; the oracle reproduces that boundary faithfully.
    """
    mp.dps = 50
    g_num = float(mp.gamma(1.0 + beta))
    g_den = float(mp.gamma((1.0 + beta) / 2.0))
    num = g_num * math.sin(math.pi * beta / 2.0)
    den = g_den * beta * 2.0 ** ((beta - 1.0) / 2.0)
    return (num / den) ** (1.0 / beta)


class TestMantegnaSigma:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 2.0])
    def test_matches_independent_oracle(self, beta):
        got = mantegna_sigma(beta)
        want = oracle_sigma(beta)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("beta", sorted(SIGMA_REFERENCE))
    def test_matches_frozen_reference(self, beta):
        assert mantegna_sigma(beta) == pytest.approx(SIGMA_REFERENCE[beta], rel=1e-12)

    def test_beta_one_is_exactly_one(self):
        # Gamma(2)*sin(pi/2) / (Gamma(1)*1*2^0) = 1, representable exactly.
        assert abs(mantegna_sigma(1.0) - 1.0) <= 1e-12

    def test_beta_two_is_finite_positive(self):
        value = mantegna_sigma(2.0)
        assert math.isfinite(value) and value > 0.0

    @pytest.mark.parametrize("beta", [0.0, -1.0, 2.0000001, 3.0, math.nan, math.inf])
    def test_out_of_range_rejected(self, beta):
        with pytest.raises(ParameterError):
            mantegna_sigma(beta)


class TestRandomSource:
    def test_golden_sequence(self):
        lines = [l for l in GOLDEN.read_text().splitlines() if not l.startswith("#")]
        want = np.array([int(l) for l in lines], dtype=np.uint64)
        got = RandomSource(seed=0, stream_id=0).random_raw(64)
        assert np.array_equal(got.astype(np.uint64), want)

    def test_same_seed_same_stream_identical(self):
        a = RandomSource(seed=12345, stream_id=3)
        b = RandomSource(seed=12345, stream_id=3)
        assert np.array_equal(a.standard_normal(100), b.standard_normal(100))

    def test_streams_differ(self):
        a = RandomSource(seed=12345, stream_id=0).standard_normal(100)
        b = RandomSource(seed=12345, stream_id=1).standard_normal(100)
        c = RandomSource(seed=12345, stream_id=SCENARIO_STREAM).standard_normal(100)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(b, c)

    def test_seeds_differ(self):
        a = RandomSource(seed=1, stream_id=0).standard_normal(100)
        b = RandomSource(seed=2, stream_id=0).standard_normal(100)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_range_enforced(self, seed):
        with pytest.raises(ParameterError):
            RandomSource(seed=seed, stream_id=0)

    def test_scenario_stream_clears_uav_ids(self):
        assert SCENARIO_STREAM == 1 << 32


class TestUniform:
    """RandomSource.uniform is Generator.uniform bit for bit on twin streams."""

    @pytest.mark.parametrize("low,high", [(0.0, 1.0), (-1.0, 1.0), (0.0, 2.0 * math.pi)])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_matches_generator_uniform_between_other_draws(self, low, high, seed):
        ours = RandomSource(seed=seed, stream_id=3)
        twin = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(3,))))
        for size in [None, 1, 2, None, (3, 2), None, 257]:
            got, want = ours.uniform(low, high, size), twin.uniform(low, high, size)
            assert type(got) is type(want)
            assert np.array(got, dtype=float).tobytes() == np.array(want, dtype=float).tobytes()
            # Interleaved draws of other kinds keep both streams in step.
            assert ours.integers(0, 9) == int(twin.integers(0, 9))
            assert ours.standard_normal(3).tobytes() == twin.standard_normal(3).tobytes()
        assert ours.random_raw(2).tolist() == twin.bit_generator.random_raw(2).tolist()

    def test_scalar_draws_are_sized_draws_one_at_a_time(self):
        scalar, sized = RandomSource(5, 0), RandomSource(5, 0)
        singles = [scalar.uniform(-1.0, 1.0) for _ in range(64)]
        assert all(type(u) is float for u in singles)
        assert np.array(singles).tobytes() == sized.uniform(-1.0, 1.0, 64).tobytes()

    def test_reversed_range_raises_value_error_as_numpy_does(self):
        with pytest.raises(ValueError):
            np.random.default_rng(0).uniform(1.0, 0.0)
        with pytest.raises(ValueError, match="high - low < 0"):
            RandomSource(0, 0).uniform(1.0, 0.0)
        with pytest.raises(ValueError):
            RandomSource(0, 0).uniform(1.0, 0.0, 4)

    @pytest.mark.parametrize(
        "low,high",
        [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan), (-1e308, 1e308)],
    )
    def test_non_finite_range_raises_overflow_error_as_numpy_does(self, low, high):
        with pytest.raises(OverflowError):
            np.random.default_rng(0).uniform(low, high)
        source = RandomSource(0, 0)
        for size in [None, 3]:
            with pytest.raises(OverflowError, match="range exceeds valid bounds"):
                source.uniform(low, high, size)
        # A rejected range draws nothing.
        assert source.random_raw(1).tolist() == RandomSource(0, 0).random_raw(1).tolist()


def twin_generator(seed: int, stream_id: int) -> np.random.Generator:
    """numpy's Generator on the Philox stream that RandomSource(seed, stream_id) reads."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream_id,))))


# Spans 1 (no word), 2 and 3 (ABC's neighbour picks), a few rejection-prone
# ones, 2**32 - 1 (the widest Lemire span) and 2**32 (a bare half-word).
SPANS = [1, 2, 3, 7, 255, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]


class TestDecode:
    """uniform and integers decode the Philox words as numpy's Generator does."""

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_matches_generator_on_half_a_million_interleaved_draws(self, seed):
        ours, twin = RandomSource(seed, 9), twin_generator(seed, 9)
        script = random.Random(seed)
        drawn = 0
        while drawn < 500_000:
            kind = script.randrange(5)
            if kind == 0:
                span, low = script.choice(SPANS), script.randrange(-3, 4)
                got, want = ours.integers(low, low + span), int(twin.integers(low, low + span))
                assert type(got) is int
                drawn += 1
            elif kind == 1:
                got, want = ours.uniform(-1.0, 1.0), twin.uniform(-1.0, 1.0)
                assert type(got) is float
                drawn += 1
            elif kind == 2:
                got, want = ours.uniform(0.0, 1.0), twin.random()
                drawn += 1
            elif kind == 3:
                size = script.choice([0, 1, 2, 5, (3, 2), 64])
                got = ours.uniform(0.0, 2.0 * math.pi, size).tobytes()
                want = twin.uniform(0.0, 2.0 * math.pi, size).tobytes()
                drawn += int(np.prod(size))
            else:
                n = script.randrange(1, 5)
                got, want = ours.standard_normal(n).tobytes(), twin.standard_normal(n).tobytes()
                drawn += n
            assert got == want, (kind, drawn)
        assert ours.random_raw(4).tolist() == twin.bit_generator.random_raw(4).tolist()

    def test_a_held_half_word_outlives_other_draws(self):
        words = RandomSource(3, 1).random_raw(1).tolist()
        ours, twin = RandomSource(3, 1), twin_generator(3, 1)
        assert ours.integers(0, 2**32) == int(twin.integers(0, 2**32)) == words[0] & 0xFFFFFFFF
        assert ours.uniform(0.0, 1.0) == twin.random()
        assert ours.standard_normal(3).tobytes() == twin.standard_normal(3).tobytes()
        assert ours.uniform(0.0, 1.0, 4).tobytes() == twin.random(4).tobytes()
        # The second 32-bit draw is the high half of the first word.
        assert ours.integers(0, 2**32) == int(twin.integers(0, 2**32)) == words[0] >> 32
        assert ours.integers(0, 7) == int(twin.integers(0, 7))
        assert ours.random_raw(2).tolist() == twin.bit_generator.random_raw(2).tolist()

    def test_span_one_draws_nothing(self):
        ours, fresh = RandomSource(5, 2), RandomSource(5, 2)
        assert [ours.integers(k, k + 1) for k in (-4, 0, 9)] == [-4, 0, 9]
        assert ours.uniform(0.0, 1.0) == fresh.uniform(0.0, 1.0)

    def test_bad_ranges_raise_numpys_errors_and_draw_nothing(self):
        source, twin = RandomSource(0, 0), twin_generator(0, 0)
        for low, high, message in [
            (3, 3, "low >= high"),
            (4, 3, "low >= high"),
            (-(2**63) - 1, -(2**63) + 1, "out of bounds"),
            (2**63 - 1, 2**63 + 1, "out of bounds"),
        ]:
            with pytest.raises(ValueError, match=message):
                twin.integers(low, high)
            with pytest.raises(ValueError, match=message):
                source.integers(low, high)
        assert source.random_raw(1).tolist() == RandomSource(0, 0).random_raw(1).tolist()

    @pytest.mark.parametrize("high", [2**32 + 1, 2**40])
    def test_a_span_above_two_to_the_32_raises(self, high):
        source = RandomSource(0, 0)
        with pytest.raises(ParameterError, match="spans up to 2"):
            source.integers(0, high)
        assert source.random_raw(1).tolist() == RandomSource(0, 0).random_raw(1).tolist()


class _NoDecoders(np.random.Generator):
    """numpy's Generator with its uniform and integer decoders disabled."""

    def random(self, *args, **kwargs):
        raise AssertionError("a run decoded a Philox word through numpy")

    integers = uniform = random


@pytest.mark.parametrize("preset", ["uniform20", "twocluster20"])
@pytest.mark.parametrize("algorithm", ["hybrid-abc-levy", "abc", "pso"])
def test_runs_take_only_words_and_normals_from_numpy(monkeypatch, algorithm, preset):
    # numpy may change its decoders between feature releases (NEP 19); the
    # artifacts rest only on Philox's words and standard_normal.
    monkeypatch.setattr(np.random, "Generator", _NoDecoders)
    assert isinstance(RandomSource(0, 0)._gen, _NoDecoders)
    config = preset_scenario(preset, 1, algorithm=algorithm, max_steps=300)
    result = run_scenario(config)
    assert result.metrics.recorded_steps > 1


class TestStandardNormal:
    def test_moments(self):
        src = RandomSource(seed=11, stream_id=0)
        sample = src.standard_normal(100_000)
        assert abs(sample.mean()) < 0.02
        assert abs(sample.var() - 1.0) < 0.05


class _ScriptedSource:
    """Duck-typed stand-in feeding a fixed list of normal draws."""

    def __init__(self, values):
        self._values = list(values)

    def standard_normal(self, n):
        out = np.array([self._values.pop(0) for _ in range(n)])
        return out


class TestLevyStep:
    def test_zero_numerator_forces_zero_component(self):
        # u = 0 on both axes -> both components exactly 0 regardless of v.
        src = _ScriptedSource([0.0, 0.3, 0.0, -2.0])
        step = levy_step(src, 3.0, 1.5)
        assert step.x == 0.0 and step.y == 0.0
        assert float(np.hypot(*step)) == 0.0

    def test_known_draw_reproduces_formula(self):
        u1, v1, u2, v2 = 0.5, -2.0, -1.25, 0.25
        src = _ScriptedSource([u1, v1, u2, v2])
        lam, beta = 3.0, 1.5
        step = levy_step(src, lam, beta)
        sigma = mantegna_sigma(beta)
        want1 = lam * sigma * u1 / abs(v1) ** (1.0 / beta)
        want2 = lam * sigma * u2 / abs(v2) ** (1.0 / beta)
        assert step.x == want1
        assert step.y == want2
        assert float(np.hypot(*step)) == float(np.hypot(want1, want2))

    def test_unnormalized_drops_sigma(self):
        draws = [0.7, 1.1, -0.4, -0.9]
        a = levy_step(_ScriptedSource(list(draws)), 2.0, 1.5, normalized=True)
        b = levy_step(_ScriptedSource(list(draws)), 2.0, 1.5, normalized=False)
        sigma = mantegna_sigma(1.5)
        assert b.x == pytest.approx(a.x / sigma, rel=1e-15)
        assert b.y == pytest.approx(a.y / sigma, rel=1e-15)

    def test_overflowing_quotient_clamps_finite(self):
        # A large numerator against a small denominator overflows the
        # division; the sampler caps the component at +/-1e300.
        src = _ScriptedSource([1e10, 1e-299, -1e10, 1e-299])
        step = levy_step(src, 1.0, 1.0)
        assert step.x == 1e300 and step.y == -1e300
        assert math.isfinite(float(np.hypot(*step)))

    def test_tiny_beta_saturates_instead_of_raising(self):
        # At beta = 1e-3, |v| ** (1/beta) overflows for |v| = 3 (a signed zero
        # component) and underflows to 0 for |v| = 0.1 (the 1e300 cap).
        step = levy_step(_ScriptedSource([-0.5, 3.0, -0.5, 0.1]), 1.0, 1e-3)
        assert step.x == 0.0 and math.copysign(1.0, step.x) == -1.0
        assert step.y == -1e300

    @pytest.mark.parametrize(
        "v, beta",
        [
            (0.0, 1.5), (5e-324, 1.5), (1e-310, 1.5), (1e-310, 1.0),
            (0.0, 1e-3), (5e-324, 1e-3), (1e-310, 1e-3),
        ],
        ids=[
            "zero", "min_subnormal", "subnormal", "subnormal_beta_1",
            "zero_tiny_beta", "min_subnormal_tiny_beta", "subnormal_tiny_beta",
        ],
    )
    def test_reads_exactly_four_normals(self, v, beta):
        # A zero or subnormal denominator is used as drawn: the step reads
        # (u1, v1, u2, v2) and no further, and each component is the
        # saturating quotient with the sign of u.  At beta = 1 the quotient
        # overflows to inf, at the tiny beta the denominator underflows to 0.
        src = _ScriptedSource([0.75, v, -1.25, -v, 9.0])
        step = levy_step(src, 2.0, beta)
        assert src._values == [9.0]
        scale = 2.0 * mantegna_sigma(beta)
        for got, u in zip(step, (0.75, -1.25)):
            denominator = abs(v) ** (1.0 / beta)
            want = scale * u / denominator if denominator > 0.0 else math.copysign(math.inf, u)
            assert got == max(-1e300, min(1e300, want))
            assert math.copysign(1.0, got) == math.copysign(1.0, u)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_weight_rejected(self, bad):
        with pytest.raises(ParameterError):
            levy_step(RandomSource(seed=0, stream_id=0), bad, 1.5)

    def test_determinism(self):
        a = [levy_step(RandomSource(seed=9, stream_id=2), 3.0, 1.0) for _ in range(1)]
        srcs = (RandomSource(seed=9, stream_id=2), RandomSource(seed=9, stream_id=2))
        seq1 = [np.array(levy_step(srcs[0], 3.0, 1.0)) for _ in range(50)]
        seq2 = [np.array(levy_step(srcs[1], 3.0, 1.0)) for _ in range(50)]
        assert all(np.array_equal(x, y) for x, y in zip(seq1, seq2))
        assert isinstance(a[0], LevyStep)

    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        lam=st.floats(min_value=1e-3, max_value=1e3),
        k=st.integers(min_value=-8, max_value=8),
        beta=st.sampled_from([0.5, 1.0, 1.3, 1.5, 2.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_power_of_two_weight_scaling_is_exact(self, seed, lam, k, beta):
        c = 2.0**k
        a = levy_step(RandomSource(seed=seed, stream_id=0), lam, beta)
        b = levy_step(RandomSource(seed=seed, stream_id=0), c * lam, beta)
        assert np.array_equal(np.array(b), c * np.array(a))

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        lam=st.floats(min_value=1e-2, max_value=1e2),
        c=st.floats(min_value=1e-2, max_value=1e2),
    )
    @settings(max_examples=60, deadline=None)
    def test_general_weight_scaling_within_float_error(self, seed, lam, c):
        a = levy_step(RandomSource(seed=seed, stream_id=0), lam, 1.5)
        b = levy_step(RandomSource(seed=seed, stream_id=0), c * lam, 1.5)
        assert np.allclose(np.array(b), c * np.array(a), rtol=1e-12, atol=0.0)


class TestLevyStepValidation:
    """levy_step validates its weight and beta on every call: every invalid
    argument raises the same exception each time, whatever was sampled
    before it."""

    BAD = [
        ((0.0, 1.5), ParameterError), ((0, 1.5), ParameterError),
        ((-1.0, 1.5), ParameterError), ((math.nan, 1.5), ParameterError),
        ((3.0, 0.0), ParameterError), ((3.0, 2.5), ParameterError),
        ((3.0, math.nan), ParameterError), ((3.0, "1.5"), ParameterError),
        ((3.0, [1.5]), ParameterError), (("3", 1.5), TypeError), (([3.0], 1.5), TypeError),
    ]

    @pytest.mark.parametrize("args, error", BAD, ids=[repr(args) for args, _ in BAD])
    def test_invalid_arguments_raise_on_every_call(self, args, error):
        src = _ScriptedSource([0.5, 1.0] * 8)
        for _ in range(2):
            with pytest.raises(error):
                levy_step(src, *args)
        # It still raises after valid calls with arguments that compare and
        # hash alike: 1.0, 1 and True do.
        levy_step(src, 3.0, 1.5)
        levy_step(src, True, 1.0)
        levy_step(src, 1, True)
        with pytest.raises(error):
            levy_step(src, *args)
        # No draw is read by a call that raises.
        assert len(src._values) == 16 - 3 * 4

    def test_unhashable_valid_arguments_still_sample(self):
        # An unhashable one-element array weight samples like its float.
        draws = [0.5, -2.0, -1.25, 0.25]
        want = levy_step(_ScriptedSource(list(draws)), 3.0, 1.5)
        got = levy_step(_ScriptedSource(list(draws)), np.array([3.0]), 1.5)
        assert [float(v[0]) for v in got] == list(want)

    @pytest.mark.parametrize("first", [3.0, np.float64(3.0)])
    def test_weight_type_sets_component_type(self, first):
        # Equal weights of different types give their own component types: an
        # np.float64 weight gives np.float64 components and a float weight
        # floats, in either order.
        levy_step(_ScriptedSource([0.5, -2.0, -1.25, 0.25]), first, 1.5)
        for weight, kind in [(np.float64(3.0), np.float64), (3.0, float), (3, float)]:
            step = levy_step(_ScriptedSource([0.5, -2.0, -1.25, 0.25]), weight, 1.5)
            assert type(step.x) is kind and type(step.y) is kind
        step = levy_step(_ScriptedSource([0.5, -2.0, -1.25, 0.25]), 3.0, np.float64(1.5))
        assert type(step.x) is np.float64


@pytest.fixture(scope="module")
def components():
    src = RandomSource(seed=2024, stream_id=0)
    steps = [levy_step(src, 1.0, 1.5) for _ in range(100_000)]
    return np.array(steps).ravel()


class TestHeavyTailStatistics:
    """Distributional checks over 10^5 draws at beta = 1.5 (deterministic seed)."""

    def test_excess_kurtosis_exceeds_ten(self, components):
        x = components
        z = x - x.mean()
        kurt = np.mean(z**4) / np.mean(z**2) ** 2 - 3.0
        assert kurt > 10.0

    def test_symmetry_sign_test(self, components):
        from scipy.stats import binomtest

        nonzero = components[components != 0.0]
        k = int((nonzero > 0).sum())
        p = binomtest(k, len(nonzero), 0.5).pvalue
        assert p > 0.001

    def test_tail_quantile_dwarfs_mad_fitted_gaussian(self, components):
        from scipy.stats import norm

        x = np.abs(components)
        mad = np.median(np.abs(components - np.median(components)))
        sigma_hat = mad / norm.ppf(0.75)
        gaussian_p999 = norm.ppf(1.0 - 0.5e-3) * sigma_hat  # |N(0,s)| 99.9th pct
        levy_p999 = np.quantile(x, 0.999)
        assert levy_p999 >= 3.0 * gaussian_p999
