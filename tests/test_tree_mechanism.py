"""Tests for the Tree Mechanism (Algorithm 4)."""

import math

import numpy as np
import pytest

from repro import PrivacyParams, TreeMechanism
from repro.exceptions import StreamExhaustedError, ValidationError
from repro.privacy import HybridMechanism, tree_error_bound, tree_levels
from repro.privacy.release import DecayedTreeMechanism, SlidingWindowMechanism

HUGE_EPS = PrivacyParams(1e9, 0.5)  # effectively zero noise
NORMAL = PrivacyParams(1.0, 1e-6)


class TestLevels:
    @pytest.mark.parametrize(
        "horizon,expected",
        [(1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4), (1023, 10), (1024, 11)],
    )
    def test_bit_length(self, horizon, expected):
        assert tree_levels(horizon) == expected

    def test_rejects_zero(self):
        with pytest.raises(Exception):
            tree_levels(0)


class TestExactnessWithoutNoise:
    """With ε → ∞ the released sums must equal the exact prefix sums."""

    def test_vector_prefix_sums(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(16, 4)) * 0.3
        mech = TreeMechanism(16, (4,), 2.0, HUGE_EPS, rng=1)
        for t in range(16):
            released = mech.observe(data[t])
            np.testing.assert_allclose(released, data[: t + 1].sum(axis=0), atol=1e-4)

    def test_matrix_stream(self):
        """Matrices flow through as flattened d²-vectors (Algorithm 2 usage)."""
        rng = np.random.default_rng(1)
        data = rng.normal(size=(8, 3, 3)) * 0.2
        mech = TreeMechanism(8, (3, 3), 2.0, HUGE_EPS, rng=2)
        for t in range(8):
            released = mech.observe(data[t])
            assert released.shape == (3, 3)
            np.testing.assert_allclose(released, data[: t + 1].sum(axis=0), atol=1e-4)

    def test_scalar_stream(self):
        mech = TreeMechanism(4, (), 1.0, HUGE_EPS, rng=0)
        outputs = [float(mech.observe(1.0)) for _ in range(4)]
        np.testing.assert_allclose(outputs, [1.0, 2.0, 3.0, 4.0], atol=1e-4)

    def test_non_power_of_two_horizon(self):
        data = np.ones((11, 2)) * 0.1
        mech = TreeMechanism(11, (2,), 2.0, HUGE_EPS, rng=0)
        for t in range(11):
            released = mech.observe(data[t])
        np.testing.assert_allclose(released, data.sum(axis=0), atol=1e-4)


class TestNoiseCalibration:
    def test_node_sigma_formula(self):
        """σ_node = levels · Δ₂ · √(2 ln(2/δ)) / ε."""
        mech = TreeMechanism(8, (2,), 2.0, NORMAL, rng=0)
        levels = tree_levels(8)
        expected = levels * 2.0 * math.sqrt(2.0 * math.log(2.0 / 1e-6)) / 1.0
        assert mech.sigma_node == pytest.approx(expected)

    def test_noise_shrinks_with_epsilon(self):
        strict = TreeMechanism(8, (2,), 2.0, PrivacyParams(0.1, 1e-6))
        loose = TreeMechanism(8, (2,), 2.0, PrivacyParams(10.0, 1e-6))
        assert strict.sigma_node == pytest.approx(100.0 * loose.sigma_node)

    def test_error_bound_polylog_in_horizon(self):
        """Prop C.1: the error grows polylogarithmically, not linearly, in T."""
        short = tree_error_bound(64, 4, 2.0, NORMAL)
        long = tree_error_bound(64 * 1024, 4, 2.0, NORMAL)
        assert long / short < (math.log2(64 * 1024) / math.log2(64)) ** 2

    def test_error_bound_sqrt_d(self):
        lo = tree_error_bound(64, 4, 2.0, NORMAL, beta=0.5)
        hi = tree_error_bound(64, 400, 2.0, NORMAL, beta=0.5)
        # √(400)/√4 = 10, and the √log(1/β) additive term dilutes it slightly.
        assert 5.0 < hi / lo <= 10.0

    def test_empirical_error_within_bound(self):
        """The realized max error should sit below the 1-β bound."""
        rng = np.random.default_rng(3)
        horizon, dim = 64, 3
        data = rng.normal(size=(horizon, dim))
        data /= np.maximum(np.linalg.norm(data, axis=1, keepdims=True), 1.0)
        mech = TreeMechanism(horizon, (dim,), 2.0, NORMAL, rng=4)
        bound = mech.error_bound(beta=0.01)
        worst = 0.0
        exact = np.zeros(dim)
        for t in range(horizon):
            released = mech.observe(data[t])
            exact += data[t]
            worst = max(worst, float(np.linalg.norm(released - exact)))
        assert worst < bound


class TestStreamDiscipline:
    def test_exhaustion_raises(self):
        mech = TreeMechanism(2, (1,), 1.0, NORMAL, rng=0)
        mech.observe(np.array([0.1]))
        mech.observe(np.array([0.1]))
        with pytest.raises(StreamExhaustedError):
            mech.observe(np.array([0.1]))

    def test_wrong_shape_rejected(self):
        mech = TreeMechanism(4, (2,), 1.0, NORMAL, rng=0)
        with pytest.raises(ValidationError):
            mech.observe(np.zeros(3))

    def test_nan_rejected(self):
        mech = TreeMechanism(4, (2,), 1.0, NORMAL, rng=0)
        with pytest.raises(ValidationError):
            mech.observe(np.array([0.1, float("nan")]))

    def test_current_sum_is_stable(self):
        """Re-reading must not re-randomize (post-processing only)."""
        mech = TreeMechanism(4, (2,), 1.0, NORMAL, rng=0)
        mech.observe(np.array([0.5, 0.5]))
        first = mech.current_sum()
        second = mech.current_sum()
        np.testing.assert_array_equal(first, second)

    def test_current_sum_before_any_observation(self):
        mech = TreeMechanism(4, (2,), 1.0, NORMAL, rng=0)
        np.testing.assert_array_equal(mech.current_sum(), np.zeros(2))


class TestMemory:
    def test_logarithmic_memory(self):
        """Memory must be (levels+1)·d floats — O(d log T), not O(d·T) —
        and never above Algorithm 4's 2·levels·d."""
        mech = TreeMechanism(1024, (8,), 2.0, NORMAL, rng=0)
        assert mech.memory_floats() == (tree_levels(1024) + 1) * 8
        assert mech.memory_floats() <= 2 * tree_levels(1024) * 8

    def test_memory_independent_of_steps(self):
        mech = TreeMechanism(64, (4,), 2.0, NORMAL, rng=0)
        before = mech.memory_floats()
        for _ in range(32):
            mech.observe(np.zeros(4))
        assert mech.memory_floats() == before


class TestDeterminism:
    def test_same_seed_same_outputs(self):
        def run(seed):
            mech = TreeMechanism(8, (2,), 2.0, NORMAL, rng=seed)
            return [mech.observe(np.ones(2) * 0.1).copy() for _ in range(8)]

        for a, b in zip(run(11), run(11)):
            np.testing.assert_array_equal(a, b)


class TestActiveMaskRegression:
    """The release path reads the maintained active-level mask instead of
    recomputing the set-bit list each step; these tests pin the releases to
    an independent from-scratch model of Algorithm 4."""

    def _reference_releases(self, data, horizon, sigma, seed):
        """Direct model: exact prefix + per-node noise at the set bits of t,
        with one Gaussian draw per closed node, replayed independently of
        the TreeMechanism implementation."""
        rng = np.random.default_rng(seed)
        levels = horizon.bit_length()
        dim = data.shape[1]
        eta = np.zeros((levels, dim))
        prefix = np.zeros(dim)
        out = []
        for t in range(1, len(data) + 1):
            prefix = prefix + data[t - 1]
            closed_level = (t & -t).bit_length() - 1
            eta[closed_level] = rng.normal(0.0, sigma, size=dim)
            release = prefix.copy()
            for j in range(levels):
                if (t >> j) & 1:
                    release += eta[j]
            out.append(release.copy())
        return np.stack(out)

    def test_releases_match_reference_model(self):
        horizon = 13
        rng = np.random.default_rng(0)
        data = rng.normal(size=(horizon, 3)) * 0.2
        mech = TreeMechanism(horizon, (3,), 2.0, NORMAL, rng=77)
        released = np.stack([mech.observe(v) for v in data])
        reference = self._reference_releases(data, horizon, mech.sigma_node, 77)
        np.testing.assert_array_equal(released, reference)

    def test_active_mask_tracks_set_bits(self):
        mech = TreeMechanism(16, (2,), 2.0, NORMAL, rng=0)
        for t in range(1, 17):
            mech.observe(np.zeros(2))
            expected = [(t >> j) & 1 == 1 for j in range(mech.levels)]
            assert list(mech._active) == expected


#: Every mechanism that inherits the tree's batch kernels: the plain tree,
#: a hybrid (epoch trees), a finite window (chunk trees), a γ=1 decayed tree.
BLOCK_MECHANISMS = {
    "tree": lambda shape, rng: TreeMechanism(256, shape, 2.0, NORMAL, rng=rng),
    "hybrid": lambda shape, rng: HybridMechanism(shape, 2.0, NORMAL, rng=rng),
    "window": lambda shape, rng: SlidingWindowMechanism(200, shape, 2.0, NORMAL, rng=rng),
    "decayed-1": lambda shape, rng: DecayedTreeMechanism(
        256, shape, 2.0, NORMAL, rng=rng, decay=1.0
    ),
}


class TestBlockKernelsMatchObserveLoop:
    """``observe_batch`` and ``advance_batch`` against literal ``observe``
    calls, so a change in the block's addition order cannot hide behind a
    replay that batches on both sides.  The ``(64, 64)`` elements take the
    row-loop accumulation, the ``(8,)`` elements the cumsum; the block
    starts at step 5 and crosses the level boundary at step 64."""

    @pytest.mark.parametrize("shape", [(64, 64), (8,)], ids=["gram64", "vec8"])
    @pytest.mark.parametrize("kind", sorted(BLOCK_MECHANISMS))
    def test_block_equals_sequential_observes(self, kind, shape):
        make = BLOCK_MECHANISMS[kind]
        rng = np.random.default_rng(41)
        # Magnitudes over 16 decades: any reordering of the additions
        # changes the low bits.
        data = rng.normal(size=(72,) + shape) * 10.0 ** rng.uniform(-8, 8, size=(72,) + shape)
        head, block, tail = data[:5], data[5:69], data[69:]
        seq, bat, adv = make(shape, 7), make(shape, 7), make(shape, 7)
        for mech in (seq, bat, adv):
            for value in head:
                mech.observe(value)
        expected = np.stack([seq.observe(value) for value in block])
        assert np.array_equal(bat.observe_batch(block), expected)
        assert np.array_equal(adv.advance_batch(block), expected[-1])
        for value in tail:  # the committed state carries on identically
            release = seq.observe(value)
            assert np.array_equal(bat.observe(value), release)
            assert np.array_equal(adv.observe(value), release)
