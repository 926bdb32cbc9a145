"""Moment-bundle refactor regression suite.

The refactor's core claim: the shard classes are now thin *bundle
declarations* over :class:`repro.streaming.moments.MomentBundle`, and the
default two-entry (cross, gram) bundle is **bit-identical** to the
pre-refactor inline pair — same factory arguments, same rng children,
same float expressions, same budget split.  This suite pins that claim
directly (shard vs. hand-built mechanism pair under one seed, exact and
fast tiers, decayed and windowed), plus the bundle-generic pieces the
refactor introduced:

* :func:`~repro.privacy.parameters.bundle_budgets` reproduces the
  historical ``halve()`` split bit for bit at equal two-way weights;
* per-entry forgetting factors and runtime ``add``/``remove`` — what the
  tenant shard's bundle (Gram groups, then per-tenant crosses) needs;
* the per-bundle fault rule — a statistic failing *after* an earlier
  entry committed tears the bundle
  (:class:`~repro.exceptions.BundlePartialCommitError`), kills the owning
  shard, and loss accounting counts only fully committed blocks, with
  the torn block refunded — for tenant shards too.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import (
    L2Ball,
    MultiTenantStream,
    PrivacyParams,
    ShardedStream,
    merge_released,
)
from repro.data import make_dense_stream
from repro.exceptions import (
    BundlePartialCommitError,
    ShardUnavailableError,
    ValidationError,
)
from repro.privacy import bundle_budgets, make_release_mechanism
from repro.privacy.release import DecayedTreeMechanism
from repro.streaming import MomentBundle, MomentShard, TenantShard
from repro.streaming.moments import (
    bundle_names,
    cross_statistic,
    gram_statistic,
    iv_statistics,
)

PARAMS = PrivacyParams(4.0, 1e-6)
DIM = 3
T = 24
BLOCKS = [(0, 5), (5, 6), (6, 13), (13, 20), (20, 24)]


@pytest.fixture(scope="module")
def stream():
    return make_dense_stream(T, DIM, noise_std=0.05, rng=321)


def _legacy_pair(seed, mechanism="tree", horizon=T, decay=None, window=None):
    """The pre-refactor inline construction: halve() + two spawned children."""
    front = np.random.default_rng(seed)
    cross_rng, gram_rng = front.spawn(2)
    half = PARAMS.halve()
    kwargs = dict(
        l2_sensitivity=2.0, params=half, mechanism=mechanism,
        horizon=horizon, decay=decay, window=window,
    )
    cross = make_release_mechanism(shape=(DIM,), rng=cross_rng, **kwargs)
    gram = make_release_mechanism(shape=(DIM, DIM), rng=gram_rng, **kwargs)
    return cross, gram


def _shard(seed, **kwargs):
    front = np.random.default_rng(seed)
    cross_rng, gram_rng = front.spawn(2)
    kwargs.setdefault("shard_horizon", T)
    return MomentShard(
        index=0, dim=DIM, budget=PARAMS,
        cross_rng=cross_rng, gram_rng=gram_rng, **kwargs,
    )


class TestDefaultBundleBitIdentity:
    """The acceptance gate: bundle shards replay the pre-refactor pair."""

    @pytest.mark.parametrize("fast", [False, True])
    def test_exact_and_fast_tiers_replay_inline_pair(self, stream, fast):
        shard = _shard(11)
        cross_ref, gram_ref = _legacy_pair(11)
        for s, e in BLOCKS:
            xs, ys = stream.xs[s:e], stream.ys[s:e]
            shard.ingest(xs, ys, fast)
            if fast:
                cross_ref.advance_sum(ys @ xs, e - s)
                gram_ref.advance_sum(xs.T @ xs, e - s)
            else:
                cross_ref.advance_batch(xs * ys[:, None])
                gram_ref.advance_batch(xs[:, :, None] * xs[:, None, :])
        np.testing.assert_array_equal(shard.cross.current_sum(), cross_ref.current_sum())
        np.testing.assert_array_equal(shard.gram.current_sum(), gram_ref.current_sum())

    def test_decayed_fast_tier_replays_inline_weights(self, stream):
        shard = _shard(12, decay=0.9)
        cross_ref, gram_ref = _legacy_pair(12, decay=0.9)
        for s, e in BLOCKS:
            xs, ys = stream.xs[s:e], stream.ys[s:e]
            k = e - s
            shard.ingest(xs, ys, fast=True)
            weights = 0.9 ** np.arange(k - 1, -1, -1, dtype=float)
            cross_ref.advance_sum((weights * ys) @ xs, k)
            gram_ref.advance_sum((weights[:, None] * xs).T @ xs, k)
        np.testing.assert_array_equal(shard.cross.current_sum(), cross_ref.current_sum())
        np.testing.assert_array_equal(shard.gram.current_sum(), gram_ref.current_sum())

    def test_windowed_shard_replays_inline_pair(self, stream):
        shard = _shard(14, window=8)
        cross_ref, _ = _legacy_pair(14, window=8)
        for s, e in BLOCKS:
            shard.ingest(stream.xs[s:e], stream.ys[s:e], False)
            cross_ref.advance_batch(stream.xs[s:e] * stream.ys[s:e][:, None])
        np.testing.assert_array_equal(
            merge_released([shard.cross]).value, merge_released([cross_ref]).value
        )

    def test_released_order_is_declaration_order(self, stream):
        shard = _shard(15)
        shard.ingest(stream.xs[:4], stream.ys[:4], False)
        released = shard.released()
        assert released == (shard.bundle.get("cross"), shard.bundle.get("gram"))
        assert shard.bundle.names == ("cross", "gram")


class TestBundleBudgets:
    def test_equal_two_way_split_is_halve_bit_exact(self):
        for params in (PARAMS, PrivacyParams(1.0, 1e-7), PrivacyParams(0.3, 1e-9)):
            half = params.halve()
            for piece in bundle_budgets(params, (1.0, 1.0)):
                assert piece.epsilon == half.epsilon
                assert piece.delta == half.delta

    def test_three_way_split_is_exact_thirds(self):
        thirds = bundle_budgets(PARAMS, (1.0, 1.0, 1.0))
        assert len(thirds) == 3
        for piece in thirds:
            assert piece.epsilon == PARAMS.epsilon / 3.0
            assert piece.delta == PARAMS.delta / 3.0

    def test_weighted_split_conserves_budget(self):
        pieces = bundle_budgets(PARAMS, (2.0, 1.0, 1.0))
        assert sum(p.epsilon for p in pieces) == pytest.approx(PARAMS.epsilon)
        assert pieces[0].epsilon == pytest.approx(2 * pieces[1].epsilon)


class TestBundleApi:
    def test_bundle_names_mapping(self):
        assert bundle_names("moment") == ("cross", "gram")
        assert bundle_names("projected") == ("cross", "gram")
        assert bundle_names("sketch") == ("cross", "gram")
        assert bundle_names("iv") == ("zz", "zx", "zy")

    def test_iv_statistic_shapes_and_rules(self):
        zz, zx, zy = iv_statistics(3, 2)
        assert (zz.name, zx.name, zy.name) == ("zz", "zx", "zy")
        assert zz.shape == (3, 3) and zx.shape == (3, 2) and zy.shape == (3,)
        rows = np.arange(10.0).reshape(2, 5)  # [z | x] with p=3, d=2
        ys = np.array([0.5, -0.5])
        z, x = rows[:, :3], rows[:, 3:]
        np.testing.assert_allclose(zz.total(rows, ys, None), z.T @ z)
        np.testing.assert_allclose(zx.total(rows, ys, None), z.T @ x)
        np.testing.assert_allclose(zy.total(rows, ys, None), ys @ z)
        np.testing.assert_allclose(zx.values(rows, ys).sum(axis=0), z.T @ x)

    def test_duplicate_names_rejected(self):
        stats = (cross_statistic(DIM), cross_statistic(DIM))
        rngs = np.random.default_rng(0).spawn(2)
        with pytest.raises(ValidationError, match="unique"):
            MomentBundle(stats, bundle_budgets(PARAMS, (1.0, 1.0)), rngs, horizon=T)

    def test_arity_mismatch_rejected(self):
        stats = (cross_statistic(DIM), gram_statistic(DIM))
        rngs = np.random.default_rng(0).spawn(1)
        with pytest.raises(ValidationError, match="one budget and one rng"):
            MomentBundle(stats, bundle_budgets(PARAMS, (1.0, 1.0)), rngs, horizon=T)

    def test_killed_bundle_releases_nones_and_frees_memory(self, stream):
        shard = _shard(16)
        shard.ingest(stream.xs[:4], stream.ys[:4], False)
        assert shard.memory_floats() > 0
        shard.kill()
        assert shard.released() == (None, None)
        assert shard.memory_floats() == 0
        with pytest.raises(ValidationError, match="killed"):
            shard.bundle.ingest(stream.xs[:4], stream.ys[:4], False)


def _bundle(stats, seed):
    """A bundle over ``stats`` with fresh children of ``seed`` (one each)."""
    rngs = np.random.default_rng(seed).spawn(len(stats))
    budgets = bundle_budgets(PARAMS, (1.0,) * len(stats))
    return MomentBundle(stats, budgets, rngs, horizon=T)


class TestBundleEntries:
    """Per-entry γ and runtime add/remove (the tenant shard's bundle)."""

    @pytest.mark.parametrize("fast", [False, True])
    def test_mixed_decays_replay_single_decay_bundles(self, stream, fast):
        cross, gram = cross_statistic(DIM), gram_statistic(DIM)
        mixed_stats = (
            replace(gram, name="gram1", decay=1.0),
            replace(gram, name="gram09", decay=0.9),
            replace(cross, name="cross09", decay=0.9),
            replace(cross, name="cross1", decay=1.0),
        )
        mixed = _bundle(mixed_stats, 31)
        r0, r1, r2, r3 = np.random.default_rng(31).spawn(4)
        piece = bundle_budgets(PARAMS, (1.0,) * 4)[0]
        plain = MomentBundle(
            (replace(gram, name="gram1"), replace(cross, name="cross1")),
            (piece, piece), (r0, r3), horizon=T,
        )
        decayed = MomentBundle(
            (replace(gram, name="gram09"), replace(cross, name="cross09")),
            (piece, piece), (r1, r2), horizon=T, decay=0.9,
        )
        for s, e in BLOCKS:
            xs, ys = stream.xs[s:e], stream.ys[s:e]
            for bundle in (mixed, plain, decayed):
                bundle.ingest(xs, ys, fast)
        for single in (plain, decayed):
            for name in single.names:
                ref, got = single.get(name), mixed.get(name)
                assert type(got) is type(ref)
                np.testing.assert_array_equal(got.current_sum(), ref.current_sum())
                np.testing.assert_array_equal(
                    merge_released([got]).value, merge_released([ref]).value
                )

    def test_added_entry_advances_last_from_step_zero(self, stream):
        bundle = _bundle((cross_statistic(DIM), gram_statistic(DIM)), 32)
        bundle.ingest(stream.xs[:5], stream.ys[:5], False)
        late_rng, ref_rng = np.random.default_rng(33), np.random.default_rng(33)
        piece = bundle_budgets(PARAMS, (1.0, 1.0))[0]
        bundle.add(replace(cross_statistic(DIM), name="late"), piece, late_rng)
        assert bundle.names == ("cross", "gram", "late")
        assert bundle.get("late").steps_taken == 0
        order = []
        for name in bundle.names:
            mech = bundle._mechanisms[name]
            original = mech.advance_batch

            def spy(values, name=name, original=original):
                order.append(name)
                return original(values)

            mech.advance_batch = spy
        bundle.ingest(stream.xs[5:9], stream.ys[5:9], False)
        assert order == ["cross", "gram", "late"]
        assert bundle.get("cross").steps_taken == 9
        assert bundle.get("late").steps_taken == 4
        ref = make_release_mechanism(
            shape=(DIM,), l2_sensitivity=2.0, params=piece, rng=ref_rng, horizon=T
        )
        ref.advance_batch(stream.xs[5:9] * stream.ys[5:9][:, None])
        np.testing.assert_array_equal(
            bundle.get("late").current_sum(), ref.current_sum()
        )

    def test_removed_entry_never_advances(self, stream):
        bundle = _bundle((cross_statistic(DIM), gram_statistic(DIM)), 34)
        bundle.ingest(stream.xs[:5], stream.ys[:5], True)
        removed = bundle.get("cross")
        bundle.remove("cross")
        bundle.ingest(stream.xs[5:9], stream.ys[5:9], True)
        bundle.ingest(stream.xs[9:12], stream.ys[9:12], False)
        assert removed.steps_taken == 5
        assert bundle.names == ("gram",)
        assert bundle.released() == (bundle.get("gram"),)
        assert bundle.get("gram").steps_taken == 12
        with pytest.raises(ValidationError, match="no statistic"):
            bundle.remove("cross")

    def test_duplicate_add_rejected(self):
        bundle = _bundle((cross_statistic(DIM), gram_statistic(DIM)), 35)
        piece = bundle_budgets(PARAMS, (1.0, 1.0))[0]
        with pytest.raises(ValidationError, match="unique"):
            bundle.add(gram_statistic(DIM), piece, np.random.default_rng(0))
        assert bundle.names == ("cross", "gram")

    def test_shared_values_rule_materializes_once_per_block(self, stream):
        gram = gram_statistic(DIM)
        calls = []

        def values(rows, ys):
            calls.append(len(rows))
            return gram.values(rows, ys)

        shared = replace(gram, values=values)
        bundle = _bundle(
            (
                replace(shared, name="gram1", decay=1.0),
                replace(shared, name="gram09", decay=0.9),
                cross_statistic(DIM),
            ),
            36,
        )
        for s, e in BLOCKS:
            bundle.ingest(stream.xs[s:e], stream.ys[s:e], False)
        assert calls == [e - s for s, e in BLOCKS]


class TestPartialCommitFaults:
    def _poison(self, bundle, name):
        """Make one entry's mechanism fail on its next advance."""

        class Poisoned:
            def advance_batch(self, values):
                raise RuntimeError("poisoned mechanism")

            def advance_sum(self, total, k):
                raise RuntimeError("poisoned mechanism")

        bundle._mechanisms[name] = Poisoned()

    def test_first_entry_failure_is_block_atomic(self, stream):
        """Guard-entry failure consumes nothing: shard alive, retry safe."""
        shard = _shard(17)
        self._poison(shard.bundle, "cross")
        with pytest.raises(RuntimeError, match="poisoned"):
            shard.ingest(stream.xs[:4], stream.ys[:4], False)
        assert shard.alive
        assert shard.steps == 0
        assert shard.bundle.get("gram") is not None  # bundle not torn

    def test_later_entry_failure_tears_the_bundle(self, stream):
        """ISSUE satellite: a shard dying mid-bundle is a typed death."""
        shard = _shard(18)
        shard.ingest(stream.xs[:4], stream.ys[:4], False)  # one committed block
        self._poison(shard.bundle, "gram")
        with pytest.raises(BundlePartialCommitError) as excinfo:
            shard.ingest(stream.xs[4:8], stream.ys[4:8], False)
        assert isinstance(excinfo.value, ShardUnavailableError)
        assert not shard.alive
        assert shard.steps == 4  # only the committed block counts
        assert shard.released() == (None, None)
        assert shard.memory_floats() == 0

    def test_front_counts_only_committed_blocks(self, stream):
        """Through the serving front: torn block refunded, committed mass lost."""
        server = ShardedStream(
            L2Ball(DIM), PARAMS, shards=2, horizon=T, rng=44, iteration_cap=10
        )
        try:
            for s, e in [(0, 4), (4, 8)]:  # one block per shard
                server.observe_batch(stream.xs[s:e], stream.ys[s:e])
            # Tear shard 0's bundle mid-block: gram fails after cross commits.
            self._poison(server._shards[0].bundle, "gram")
            with pytest.raises(ShardUnavailableError):
                server.observe_batch(stream.xs[8:12], stream.ys[8:12])
            assert server.lost_steps == 4  # the committed block only
            assert server.blocks_refunded == 1  # the torn block
            assert server.steps_ingested == 8
            # The survivor keeps serving with partial coverage.
            server.observe_batch(stream.xs[12:16], stream.ys[12:16])
            served = server.flush()
            assert served.covered_steps == server.steps_ingested - server.lost_steps
        finally:
            server.close()

    #: The two ways to tear a tenant shard's block: a later tenant's cross
    #: entry fails after the Gram and earlier crosses committed, or the
    #: second γ group's Gram fails after the first group's committed.
    #: Each case names the bundle position it poisons (Grams first, then
    #: crosses in tenant order).
    TENANT_TEARS = {
        "later-cross": (dict(), 2),
        "second-gram": (dict(decays=(1.0, 0.9), tenant_decays=(1.0, 0.9)), 1),
    }

    @staticmethod
    def _outcomes(stream, s, e):
        return np.column_stack([stream.ys[s:e], -stream.ys[s:e]])

    @pytest.mark.parametrize("tear", sorted(TENANT_TEARS))
    def test_torn_tenant_block_kills_the_shard(self, stream, tear):
        roster, position = self.TENANT_TEARS[tear]
        shard = TenantShard(
            0, DIM, PARAMS,
            tuple(np.random.default_rng(0).spawn(2)),
            np.random.default_rng(1),
            ("a", "b"),
            shard_horizon=T,
            **roster,
        )
        shard.ingest(stream.xs[:4], self._outcomes(stream, 0, 4), False)
        self._poison(shard.bundle, shard.bundle.names[position])
        with pytest.raises(BundlePartialCommitError) as excinfo:
            shard.ingest(stream.xs[4:8], self._outcomes(stream, 4, 8), False)
        assert isinstance(excinfo.value, ShardUnavailableError)
        assert not shard.alive
        assert shard.steps == 4  # only the committed block counts
        assert shard.memory_floats() == 0

    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize("tear", sorted(TENANT_TEARS))
    def test_front_refunds_a_torn_tenant_block(self, stream, tear, fast):
        roster, position = self.TENANT_TEARS[tear]
        server = MultiTenantStream(
            L2Ball(DIM), PARAMS, ("a", "b"), shards=2, horizon=T,
            ingest="fast" if fast else "exact", transport="thread",
            rng=45, iteration_cap=10, **roster,
        )
        try:
            for s, e in [(0, 4), (4, 8)]:  # one block per shard
                server.observe_batch(stream.xs[s:e], self._outcomes(stream, s, e))
            bundle = server._shards[0].bundle
            self._poison(bundle, bundle.names[position])
            with pytest.raises(BundlePartialCommitError):
                server.observe_batch(stream.xs[8:12], self._outcomes(stream, 8, 12))
            assert not server._shards[0].alive
            assert server.lost_steps == 4  # the committed block only
            assert server.blocks_refunded == 1  # the torn block
            assert server.steps_ingested == 8
            server.observe_batch(stream.xs[12:16], self._outcomes(stream, 12, 16))
            served = server.flush()
            assert set(served) == {"a", "b"}
            for estimate in served.values():
                assert (
                    estimate.covered_steps
                    == server.steps_ingested - server.lost_steps
                )
        finally:
            server.close()

    def test_remote_proxy_dies_with_its_torn_bundle(self, stream, monkeypatch):
        """Over tcp the bundle tears worker-side; the proxy dies with it,
        so the loss is booked and later blocks route to the survivor."""
        server = MultiTenantStream(
            L2Ball(DIM), PARAMS, ("a", "b"), shards=2, horizon=T,
            decays=(1.0, 0.9), tenant_decays=(1.0, 0.9), transport="tcp",
            rng=46, iteration_cap=10,
        )
        try:
            for s, e in [(0, 4), (4, 8)]:
                server.observe_batch(stream.xs[s:e], self._outcomes(stream, s, e))

            def poisoned(mechanism, values):
                raise RuntimeError("poisoned mechanism")

            # The self-hosted listener serves its shards on threads of this
            # process, so the patch reaches shard 0's second Gram group.
            with monkeypatch.context() as patch:
                patch.setattr(DecayedTreeMechanism, "advance_batch", poisoned)
                with pytest.raises(BundlePartialCommitError):
                    server.observe_batch(
                        stream.xs[8:12], self._outcomes(stream, 8, 12)
                    )
            assert not server._shards[0].alive
            assert server.lost_steps == 4
            assert server.blocks_refunded == 1
            server.observe_batch(stream.xs[12:16], self._outcomes(stream, 12, 16))
            for estimate in server.flush().values():
                assert (
                    estimate.covered_steps
                    == server.steps_ingested - server.lost_steps
                )
        finally:
            server.close()
