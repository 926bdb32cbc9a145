"""Shard worker backends: thin moment-bundle declarations.

Every shard class here owns a :class:`~repro.streaming.moments.MomentBundle`
— an ordered set of named release mechanisms over its routed sub-stream —
and differs only in *which* statistics it declares and how raw covariate
blocks are transformed into the rows the statistics are built from:

* :class:`MomentShard` — the default two-entry (cross, gram) bundle in
  the raw space (Algorithm 2's backend);
* :class:`ProjectedMomentShard` / :class:`SketchShard` — the same bundle
  over Step-4 rescaled ``Φx̃`` rows (Algorithm 3 / the sketch-noise
  variant);
* :class:`IVMomentShard` — the three-entry (zz, zx, zy) bundle of private
  two-stage least squares over stacked ``[z | x]`` rows;
* :class:`TenantShard` — the PRIMO backend: one shared Gram entry per
  γ group, then one cross entry per active tenant (added and removed at
  runtime through :meth:`~repro.streaming.moments.MomentBundle.add` /
  :meth:`~repro.streaming.moments.MomentBundle.remove`).

The default bundle is built with the same factory arguments, rng children,
and float expressions as the historical inline (cross, gram) pair, so the
bundle refactor is bit-identical under one seed on every transport.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..._validation import check_int, check_release_knobs
from ...core.incremental_regression import MOMENT_SENSITIVITY
from ...exceptions import (
    BundlePartialCommitError,
    PrivacyBudgetError,
    ValidationError,
)
from ...privacy.parameters import PrivacyParams, bundle_budgets, tenant_budgets
from ...sketching.gaussian import step4_rescale_block
from ..moments import (
    MomentBundle,
    MomentStatistic,
    cross_statistic,
    gram_statistic,
    iv_statistics,
)
from .validation import _check_decay_group, _check_tenant_roster

__all__ = [
    "IVMomentShard",
    "MomentShard",
    "ProjectedMomentShard",
    "SketchShard",
    "TenantShard",
]


class MomentShard:
    """One shard worker: an independent moment bundle over a sub-stream.

    Declares the default two-entry bundle — a cross-moment mechanism
    (element shape ``(moment_dim,)``) and a second-moment mechanism
    (``(moment_dim, moment_dim)``), each at half the shard's budget —
    exactly the split Algorithms 2 and 3 apply to their two trees.

    This is the *pluggable shard backend* of the serving front: the
    moment-ingestion contract lives here once —

    * ``ingest`` maps the routed covariate block through :meth:`_transform`
      into the ``(k, moment_dim)`` rows the moment streams are built from,
      then advances the bundle (``advance_batch`` exact tier, or one BLAS
      block total per statistic + ``advance_sum`` fast tier);
    * subclasses choose the space and the statistics.  The base class is
      Algorithm 2's backend (``moment_dim = d``, identity transform);
      :class:`ProjectedMomentShard` is Algorithm 3's (``moment_dim = m``,
      Step-4 rescaled ``Φx̃`` rows through a *shared* ``Φ``);
      :class:`IVMomentShard` swaps in the three-entry IV bundle.

    Sensitivity is Δ₂ = 2 in every case (the unit domain for raw moments;
    the Step-4 rescaling for projected ones), so the budget split, the
    noise calibration, and the merge rule are backend-agnostic.
    """

    #: Class-level backend tag (subclasses override).
    backend = "moment"

    #: Release-mechanism family the moment streams are built with.
    #: ``None`` defers to the ``mechanism`` ctor knob; subclasses may pin
    #: a family (the sketch backend pins ``"sketch"``) while the
    #: user-facing ``mechanism`` knob and the wire spec keep their value.
    release_family: str | None = None

    def __init__(
        self,
        index: int,
        dim: int,
        budget: PrivacyParams,
        cross_rng: np.random.Generator = None,
        gram_rng: np.random.Generator = None,
        mechanism: str = "tree",
        shard_horizon: int | None = None,
        moment_dim: int | None = None,
        decay: float | None = None,
        window: int | float | None = None,
        rngs=None,
    ) -> None:
        self.index = index
        self.dim = dim
        self.moment_dim = dim if moment_dim is None else moment_dim
        self.budget = budget
        self.mechanism = mechanism
        self.shard_horizon = shard_horizon
        self.decay, self.window = check_release_knobs(decay, window)
        self.steps = 0
        self.alive = True
        #: Set once the front has credited this worker's ingested mass to
        #: its ``lost_steps`` ledger (see ShardedStream._note_shard_death).
        self.lost_accounted = False
        if rngs is None:
            rngs = (cross_rng, gram_rng)
        self._build_bundle(tuple(rngs))

    def _statistics(self):
        """The bundle this backend declares (subclass hook), in order."""
        m = self.moment_dim
        return (cross_statistic(m), gram_statistic(m))

    def _build_bundle(self, rngs) -> None:
        """One factory call per declared statistic, through the bundle.

        ``mechanism``/``decay``/``window`` select among Tree, Hybrid,
        DecayedTree, SlidingWindow and SketchNoise implementations of the
        ReleaseMechanism protocol; the default two-entry bundle at equal
        budget weights is bit-identical to the historical inline
        (cross, gram) construction (same ctor arguments, same rngs, and
        ``bundle_budgets`` reproduces ``budget.halve()`` bit-exactly).
        """
        statistics = self._statistics()
        budgets = bundle_budgets(
            self.budget, tuple(stat.budget_weight for stat in statistics)
        )
        family = self.release_family or self.mechanism
        self.bundle = MomentBundle(
            statistics,
            budgets,
            rngs,
            mechanism=family,
            horizon=self.shard_horizon,
            decay=self.decay,
            window=self.window,
            l2_sensitivity=MOMENT_SENSITIVITY,
        )

    @property
    def cross(self):
        """The cross-moment mechanism (``None`` once killed; diagnostics)."""
        return self.bundle.get("cross")

    @property
    def gram(self):
        """The second-moment mechanism (``None`` once killed; diagnostics)."""
        return self.bundle.get("gram")

    def _transform(self, xs: np.ndarray) -> np.ndarray:
        """Rows the moment streams are built from (identity for Alg. 2)."""
        return xs

    def ingest(self, xs: np.ndarray, ys: np.ndarray, fast: bool) -> None:
        """Feed a routed block to the moment bundle (see :meth:`_commit`)."""
        self._commit(self._transform(xs), ys, fast)

    def _commit(self, rows: np.ndarray, ys, fast: bool) -> None:
        """Advance the bundle by one block: the fault path of every backend.

        Every bundle input is materialized *before* any mechanism
        advances: with the block pre-validated (finite, unit-normalized)
        and the mechanisms in step-lockstep, every failure the library can
        raise (validation, capacity) then happens before anything mutates
        — the no-consumption guarantee ``_process_block``'s capacity
        refund relies on.  If a later bundle entry nevertheless fails
        after an earlier one committed, the bundle is torn: this shard
        marks itself dead and the
        :class:`~repro.exceptions.BundlePartialCommitError` (a
        ``ShardUnavailableError``) folds it into the partial-coverage
        fault path, with only the fully committed blocks counted into
        ``steps`` (and hence ``lost_steps``).
        """
        try:
            self.bundle.ingest(rows, ys, fast)
        except BundlePartialCommitError:
            self.alive = False
            raise
        self.steps += rows.shape[0]

    def released(self):
        """The bundle's merge handles for :func:`~repro.privacy.tree.merge_released`.

        One handle per declared statistic, in bundle order — ``(cross,
        gram)`` for the default backend.  The transport seam of the merge
        path: in-process shards hand over their **live** mechanisms
        (zero-copy — the merge reads ``current_sum()`` directly), while
        :class:`~repro.streaming.transport.ProcessShardWorker` overrides
        the same method to fetch picklable
        :class:`~repro.privacy.tree.ReleasedMoments` snapshots over its
        pipe.  ``merge_released`` accepts both interchangeably.
        """
        return self.bundle.released()

    def memory_floats(self) -> int:
        """Floats held by this shard's mechanisms (0 once killed).

        ``O(moment_dim² log T)`` per shard — the Algorithm-3 backend's
        whole point: ``m² log T`` instead of ``d² log T``.
        """
        if not self.alive:
            return 0
        return self.bundle.memory_floats()

    def kill(self) -> None:
        """Drop the mechanisms; the shard's ingested mass is lost."""
        self.alive = False
        self.bundle.kill()

    def shutdown(self) -> None:
        """Transport-uniform teardown hook (nothing to release in-process)."""


class ProjectedMomentShard(MomentShard):
    """Algorithm 3's shard backend: projected moments through a shared ``Φ``.

    Workers ingest ``Φx̃·y`` (``(m,)``) and ``(Φx̃)(Φx̃)ᵀ`` (``(m, m)``)
    where ``x̃`` is the Step-4 rescaled covariate — computed through the
    *same* :func:`~repro.sketching.gaussian.step4_rescale_block` helper
    ``PrivIncReg2.observe_batch`` uses, against a single projection drawn
    once by the serving front and shared by every shard (and by the
    solver, whose ``refresh_from_released`` then receives merged moments
    living in the one projected space).  Because the rescaling pins the
    projected sensitivity at Δ₂ = 2 for *any* fixed ``Φ``, the per-shard
    noise calibration and the noise-preserving merge rule carry over from
    the Algorithm-2 backend verbatim.

    The projection is shared state but strictly read-only after
    construction, so thread-parallel group ingestion across shards needs
    no synchronization around it.
    """

    backend = "projected"

    def __init__(
        self,
        index: int,
        dim: int,
        budget: PrivacyParams,
        cross_rng: np.random.Generator,
        gram_rng: np.random.Generator,
        projection,
        mechanism: str = "tree",
        shard_horizon: int | None = None,
        decay: float | None = None,
        window: int | float | None = None,
    ) -> None:
        # The projection must be set before the base constructor builds
        # the bundle (the bundle shapes come from projected_dim).
        self.projection = projection
        super().__init__(
            index=index,
            dim=dim,
            budget=budget,
            cross_rng=cross_rng,
            gram_rng=gram_rng,
            mechanism=mechanism,
            shard_horizon=shard_horizon,
            moment_dim=projection.projected_dim,
            decay=decay,
            window=window,
        )

    def _transform(self, xs: np.ndarray) -> np.ndarray:
        return step4_rescale_block(self.projection, xs)


class SketchShard(ProjectedMomentShard):
    """The sketch-native shard backend: privatize the sketch, not the moments.

    The ingest geometry is :class:`ProjectedMomentShard`'s — Step-4
    rescaled rows through a *shared* projection — but the projection is a
    **sparse-JL** ``Φ`` (:class:`~repro.sketching.sparse_jl.SparseProjection`,
    the paper's footnote 16: ``~1/s`` of the entries non-zero, so the
    per-block pass costs ``O(nnz)`` instead of the dense BLAS product),
    and the noise source is not a tree at all: both moment streams run
    :class:`~repro.privacy.release.SketchNoiseMechanism`, which keeps the
    exact sketched running sums and adds **one Gaussian draw per ingested
    block** at the Step-4-pinned sensitivity (the *Private Sketches for
    Linear Regression* release model).  Because the Step-4 rescale pins
    Δ₂ = 2 for any fixed ``Φ``, the budget split, calibration, and the
    noise-preserving merge rule carry over verbatim; released snapshots
    are ordinary :class:`~repro.privacy.tree.ReleasedMoments`, so the
    merge, solver refresh, read path, and partial-coverage accounting
    upstream never notice the backend.

    The user-facing ``mechanism`` knob stays ``"tree"`` (and rides the
    wire spec unchanged); the sketch family is pinned here via
    :attr:`release_family` so every transport builds the same mechanisms.
    """

    backend = "sketch"

    release_family = "sketch"


class IVMomentShard(MomentShard):
    """The instrumental-variable shard backend: the (zz, zx, zy) bundle.

    Rows are stacked ``[z | x]`` blocks of width ``instruments + dim``
    (the front validates ``‖z‖ ≤ 1, ‖x‖ ≤ 1, |y| ≤ 1`` separately, so
    every statistic's per-element sensitivity stays at the shared
    Δ₂ = 2); the bundle carries the three moment streams two-stage least
    squares consumes — ``ZᵀZ`` (``(p, p)``), ``ZᵀX`` (``(p, d)``) and
    ``Zᵀy`` (``(p,)``) — each behind its own tree at a third of the shard
    budget (:func:`~repro.privacy.parameters.bundle_budgets` at equal
    weights, exact thirds).  The merge rule, fault semantics, and
    transports are untouched: a bundle is a bundle, just three entries
    instead of two.  :class:`~repro.core.priv_inc_iv.PrivIncIV` solves
    against the merged bundle via ``refresh_from_bundle``.
    """

    backend = "iv"

    def __init__(
        self,
        index: int,
        dim: int,
        budget: PrivacyParams,
        rngs,
        instruments: int,
        mechanism: str = "tree",
        shard_horizon: int | None = None,
        decay: float | None = None,
        window: int | float | None = None,
    ) -> None:
        # Needed by _statistics before the base constructor runs.
        self.instruments = check_int("instruments", instruments, minimum=1)
        super().__init__(
            index=index,
            dim=dim,
            budget=budget,
            mechanism=mechanism,
            shard_horizon=shard_horizon,
            decay=decay,
            window=window,
            rngs=tuple(rngs),
        )

    def _statistics(self):
        return iv_statistics(self.instruments, self.dim)


def _tenant_cross_statistic(tenant: str, dim: int, decay: float) -> MomentStatistic:
    """The default cross rules over ``tenant``'s own outcome column."""
    cross = cross_statistic(dim)
    return MomentStatistic(
        f"cross:{tenant}",
        cross.shape,
        lambda rows, columns: cross.values(rows, columns[tenant]),
        lambda rows, columns, weights: cross.total(rows, columns[tenant], weights),
        decay=decay,
    )


class TenantShard(MomentShard):
    """One multi-tenant shard: **shared** Gram entries + per-tenant crosses.

    The PRIMO shard backend (*Private Regression in Multiple Outcomes*):
    when ``k`` outcome streams share one covariate stream, the expensive
    ``(d, d)`` second-moment statistic is identical for every tenant, so
    this shard privatizes it **once** — one Gram mechanism at
    ``(ε/2, δ/2)``, independent of the tenant count — and keeps only a
    cheap ``(d,)`` cross mechanism per tenant, each at a
    ``(ε/(2·cap), δ/(2·cap))`` slot of the other half
    (:func:`~repro.privacy.parameters.tenant_budgets`).  Ingesting
    ``(x, y_1..y_k)`` advances the Gram once and tenant ``j``'s cross with
    ``x·y_j``, so the per-element privacy loss is at most
    ``ε/2 + cap·ε/(2·cap) = ε`` — the same total budget a single-tenant
    shard spends, now serving ``k`` models, in ``O((G·d² + k·d) log T)``
    floats instead of ``k·O(d² log T)``.

    The bundle declares one Gram entry per γ group first (an equal split
    of the gram half: every element enters every group), then one cross
    entry per active tenant, in tenant order, at the tenant's γ.  The
    Grams are never behind any cross in step count, so they guard block
    atomicity, and they share one ``values`` rule, so the exact tier
    materializes one ``(k, d, d)`` outer product per block.
    :meth:`add_tenant` appends a cross entry at the slot budget and
    :meth:`remove_tenant` drops one; a removed tenant's mechanism never
    ingests again, so no element is seen by two occupants of one slot
    and the per-element bound survives any add/remove schedule.

    For a single tenant both budget pieces equal ``budget.halve()``
    bit-exactly and the ingest arithmetic reduces to
    :class:`MomentShard`'s, which is what makes a ``k = 1`` multi-tenant
    stream bit-identical to the plain sharded path (given the same rng
    children — see :class:`~repro.streaming.tenancy.MultiTenantStream`).
    """

    backend = "tenant"

    def __init__(
        self,
        index: int,
        dim: int,
        budget: PrivacyParams,
        tenant_rngs,
        gram_rng: np.random.Generator,
        tenants,
        tenant_capacity: int | None = None,
        mechanism: str = "tree",
        shard_horizon: int | None = None,
        decays: "tuple[float, ...] | None" = None,
        tenant_decays: "tuple[float, ...] | None" = None,
    ) -> None:
        if mechanism != "tree":
            raise ValidationError(
                "TenantShard requires mechanism='tree' (the PRIMO serving "
                "layer assumes a known horizon)"
            )
        names, tenant_decays, self.decays = _check_tenant_roster(
            tenants, tenant_decays, decays
        )
        self.tenant_capacity = check_int(
            "tenant_capacity",
            len(names) if tenant_capacity is None else tenant_capacity,
            minimum=len(names),
        )
        #: Tenant → γ group, in the order released() indexes the crosses.
        self.tenant_decay: dict[str, float] = dict(zip(names, tenant_decays))
        super().__init__(
            index=index,
            dim=dim,
            budget=budget,
            mechanism=mechanism,
            shard_horizon=shard_horizon,
            rngs=(gram_rng, *tenant_rngs),
        )

    def _build_bundle(self, rngs) -> None:
        """The Gram groups, then the tenants' crosses (see the class doc).

        Group 0 consumes the Gram rng itself — the exact generator the
        single-group shard uses — and later groups its spawned siblings
        (spawning never advances the bit stream).
        """
        gram_budget, slot_budgets = tenant_budgets(self.budget, self.tenant_capacity)
        #: Every slot carries the same budget; kept for later adds.
        self._slot_budget = slot_budgets[0]
        gram = gram_statistic(self.dim)
        groups = len(self.decays)
        statistics = [replace(gram, name=f"gram:{g!r}", decay=g) for g in self.decays]
        statistics += [
            _tenant_cross_statistic(name, self.dim, g)
            for name, g in self.tenant_decay.items()
        ]
        gram_rng = rngs[0]
        self.bundle = MomentBundle(
            statistics,
            gram_budget.split(groups) + (self._slot_budget,) * len(self.tenant_decay),
            (gram_rng, *gram_rng.spawn(groups - 1), *rngs[1:]),
            horizon=self.shard_horizon,
        )

    @property
    def cross(self):
        """Tenant → cross mechanism in tenant order (``None`` once killed)."""
        if not self.alive:
            return None
        return dict(zip(self.tenant_decay, self.released()[0]))

    @property
    def gram(self):
        """The primary (group-0) shared Gram mechanism, or ``None`` if killed.

        Kept for diagnostics and the single-group conformance suites;
        merges index :meth:`released`'s per-group tuple instead.
        """
        return self.bundle.get(self.bundle.names[0])

    def tenants(self) -> tuple[str, ...]:
        """Active tenant names, in the order merges index them."""
        return tuple(self.tenant_decay)

    def add_tenant(
        self,
        name: str,
        rng: np.random.Generator,
        decay: float | None = None,
    ) -> None:
        """Occupy a free capacity slot with a fresh cross entry for ``name``.

        ``decay`` assigns the tenant to one of the shard's declared γ
        groups (default: the primary group); its cross entry uses the
        same weighting, so the tenant's merged moments stay consistent.
        """
        name = str(name)
        if len(self.tenant_decay) >= self.tenant_capacity:
            raise PrivacyBudgetError(
                f"all {self.tenant_capacity} tenant slots are occupied; "
                f"remove a tenant before adding {name!r} (the slot budgets "
                f"are what keep the per-element loss within the total)"
            )
        g = _check_decay_group(decay, self.decays)
        self.bundle.add(
            _tenant_cross_statistic(name, self.dim, g), self._slot_budget, rng
        )
        self.tenant_decay[name] = g

    def remove_tenant(self, name: str) -> None:
        """Retire ``name``'s cross entry, freeing its capacity slot."""
        name = str(name)
        if name not in self.tenant_decay:
            raise ValidationError(f"unknown tenant {name!r}")
        self.bundle.remove(f"cross:{name}")
        del self.tenant_decay[name]

    def ingest(self, xs: np.ndarray, ys: np.ndarray, fast: bool) -> None:
        """Feed a routed block: each Gram group once, each tenant's cross once.

        ``ys`` is the ``(n, k)`` outcome matrix, one column per active
        tenant in :meth:`tenants` order.  Per mechanism the arithmetic is
        exactly :class:`MomentShard.ingest`'s, so a single tenant's
        mechanisms stay bit-identical to a single-tenant shard's.
        """
        Y = np.asarray(ys, dtype=float)
        if Y.ndim == 1:
            Y = Y[:, None]
        if Y.shape != (xs.shape[0], len(self.tenant_decay)):
            raise ValidationError(
                f"outcome block must have shape ({xs.shape[0]}, "
                f"{len(self.tenant_decay)}) — one column per active tenant — "
                f"got {Y.shape}"
            )
        self._commit(xs, dict(zip(self.tenant_decay, Y.T)), fast)

    def released(self):
        """The (per-tenant cross tuple, per-group gram tuple) merge handles.

        Same seam as :meth:`MomentShard.released`, with both slots widened
        to tuples — one cross handle per active tenant in :meth:`tenants`
        order, one Gram handle per declared γ group in ``decays`` order.
        The remote transports snapshot each element as a
        :class:`~repro.privacy.tree.ReleasedMoments`, so the wire format
        is unchanged: the same snapshots, just ``k`` (and ``G``) of them.
        """
        handles = self.bundle.released()
        groups = len(self.decays)
        return handles[groups:], handles[:groups]
