"""Multi-tenant (PRIMO) serving: one covariate stream, ``k`` outcome models.

The PRIMO observation (*Private Regression in Multiple Outcomes*): when
``k`` regression problems share one covariate stream — the same ``x_t``
scored against ``k`` different outcome signals ``y_t^{(1)}..y_t^{(k)}`` —
the expensive part of the released statistic, the ``(d, d)`` second-moment
(Gram) matrix, is *identical* for every problem.  Running ``k`` independent
:class:`~repro.streaming.serving.ShardedStream` fronts privatizes it ``k``
times: ``k·(d² + d)`` tree floats, ``k`` Gram noise draws per step, and a
``k``-way budget split that inflates every tenant's noise variance by
``k²``.  :class:`MultiTenantStream` privatizes it **once**:

* each shard is a :class:`~repro.streaming.serving.TenantShard` — one
  shared Gram tree at ``(ε/2, δ/2)`` (independent of ``k``) plus one cheap
  ``(d,)`` cross tree per tenant at an equal slot of the other half
  (:func:`~repro.privacy.parameters.tenant_budgets`), declared as one
  :class:`~repro.streaming.moments.MomentBundle`: the Gram entries (one
  per γ group) first, then the crosses in tenant order — so a torn
  tenant block is a typed shard death under the per-bundle fault rule;
* :meth:`MultiTenantStream.observe_batch` routes each
  ``(x, y^{(1)}..y^{(k)})`` block through the shared Gram exactly once and
  fans the outcomes out to the per-tenant cross trees;
* every tenant keeps its own solver and its own
  :class:`~repro.streaming.readers.EstimateHub`, so the whole read-side
  surface — ``reader()`` / ``subscribe()`` / ``wait_for_version()`` —
  works unchanged *per tenant* (:meth:`MultiTenantStream.tenant`);
* merges reuse :func:`~repro.privacy.tree.merge_released` and
  :class:`~repro.privacy.tree.ReleasedMoments` unchanged — the process
  transport ships a tenant shard's releases as the same snapshots the
  single-tenant path ships, just ``k`` of them per shard.

The front *is* a :class:`~repro.streaming.serving.ShardedStream`: routing,
the horizon reservation and block refunds, fault accounting, kill and
restart, and close are the single-tenant front's own code.  Only the
shards it boots, the ledger it opens, and the refresh fan-out differ.

Privacy is per-element composition over the *slot capacity*: one element
is ingested by the Gram tree once (``ε/2``) and by at most ``capacity``
concurrently active cross trees (``capacity · ε/(2·capacity)``), so its
loss is at most ``ε`` under any :meth:`~MultiTenantStream.add_tenant` /
:meth:`~MultiTenantStream.remove_tenant` schedule — a removed tenant's
tree never ingests again, so a reused slot never sees one element twice.
The ledger mirrors this: adds charge a slot, removes refund it
(:meth:`~repro.privacy.accountant.PrivacyAccountant.refund`).

For ``k = 1`` (and the default ``tenant_capacity=1``) both budget pieces
equal ``params.halve()`` bit-exactly, the shard rng children and solver
spawn order match :class:`~repro.streaming.serving.ShardedStream`'s, and
the ingest arithmetic reduces to the single-tenant shard's — so a
one-tenant front is **bit-identical** to the plain sharded path on the
thread, process and tcp transports (``tests/test_tenancy.py``,
``tests/test_sharded_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from .._validation import (
    check_int,
    check_unit_xy_domain,
    check_vector,
    check_xy_block,
)
from ..core.incremental_regression import PrivIncReg1
from ..exceptions import (
    PrivacyBudgetError,
    ServingError,
    ShardUnavailableError,
    ValidationError,
)
from ..geometry.base import ConvexSet
from ..privacy.parameters import PrivacyParams, tenant_budgets
from ..privacy.tree import MergedRelease, merge_released
from .readers import EstimateHub, EstimateReads
from .serving import ServedEstimate, ShardedStream
from .serving.validation import _check_decay_group, _check_tenant_roster
from .transport import ShardSpec

__all__ = ["MultiTenantStream", "TenantView"]

#: Ledger label of the shared Gram trees (parallel composition: one charge).
_GRAM_LABEL = "tenants:gram-moments(parallel)"


def _cross_label(name: str) -> str:
    """Ledger label of one tenant's cross-tree slot (charged and refunded)."""
    return f"tenant:{name}:cross-moments"


def _merge_slot(handles, side: int, slot: int) -> MergedRelease:
    """Merge entry ``slot`` of every shard's ``released()[side]`` tuple
    (side 0: per-tenant crosses, 1: per-group Grams; dead shards: missing)."""
    return merge_released(
        [h[side][slot] if h[side] is not None else None for h in handles],
        strict=False,
    )


class TenantView(EstimateReads):
    """One tenant's read surface over a :class:`MultiTenantStream`.

    A thin, cheap facade bound to the tenant's own
    :class:`~repro.streaming.readers.EstimateHub`, exposing exactly the
    read API a single-tenant :class:`~repro.streaming.serving.ShardedStream`
    exposes — lock-free cached reads, per-reader handles, pub-sub, version
    waits — so per-tenant consumers never see the multi-tenancy.  Obtained
    from :meth:`MultiTenantStream.tenant`; stays readable (cache and
    stats) after the tenant is removed, though no further publish can
    arrive.
    """

    def __init__(self, name: str, hub: EstimateHub) -> None:
        self.name = name
        self._hub = hub
        self.cache = hub.cache

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TenantView(name={self.name!r}, version={self.cache.version})"


class MultiTenantStream(ShardedStream):
    """The PRIMO serving front: ``k`` tenant models over one shared stream.

    Routes each incoming ``(x, y^{(1)}..y^{(k)})`` block round-robin to
    one of ``K`` :class:`~repro.streaming.serving.TenantShard` workers;
    the shard advances its **shared** Gram tree once and each active
    tenant's cross tree with that tenant's outcome column.  At refresh
    points the Gram releases are merged once and every tenant sharing
    that Gram is solved in one stacked PGD, so ingest and merge cost
    grow like ``d² + k·d`` instead of the ``k·d²`` that ``k``
    independent :class:`~repro.streaming.serving.ShardedStream` fronts pay
    (``benchmarks/bench_primo_serving.py`` measures the gap).

    A :class:`~repro.streaming.serving.ShardedStream` subclass: the
    routing, refunds (``blocks_routed`` / ``blocks_refunded``), fault
    accounting (``lost_steps``), :meth:`kill_shard` /
    :meth:`restart_shard` (a restarted shard carries every active
    tenant), :meth:`observe_group`, diagnostics and close are inherited.
    The single-estimate reads (``current_estimate``, ``reader``, …) are
    per tenant here and raise :class:`~repro.exceptions.ServingError` on
    the front; use :meth:`tenant`.

    Synchronous by design: multi-tenant ingestion is the batch-heavy
    production path, and the async/manual queue modes of the
    single-tenant front add nothing per tenant (reads are already
    decoupled through the per-tenant hubs).

    Parameters
    ----------
    constraint:
        The constraint set ``C`` shared by every tenant's solver; fixes
        the dimension.
    params:
        The stream's total ``(ε, δ)`` budget — what one element's
        participation costs *in total*, across the shared Gram and every
        tenant slot (see :func:`~repro.privacy.parameters.tenant_budgets`).
    tenants:
        Initial tenants: an ``int k`` (named ``tenant-0..tenant-{k-1}``)
        or a sequence of unique non-empty names.
    shards:
        Number of shard workers ``K`` (disjoint routing, parallel
        composition — every shard runs at the full budget, exactly as
        the single-tenant front's default).
    horizon:
        Logical stream length ``T``; required (tenant shards are tree
        shards — the PRIMO layer assumes a known horizon).
    tenant_capacity:
        Concurrent-tenant slot count the budget is split across; defaults
        to the initial tenant count.  Fixed for the stream's lifetime —
        it is a privacy parameter (each element may meet up to this many
        cross trees), not a sizing hint.  Leave headroom only if tenants
        will be added at runtime; a larger capacity means a smaller
        per-tenant slot budget.
    decays:
        Declared γ groups for the shared Gram stream, default ``(1.0,)``
        (the plain group only).  Every element enters every group's Gram
        mechanism, so the gram half of the budget is split evenly across
        the groups (sequential composition) — declare only the γ values
        actually served.  Fixed for the stream's lifetime, like
        ``tenant_capacity``.
    tenant_decays:
        Per-tenant γ assignment for the *initial* tenants, aligned with
        ``tenants``; each entry must be a declared group.  ``None``
        assigns every tenant to ``decays[0]``.  A tenant's cross trees
        use its γ too, so its merged moments are consistently weighted;
        later :meth:`add_tenant` calls pick a group via their ``decay``
        argument.
    refresh_every:
        Merge + solve whenever the processed count crosses a multiple of
        this (and at the horizon); ``None`` refreshes every block.
    ingest:
        ``"exact"`` (bit-identical tier) or ``"fast"`` (distributional
        BLAS tier) — the same two tiers as the single-tenant front.
    transport:
        ``"thread"`` (in-process shards), ``"process"`` (one
        interpreter per shard behind a pipe), or ``"tcp"`` (shards
        served by :class:`~repro.streaming.netserve.ShardHostListener`
        hosts, reachable cross-host).  Remote transports ship releases
        back as :class:`~repro.privacy.tree.ReleasedMoments` snapshots,
        ``k`` per shard; all transports build the same mechanisms from
        the same rng children.
    request_timeout:
        Deadline in seconds on every shard RPC (remote transports only;
        same stuck-worker → :class:`~repro.exceptions.ShardTimeoutError`
        → partial-coverage semantics as
        :class:`~repro.streaming.serving.ShardedStream`).
    addresses:
        Shard host listener addresses (``transport="tcp"`` only); shard
        ``i`` connects to ``addresses[i % len(addresses)]``.  ``None``
        boots a private loopback listener owned by this stream.
    shard_horizon:
        Tree capacity per shard; defaults to ``horizon`` so any routing
        imbalance fits.
    beta, fidelity, iteration_cap:
        Forwarded to every tenant's default
        :class:`~repro.core.incremental_regression.PrivIncReg1` solver.
    rng:
        Seed or Generator.  Shard ``i``'s tenant trees use child ``2i``
        of ``rng.spawn(2K)`` (tenant 0) plus its spawned siblings
        (tenants 1..k-1), and its Gram tree uses child ``2i+1``; each
        tenant's solver then spawns one child in tenant order.  For
        ``k = 1`` this is exactly the single-tenant front's consumption,
        which is what makes the one-tenant stream bit-identical to
        :class:`~repro.streaming.serving.ShardedStream`.
    """

    def __init__(
        self,
        constraint: ConvexSet,
        params: PrivacyParams,
        tenants,
        shards: int = 2,
        *,
        horizon: int | None = None,
        tenant_capacity: int | None = None,
        decays: "tuple[float, ...] | None" = None,
        tenant_decays=None,
        refresh_every: int | None = None,
        ingest: str = "exact",
        transport: str = "thread",
        request_timeout: float | None = None,
        addresses=None,
        shard_horizon: int | None = None,
        beta: float = 0.05,
        fidelity: str = "fast",
        iteration_cap: int = 400,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if horizon is None:
            raise ValidationError(
                "MultiTenantStream needs a horizon (tenant shards are tree "
                "shards; there is no horizon-free PRIMO serving path)"
            )
        if isinstance(tenants, (int, np.integer)) and not isinstance(tenants, bool):
            count = check_int("tenants", tenants, minimum=1)
            tenants = tuple(f"tenant-{i}" for i in range(count))
        names, tenant_decays, self.decays = _check_tenant_roster(
            tenants, tenant_decays, decays
        )
        self.tenant_capacity = check_int(
            "tenant_capacity",
            len(names) if tenant_capacity is None else tenant_capacity,
            minimum=len(names),
        )
        #: Active tenant → γ group, in slot order: the order every shard's
        #: released() cross tuple is indexed by.  Refreshes solve each
        #: tenant against its group's Gram; shard boots read it.
        self._tenant_decays: dict[str, float] = dict(zip(names, tenant_decays))
        super().__init__(
            constraint,
            params,
            shards,
            horizon=horizon,
            refresh_every=refresh_every,
            ingest=ingest,
            transport=transport,
            request_timeout=request_timeout,
            addresses=addresses,
            shard_horizon=shard_horizon,
            beta=beta,
            fidelity=fidelity,
            iteration_cap=iteration_cap,
            rng=rng,
        )

    # ------------------------------------------------------------------
    # ShardedStream hooks
    # ------------------------------------------------------------------

    def _shard_spec(self, index: int, budget: PrivacyParams, rngs) -> ShardSpec:
        """A tenant shard carrying every active tenant (boot and restart).

        ``rngs`` is the shard's two-child slice of the front's spawn:
        tenant 0 consumes child ``2i`` itself — the exact child the
        single-tenant front hands its cross tree — and tenants 1..k-1
        consume its spawned siblings (spawning advances the child's spawn
        counter, never its bit stream, so tenant 0 stays bit-identical at
        any k); the Gram consumes child ``2i+1``.  The spec carries them
        Gram first, then the tenants in order.
        """
        base, gram_rng = rngs
        names = tuple(self._tenant_decays)
        tenant_rngs = (base, *base.spawn(len(names) - 1)) if names else ()
        return ShardSpec(
            index=index,
            dim=self.dim,
            budget=budget,
            shard_horizon=self.shard_horizon,
            backend="tenant",
            tenants=names,
            rngs=(gram_rng, *tenant_rngs),
            tenant_capacity=self.tenant_capacity,
            decays=self.decays,
            tenant_decays=tuple(self._tenant_decays.values()),
        )

    def _charge_ledger(self) -> None:
        """The shared Gram is one parallel-composition charge; each active
        tenant holds one refundable slot charge.  Fully occupied, the
        ledger sums back to ``params``."""
        gram_budget, slot_budgets = tenant_budgets(self.params, self.tenant_capacity)
        #: Every slot (initial or added later) runs at the same budget.
        self._slot_budget = slot_budgets[0]
        self.accountant.charge(_GRAM_LABEL, gram_budget)
        for name in self._tenant_decays:
            self.accountant.charge(_cross_label(name), self._slot_budget)

    def _open_estimates(self, solver, beta, fidelity, iteration_cap) -> None:
        """Per-tenant solve + publish state, in tenant (slot) order."""
        self._solver_knobs = dict(
            beta=beta, fidelity=fidelity, iteration_cap=iteration_cap
        )
        self._solvers: dict[str, PrivIncReg1] = {}
        self._views: dict[str, TenantView] = {}
        for name in self._tenant_decays:
            self._attach_tenant_state(name)

    def _attach_tenant_state(self, name: str) -> None:
        """Create one tenant's solver + hub + view and publish version 0."""
        solver = PrivIncReg1(
            horizon=self.horizon,
            constraint=self.constraint,
            params=self.params,
            rng=self._rng.spawn(1)[0],
            **self._solver_knobs,
        )
        hub = EstimateHub()
        hub.publish(
            solver.current_estimate(),
            solver.estimate_version,
            timestep=0,
            covered_steps=0,
        )
        self._solvers[name] = solver
        self._views[name] = TenantView(name, hub)

    def _close_reads(self) -> None:
        for view in self._views.values():
            view._hub.close()

    @property
    def _hub(self):
        # The single-estimate reads inherited from EstimateReads go through
        # `_hub` and `cache`; on this front there is one estimate per tenant.
        raise ServingError(
            "MultiTenantStream serves one estimate per tenant; read it "
            "through tenant(name)"
        )

    cache = _hub

    def _latest(self) -> dict[str, np.ndarray]:
        return self.estimates()

    # ------------------------------------------------------------------
    # Tenant lifecycle
    # ------------------------------------------------------------------

    def tenants(self) -> tuple[str, ...]:
        """Active tenant names, in slot (merge) order."""
        return tuple(self._views)

    def tenant(self, name: str) -> TenantView:
        """The read surface for one tenant (raises on unknown names)."""
        try:
            return self._views[str(name)]
        except KeyError:
            raise ValidationError(f"unknown tenant {name!r}") from None

    def add_tenant(self, name: str, decay: float | None = None) -> TenantView:
        """Attach a new tenant to a free capacity slot, mid-stream.

        The new tenant's cross trees start empty: its estimates cover
        only elements observed after the add (the merge rescales the
        shared Gram to the tenant's own coverage).  ``decay`` assigns the
        tenant to one of the stream's declared γ groups (default: the
        primary group); groups are fixed at construction.  Charges the
        tenant's slot on the ledger; raises
        :class:`~repro.exceptions.PrivacyBudgetError` when every slot is
        occupied — capacity is a privacy bound, not a sizing hint.  Dead
        shards are skipped; :meth:`restart_shard` boots them with the
        tenant included.
        """
        name = str(name)
        if not name:
            raise ValidationError("tenant names must be non-empty")
        g = _check_decay_group(decay, self.decays)
        with self._lock:
            self._raise_if_unusable()
            if name in self._views:
                raise ValidationError(f"tenant {name!r} already exists")
            if len(self._views) >= self.tenant_capacity:
                raise PrivacyBudgetError(
                    f"all {self.tenant_capacity} tenant slots are occupied; "
                    f"remove a tenant before adding {name!r}"
                )
            self.accountant.charge(_cross_label(name), self._slot_budget)
            # One fresh child per shard slot, spawned regardless of
            # liveness so the rng consumption (and with it every later
            # tenant's noise) never depends on failure history.
            shard_rngs = self._rng.spawn(self.shards_count)
            for shard, shard_rng in zip(self._shards, shard_rngs):
                if not shard.alive:
                    continue
                try:
                    shard.add_tenant(name, shard_rng, decay=g)
                except ShardUnavailableError:
                    self._note_shard_death(shard)
            self._tenant_decays[name] = g
            self._attach_tenant_state(name)
            return self._views[name]

    def remove_tenant(self, name: str) -> None:
        """Retire a tenant: drop its trees, refund its slot on the ledger.

        The refund is sound because the removed tenant's trees never
        ingest again — the ledger tracks the worst-case per-element loss
        of the stream *going forward* (see
        :meth:`~repro.privacy.accountant.PrivacyAccountant.refund`).  The
        tenant's :class:`TenantView` stays readable (cached estimates and
        stats survive) but receives no further publishes; parked
        ``wait_for_version`` callers are released with a
        :class:`~repro.exceptions.ServingError`.
        """
        name = str(name)
        with self._lock:
            self._raise_if_unusable()
            self.tenant(name)  # raises on unknown names
            self.accountant.refund(_cross_label(name))
            for shard in self._shards:
                if not shard.alive:
                    continue
                try:
                    shard.remove_tenant(name)
                except ShardUnavailableError:
                    self._note_shard_death(shard)
            self._solvers.pop(name)
            self._views.pop(name)._hub.close()
            self._tenant_decays.pop(name)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def _validate_block(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate an ``(n, d)`` covariate block and its ``(n, k)`` outcomes.

        One column per active tenant, in :meth:`tenants` order (a 1-D
        ``ys`` is accepted when there is exactly one tenant).  Call under
        the lock: the tenant count must not change before the block is
        routed.
        """
        k = len(self._views)
        if k == 0:
            raise ServingError("no active tenants; add_tenant() before observing")
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2:
            raise ValidationError(
                f"X must be a 2-D (n, d) block, got shape {xs.shape}"
            )
        Y = np.asarray(ys, dtype=float)
        if Y.ndim == 1 and k == 1:
            Y = Y[:, None]
        if Y.shape != (xs.shape[0], k):
            raise ValidationError(
                f"ys must be an ({xs.shape[0]}, {k}) outcome block — one "
                f"column per active tenant — got shape {np.shape(ys)}"
            )
        xs, _ = check_xy_block(xs, Y[:, 0], dim=self.dim)
        if not np.all(np.isfinite(Y)):
            raise ValidationError("batch must contain only finite entries")
        # One domain sweep covers all k columns: ‖x‖ ≤ 1 once, |y| ≤ 1
        # over the flattened outcome block.
        check_unit_xy_domain("MultiTenantStream", xs, Y.ravel())
        return xs, Y

    def observe(self, x: np.ndarray, ys) -> dict[str, np.ndarray]:
        """Ingest one point with one outcome per tenant (a block of one).

        ``ys`` is a length-``k`` sequence in :meth:`tenants` order (a
        bare scalar is accepted when there is exactly one tenant).
        Returns the cached per-tenant estimates.
        """
        x = check_vector("x", x, dim=self.dim)
        if np.isscalar(ys) or getattr(ys, "ndim", None) == 0:
            ys = [float(ys)]
        row = check_vector("ys", ys, dim=len(self._views))
        return self.observe_batch(x[None, :], row[None, :])

    def observe_batch(self, xs: np.ndarray, ys: np.ndarray) -> dict[str, np.ndarray]:
        """Ingest a block: ``(n, d)`` covariates, ``(n, k)`` outcomes.

        The block is validated and reserved against the horizon
        atomically, routed whole to one shard — which advances the shared
        Gram tree once and every tenant's cross tree — then any due
        refresh solves all tenants off the same merged Gram.  Returns the
        cached per-tenant estimates.
        """
        self._raise_if_unusable()
        with self._lock:
            xs, Y = self._validate_block(xs, ys)
            self._reserve(len(Y), "block")
            self._process_block(xs, Y)
        return self.estimates()

    # ------------------------------------------------------------------
    # Merge + solve
    # ------------------------------------------------------------------

    def _refresh(self) -> None:
        """Merge the shared Gram once, solve every tenant against it.

        The PRIMO merge economy: one ``(d, d)`` Gram merge per declared γ
        group serves every tenant in that group; each tenant only merges
        its own ``(d,)`` crosses.  A tenant added mid-stream has cross
        coverage behind the Gram's; its solve rescales the merged Gram to
        the tenant's own covered mass (the unbiased second-moment
        estimate over its window).  Tenants with zero coverage keep their
        previous estimate.

        Tenants that share a γ group and a coverage (weight and steps)
        see the same rescaled Gram and the same solve size, so each such
        group is solved in one stacked PGD
        (:meth:`~repro.core.incremental_regression.PrivIncReg1.refresh_group_from_released`),
        bit-identical to solving its tenants one by one.  Publishes stay
        per tenant, in slot order within each group.
        """
        handles = [self._released_handles(shard) for shard in self._shards]
        grams = {
            g: _merge_slot(handles, 1, gi) for gi, g in enumerate(self.decays)
        }
        groups: dict[tuple, list] = {}
        for j, name in enumerate(self._solvers):
            cross = _merge_slot(handles, 0, j)
            if cross.covered_steps == 0:
                continue
            key = (self._tenant_decays[name], cross.covered_weight, cross.covered_steps)
            groups.setdefault(key, []).append((name, cross.value))
        for (g, weight, covered), members in groups.items():
            gram = grams[g]
            gram_value = gram.value
            # Coverage (and under γ < 1, effective weight) can differ
            # between a mid-stream tenant's crosses and the shared Gram;
            # rescale to the tenants' own weight.  Skipped — not applied
            # with factor 1.0 — whenever the weights agree, which keeps
            # from-the-start tenants (and with them the k = 1 stream)
            # bit-identical to the single-tenant path.
            if weight != gram.covered_weight:
                gram_value = gram_value * (weight / gram.covered_weight)
            t_solve = weight if weight != covered else covered
            names, crosses = zip(*members)
            solvers = [self._solvers[name] for name in names]
            thetas = PrivIncReg1.refresh_group_from_released(
                solvers, t_solve, gram_value, np.stack(crosses)
            )
            for name, solver, theta in zip(names, solvers, thetas):
                self._views[name]._hub.publish(
                    theta,
                    solver.estimate_version,
                    timestep=self._processed,
                    covered_steps=covered,
                )
        self._last_refresh_t = self._processed

    def merged_moments(self, name: str) -> tuple[MergedRelease, MergedRelease]:
        """One tenant's merged (cross, gram) releases right now.

        Post-processing of already-released sums — free to call; the
        conformance suite compares these against per-shard replays and
        against the single-tenant front's merges.
        """
        name = str(name)
        with self._lock:
            self.tenant(name)  # raises on unknown names
            handles = [self._released_handles(shard) for shard in self._shards]
            return (
                _merge_slot(handles, 0, list(self._views).index(name)),
                _merge_slot(
                    handles, 1, self.decays.index(self._tenant_decays[name])
                ),
            )

    def merged_bundle(self):
        """Not served here: the crosses are per tenant; use
        :meth:`merged_moments` with a tenant name."""
        raise ServingError(
            "MultiTenantStream merges per tenant; use merged_moments(name)"
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def estimates(self) -> dict[str, np.ndarray]:
        """Every tenant's cached parameter (lock-free reads, no solve)."""
        return {name: view.current_estimate() for name, view in self._views.items()}

    def flush(self) -> dict[str, ServedEstimate]:
        """Solve through everything processed; return per-tenant estimates."""
        self._settle()
        with self._lock:
            return {
                name: view.current_served() for name, view in self._views.items()
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MultiTenantStream(tenants={len(self._views)}/"
            f"{self.tenant_capacity}, shards={self.shards_count}, "
            f"dim={self.dim}, horizon={self.horizon}, t={self._processed})"
        )
