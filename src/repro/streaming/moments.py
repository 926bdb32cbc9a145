"""Moment bundles: named sets of privatized running statistics.

The serving stack reduces every estimator it fronts to *privatized running
moment statistics* over routed blocks.  Historically exactly two were
hardcoded at every layer — a ``(m,)`` cross vector and a ``(m, m)`` Gram
matrix — but two-stage least squares needs three (ZᵀZ, ZᵀX, Zᵀy) and
kernel methods will bring their own shapes.  This module is the one
generalization point:

* :class:`MomentStatistic` — one named statistic: a shape, a per-element
  accumulation rule (the exact tier), a pre-reduced block-total rule (the
  fast tier), a budget weight, and an optional per-entry forgetting
  factor.
* :class:`MomentBundle` — an *ordered* set of statistics, each backed by
  its own release mechanism from
  :func:`~repro.privacy.release.make_release_mechanism`, advanced in
  lockstep over the shard's sub-stream.  Entries may be added and removed
  at runtime (:meth:`MomentBundle.add` / :meth:`MomentBundle.remove`).

Every shard class in :mod:`repro.streaming.serving` is a thin bundle
declaration: :class:`~repro.streaming.serving.MomentShard` declares the
default two-entry (cross, gram) bundle — built with the same factory
arguments, the same rng children, and the same float expressions as the
historical inline pair, so the refactor is bit-identical under one seed —
:class:`~repro.streaming.serving.IVMomentShard` declares the three-entry
(zz, zx, zy) bundle :class:`~repro.core.priv_inc_iv.PrivIncIV` consumes,
and :class:`~repro.streaming.serving.TenantShard` declares one shared
Gram per γ group followed by one cross entry per active tenant.

Fault semantics (the per-bundle accounting rule)
------------------------------------------------
:meth:`MomentBundle.ingest` materializes *every* statistic's input before
any mechanism advances, so all failures the library can raise
(validation, capacity) happen on the **first** entry, before anything is
consumed — the block-atomic no-consumption guarantee the front's refund
path relies on, unchanged from the two-tree days.  If a *later* entry
nevertheless fails after earlier entries committed (a torn bundle — e.g.
a mechanism poisoned mid-block), the bundle can no longer answer a
coverage-consistent merge: it discards its mechanisms and raises
:class:`~repro.exceptions.BundlePartialCommitError` (a
:class:`~repro.exceptions.ShardUnavailableError`), which the owning shard
converts into its own death.  Loss accounting then counts exactly the
shard's fully committed blocks: the torn block was never acknowledged, so
``lost_steps`` refunds stay per-bundle-consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.incremental_regression import MOMENT_SENSITIVITY
from ..exceptions import BundlePartialCommitError, ValidationError
from .._validation import check_release_knobs
from ..privacy.release import make_release_mechanism

__all__ = [
    "MomentBundle",
    "MomentStatistic",
    "bundle_names",
    "cross_statistic",
    "gram_statistic",
    "iv_statistics",
]


@dataclass(frozen=True)
class MomentStatistic:
    """One named running statistic of a shard's sub-stream.

    Attributes
    ----------
    name:
        The statistic's name — the key merges, budgets, and accountant
        labels are indexed by (``"cross"``, ``"gram"``, ``"zz"``, ...).
    shape:
        Element shape of the statistic (the release mechanism's shape).
    values:
        Exact-tier rule ``(rows, ys) -> (k, *shape)``: the per-element
        moment values a mechanism ``advance_batch`` consumes.
    total:
        Fast-tier rule ``(rows, ys, weights) -> shape``: the pre-reduced
        block total ``advance_sum`` consumes.  ``weights`` is the
        γ-weight vector ``γ^{k−1−i}`` when the bundle is decayed, else
        ``None`` (the plain one-product total).
    budget_weight:
        Relative share of the shard budget this statistic's mechanism
        receives (:func:`~repro.privacy.parameters.bundle_budgets`).
    decay:
        This entry's forgetting factor γ.  ``None`` (default) uses the
        bundle's ``decay``; ``1.0`` builds the plain, undecayed mechanism.
    """

    name: str
    shape: tuple[int, ...]
    values: Callable = field(repr=False)
    total: Callable = field(repr=False)
    budget_weight: float = 1.0
    decay: float | None = None


def cross_statistic(moment_dim: int) -> MomentStatistic:
    """The ``Σ x_i y_i`` statistic (``(m,)``) of the default bundle."""

    def values(rows, ys):
        return rows * ys[:, None]

    def total(rows, ys, weights):
        if weights is not None:
            return (weights * ys) @ rows
        return ys @ rows

    return MomentStatistic("cross", (moment_dim,), values, total)


def gram_statistic(moment_dim: int) -> MomentStatistic:
    """The ``Σ x_i x_iᵀ`` statistic (``(m, m)``) of the default bundle."""

    def values(rows, ys):
        return rows[:, :, None] * rows[:, None, :]

    def total(rows, ys, weights):
        if weights is not None:
            return (weights[:, None] * rows).T @ rows
        return rows.T @ rows

    return MomentStatistic("gram", (moment_dim, moment_dim), values, total)


def iv_statistics(instruments: int, dim: int) -> tuple[MomentStatistic, ...]:
    """The (zz, zx, zy) bundle of private two-stage least squares.

    Rows are stacked ``[z | x]`` blocks of width ``instruments + dim``
    (the serving front routes them like any covariate block); each rule
    slices its factors back out.  Under ``‖z‖ ≤ 1, ‖x‖ ≤ 1, |y| ≤ 1``
    every statistic's element has norm at most 1, so the L2-sensitivity
    is the same Δ₂ = 2 the plain cross/gram calibration uses and the
    bundle budgeting, noise calibration, and merge rule carry over
    verbatim.
    """
    p = instruments

    def zz_values(rows, ys):
        z = rows[:, :p]
        return z[:, :, None] * z[:, None, :]

    def zz_total(rows, ys, weights):
        z = rows[:, :p]
        if weights is not None:
            return (weights[:, None] * z).T @ z
        return z.T @ z

    def zx_values(rows, ys):
        return rows[:, :p, None] * rows[:, None, p:]

    def zx_total(rows, ys, weights):
        z, x = rows[:, :p], rows[:, p:]
        if weights is not None:
            return (weights[:, None] * z).T @ x
        return z.T @ x

    def zy_values(rows, ys):
        return rows[:, :p] * ys[:, None]

    def zy_total(rows, ys, weights):
        z = rows[:, :p]
        if weights is not None:
            return (weights * ys) @ z
        return ys @ z

    return (
        MomentStatistic("zz", (p, p), zz_values, zz_total),
        MomentStatistic("zx", (p, dim), zx_values, zx_total),
        MomentStatistic("zy", (p,), zy_values, zy_total),
    )


def bundle_names(backend: str) -> tuple[str, ...]:
    """The statistic names a serving backend's bundle declares, in order.

    The front needs the names *before* any shard exists — to size the rng
    spawn (``len(names)`` children per shard), to label the accountant
    charges, and to key the merged releases — so the mapping lives here
    rather than on the shard classes.
    """
    if backend == "iv":
        return ("zz", "zx", "zy")
    return ("cross", "gram")


class MomentBundle:
    """An ordered set of named statistics, each behind its own mechanism.

    Parameters
    ----------
    statistics:
        The :class:`MomentStatistic` declarations, in advance order.  The
        first entry is the *guard*: it advances first every block, so all
        ordinary failures (validation, capacity — the entries run in step
        lockstep) surface before anything is consumed.
    budgets:
        One :class:`~repro.privacy.parameters.PrivacyParams` per entry
        (:func:`~repro.privacy.parameters.bundle_budgets`).
    rngs:
        One independent child generator per entry, in entry order — the
        front spawns ``len(statistics)`` children per shard, so every
        transport consumes randomness identically.
    mechanism, horizon, decay, window:
        Forwarded to :func:`~repro.privacy.release.make_release_mechanism`
        per entry, exactly as the historical inline pair construction
        (an entry's own :attr:`MomentStatistic.decay` overrides ``decay``).
    l2_sensitivity:
        Shared sensitivity of every entry's stream (Δ₂ = 2 under the unit
        normalizations all current statistics assume).
    """

    def __init__(
        self,
        statistics,
        budgets,
        rngs,
        *,
        mechanism: str = "tree",
        horizon: int | None = None,
        decay: float | None = None,
        window: "int | float | None" = None,
        l2_sensitivity: float = MOMENT_SENSITIVITY,
    ) -> None:
        statistics = tuple(statistics)
        budgets = tuple(budgets)
        rngs = tuple(rngs)
        if not statistics:
            raise ValidationError("a moment bundle needs at least one statistic")
        if len(budgets) != len(statistics) or len(rngs) != len(statistics):
            raise ValidationError(
                f"need one budget and one rng per statistic: "
                f"{len(statistics)} statistics, {len(budgets)} budgets, "
                f"{len(rngs)} rngs"
            )
        self.decay, self.window = check_release_knobs(decay, window)
        self._factory = dict(
            l2_sensitivity=l2_sensitivity,
            mechanism=mechanism,
            horizon=horizon,
            window=self.window,
        )
        #: name → (statistic, effective γ or ``None``), in advance order.
        self._entries: dict[str, tuple[MomentStatistic, float | None]] = {}
        self._mechanisms: dict[str, object] | None = {}
        for stat, budget, rng in zip(statistics, budgets, rngs):
            self.add(stat, budget, rng)

    @property
    def names(self) -> tuple[str, ...]:
        """The entry names, in advance order."""
        return tuple(self._entries)

    def add(self, stat: MomentStatistic, budget, rng) -> None:
        """Append one entry behind a fresh mechanism (starts at step 0)."""
        if self._mechanisms is None:
            raise ValidationError("cannot add to a killed moment bundle")
        if stat.name in self._entries:
            raise ValidationError(
                f"bundle statistic names must be unique: {stat.name!r} is "
                f"already declared in {self.names!r}"
            )
        decay = self.decay if stat.decay is None else stat.decay
        if stat.decay == 1.0:
            decay = None  # the plain mechanism, not a γ = 1 decayed wrapper
        self._mechanisms[stat.name] = make_release_mechanism(
            shape=stat.shape, params=budget, rng=rng, decay=decay, **self._factory
        )
        self._entries[stat.name] = (stat, decay)

    def remove(self, name: str) -> None:
        """Drop the named entry; its mechanism never advances again."""
        if name not in self._entries:
            raise ValidationError(f"bundle has no statistic {name!r}")
        del self._entries[name]
        if self._mechanisms is not None:
            del self._mechanisms[name]

    def get(self, name: str):
        """The named entry's mechanism, or ``None`` once killed."""
        if self._mechanisms is None:
            return None
        return self._mechanisms[name]

    def ingest(self, rows: np.ndarray, ys, fast: bool) -> None:
        """Advance every entry with one routed block, in declaration order.

        ``ys`` reaches every rule as given (the tenant shard passes a
        tenant → outcome-column mapping).  Every statistic's input is
        materialized *before* any mechanism advances; a first-entry
        failure therefore consumes nothing (the block stays refundable,
        the shard stays alive), while a later-entry failure after earlier
        commits tears the bundle — see the module docstring for the
        per-bundle fault rule.
        """
        k = rows.shape[0]
        entries = self._entries.values()
        if fast:
            # One BLAS product per statistic; mechanisms draw only
            # surviving-node noise (distributional tier).  A decayed
            # entry's block total is γ-weighted — ``advance_sum``'s
            # contract is ``Σ γ^{k−1−i} v_i`` so the mechanism's internal
            # fold ``γ^k·prefix + total`` reproduces the sequential
            # recursion.  One weight vector per distinct γ.
            gammas = {decay for _, decay in entries} - {None, 1.0}
            weights = {g: g ** np.arange(k - 1, -1, -1, dtype=float) for g in gammas}
            inputs = [
                stat.total(rows, ys, weights.get(decay)) for stat, decay in entries
            ]
            self._advance(inputs, lambda mech, total: mech.advance_sum(total, k))
        else:
            # Decayed mechanisms fade internally, so every entry consumes
            # raw values; entries sharing one ``values`` rule (the Gram of
            # every γ group) share one materialization.
            materialized: dict = {}
            for stat, _ in entries:
                if stat.values not in materialized:
                    materialized[stat.values] = stat.values(rows, ys)
            inputs = [materialized[stat.values] for stat, _ in entries]
            self._advance(inputs, lambda mech, values: mech.advance_batch(values))

    def _advance(self, inputs, advance) -> None:
        mechanisms = self._mechanisms
        if mechanisms is None:
            raise ValidationError("cannot ingest into a killed moment bundle")
        for position, (name, payload) in enumerate(zip(self._entries, inputs)):
            try:
                advance(mechanisms[name], payload)
            except BaseException as exc:
                if position == 0:
                    # Nothing consumed: block-atomic, retry-safe.
                    raise
                self.kill()
                raise BundlePartialCommitError(
                    f"statistic {name!r} failed after {position} of "
                    f"{len(self._entries)} bundle entries committed this "
                    f"block; the bundle is torn and its mechanisms were "
                    f"discarded"
                ) from exc

    def released(self) -> tuple:
        """The per-entry merge handles, in declaration order.

        The transport seam of the merge path: in-process bundles hand
        over their **live** mechanisms (zero-copy), while the remote
        transports snapshot each element as a
        :class:`~repro.privacy.tree.ReleasedMoments` over the wire —
        :func:`~repro.privacy.tree.merge_released` accepts both
        interchangeably.
        """
        if self._mechanisms is None:
            return tuple(None for _ in self._entries)
        return tuple(self._mechanisms[name] for name in self._entries)

    def memory_floats(self) -> int:
        """Floats held by the bundle's mechanisms (0 once killed)."""
        if self._mechanisms is None:
            return 0
        return sum(
            mechanism.memory_floats() for mechanism in self._mechanisms.values()
        )

    def kill(self) -> None:
        """Drop every mechanism; the bundle's ingested mass is lost."""
        self._mechanisms = None

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "killed" if self._mechanisms is None else "live"
        return f"MomentBundle(names={self.names!r}, {state})"
