"""Algorithm 2 — ``PrivIncReg1``: private incremental linear regression.

The paper's first regression mechanism (§4).  Per timestep ``t``:

1. feed ``x_t y_t`` into one Tree Mechanism and ``x_t x_tᵀ`` (flattened to a
   ``d²``-vector) into a second, each with budget ``(ε/2, δ/2)`` and
   sensitivity ``Δ₂ = 2`` (both guaranteed by the ``‖x‖ ≤ 1, |y| ≤ 1``
   normalization);
2. form the private gradient function ``g_t(θ) = 2(Q_t θ − q_t)``
   (Definition 5, Lemma 4.1);
3. run ``NOISYPROJGRAD(C, g_t, r)`` (Appendix B) and release its average.

Privacy: the two trees are each ``(ε/2, δ/2)``-DP for the whole stream;
basic composition (Theorem A.3) gives ``(ε, δ)`` overall, and the PGD loop
is post-processing.  Memory is ``O(d² log T)``.

Utility (Theorem 4.2): excess risk
``O(log^{3/2}T · √log(1/δ) · ‖C‖² (√d + √log(T/β)) / ε)`` — the ``√d``
worst-case-optimal row of Table 1.

Engineering knobs (documented deviations, see DESIGN.md §3):

* ``fidelity="fast"`` (default) sizes the inner PGD iteration count from
  Corollary B.2 with the *current* prefix Lipschitz constant and caps it;
  ``fidelity="paper"`` uses the horizon-based
  ``r = Θ((1 + T‖C‖/α′)²)`` from Algorithm 2's Step 1 (uncapped).
* the released parameter warm-starts the next step's PGD — pure
  post-processing of already-private quantities, so privacy is unaffected.
* ``solve_every=s`` runs the PGD refresh only on multiples of ``s``
  (and at the horizon), replaying the stale parameter in between.  The
  moment trees still advance every step — the privacy-relevant part is
  never amortized — so this is pure post-processing scheduling (the same
  staleness argument as Mechanism 1's τ-window and
  :class:`~repro.core.projected_regression.PrivIncReg2`'s knob).  1
  (default) reproduces Algorithm 2 exactly.
* :meth:`PrivIncReg1.observe_batch` ingests a block of points with
  vectorized tree updates and runs the PGD refreshes scheduled inside the
  block.  Each tree owns an independent child generator (spawned from the
  constructor's ``rng``), so the batched path consumes randomness exactly
  like the sequential path and the released parameters are bit-identical
  to point-by-point ``observe`` calls under the same ``solve_every``.
"""

from __future__ import annotations

import math

import numpy as np

from .._validation import (
    check_int,
    check_matrix,
    check_positive,
    check_probability,
    check_release_knobs,
    check_rng,
    check_unit_xy_domain,
    check_vector,
    check_xy_block,
)
from ..erm.noisy_pgd import NoisyProjectedGradient, noisy_pgd_iterations
from ..exceptions import DomainViolationError, ValidationError
from ..geometry.base import ConvexSet
from ..privacy.accountant import PrivacyAccountant
from ..privacy.parameters import PrivacyParams
from ..privacy.release import SlidingWindowMechanism, make_release_mechanism
from .private_gradient import PrivateGradientFunction

__all__ = ["PrivIncReg1", "solve_schedule"]

#: L2-sensitivity of both moment streams under the unit normalization.
MOMENT_SENSITIVITY = 2.0


def solve_schedule(t0: int, t1: int, solve_every: int, horizon: int) -> list[int]:
    """Timesteps in ``(t0, t1]`` at which an amortized PGD refresh runs.

    The single definition of the ``solve_every`` schedule shared by the
    batched paths of Algorithms 2 and 3: every multiple of ``solve_every``
    plus the horizon itself, so a sequential run with the same knob solves
    at exactly the same steps.
    """
    return [
        t for t in range(t0 + 1, t1 + 1) if t % solve_every == 0 or t == horizon
    ]


def _check_logical_t(t: int | float) -> int | float:
    """A refresh's logical sample count: a positive int or positive float."""
    if isinstance(t, (int, np.integer)) and not isinstance(t, bool):
        return check_int("t", t, minimum=1)
    return check_positive("t", t)


class PrivIncReg1:
    """Private incremental linear regression via the Tree Mechanism (Alg. 2).

    Parameters
    ----------
    horizon:
        The stream length ``T`` (known in advance; the paper's footnote 13
        trick — our :class:`~repro.privacy.hybrid.HybridMechanism` — lifts
        this, see :class:`PrivIncReg1` docs for the variant).
    constraint:
        The convex constraint set ``C`` the regression parameter lives in.
    params:
        Total ``(ε, δ)`` budget for the entire stream of releases.
    beta:
        Confidence parameter for the internal error bounds (Definition 1's
        ``β``); only affects utility knobs, never privacy.
    fidelity:
        ``"fast"`` (default) or ``"paper"`` inner-iteration sizing.
    iteration_cap:
        PGD iteration ceiling in ``"fast"`` mode.
    solve_every:
        Run the PGD refresh every ``solve_every`` steps (and at the
        horizon), replaying the stale parameter in between; 1 = paper.
        Post-processing only — privacy is unchanged.
    decay:
        Optional forgetting factor ``γ ∈ (0, 1]``: the moment trees become
        :class:`~repro.privacy.release.DecayedTreeMechanism` instances
        tracking the γ-weighted moments ``Σ γ^{t−i} x_i y_i`` etc., and
        the PGD refresh sizes its Lipschitz constant from the *effective*
        sample weight ``(1−γ^t)/(1−γ)`` instead of ``t``.  Privacy is
        unchanged (per-node sensitivity only shrinks under γ ≤ 1).
        Mutually exclusive with ``window``; ``None``/``1.0`` reproduce
        the paper exactly.
    window:
        Optional sliding window ``W`` (elements): the moment trees become
        :class:`~repro.privacy.release.SlidingWindowMechanism` rings whose
        releases cover only the last ``≤ W`` elements.  Mutually
        exclusive with ``decay``.
    rng:
        Seed or Generator.  Each moment tree receives an independent child
        generator spawned from it, so batched and sequential ingestion
        draw identical noise.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.geometry import L2Ball
    >>> from repro.privacy import PrivacyParams
    >>> mech = PrivIncReg1(horizon=4, constraint=L2Ball(2),
    ...                    params=PrivacyParams(1.0, 1e-6), rng=1)
    >>> theta = mech.observe(np.array([0.6, 0.0]), 0.3)
    >>> theta.shape
    (2,)
    """

    def __init__(
        self,
        horizon: int,
        constraint: ConvexSet,
        params: PrivacyParams,
        beta: float = 0.05,
        fidelity: str = "fast",
        iteration_cap: int = 400,
        solve_every: int = 1,
        decay: float | None = None,
        window: int | float | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if fidelity not in ("paper", "fast"):
            raise ValidationError(f"fidelity must be 'paper' or 'fast', got {fidelity!r}")
        self.horizon = check_int("horizon", horizon, minimum=1)
        self.constraint = constraint
        self.params = params
        self.beta = check_probability("beta", beta)
        self.fidelity = fidelity
        self.iteration_cap = check_int("iteration_cap", iteration_cap, minimum=1)
        self.solve_every = check_int("solve_every", solve_every, minimum=1)
        self.decay, self.window = check_release_knobs(decay, window)
        self._rng = check_rng(rng)
        self.dim = constraint.dim

        # Step 1 of Algorithm 2: ε' = ε/2, δ' = δ/2 for each tree.  The
        # trees get independent child generators so their draws never
        # interleave on a shared stream — the discipline that lets
        # observe_batch (cross block, then gram block) reproduce the
        # sequential draw-per-step order exactly.
        half = params.halve()
        cross_rng, gram_rng = self._rng.spawn(2)
        self._tree_cross = make_release_mechanism(
            shape=(self.dim,),
            l2_sensitivity=MOMENT_SENSITIVITY,
            params=half,
            rng=cross_rng,
            mechanism="tree",
            horizon=self.horizon,
            decay=self.decay,
            window=self.window,
        )
        self._tree_gram = make_release_mechanism(
            shape=(self.dim, self.dim),
            l2_sensitivity=MOMENT_SENSITIVITY,
            params=half,
            rng=gram_rng,
            mechanism="tree",
            horizon=self.horizon,
            decay=self.decay,
            window=self.window,
        )
        self.accountant = PrivacyAccountant(params, mode="basic")
        self.accountant.charge("tree:cross-moments", half)
        self.accountant.charge("tree:second-moments", half)
        self._alpha = self._moment_gradient_error()

        self.steps_taken = 0
        self.estimate_version = 0
        self._theta = constraint.project(np.zeros(self.dim))

    # ------------------------------------------------------------------

    def gradient_error(self) -> float:
        """Lemma 4.1's ``α``: uniform gradient-error bound over ``C``.

        Combines the cross tree's Proposition C.1 radius with the gram
        tree's **spectral** radius (the paper bounds ``‖ΔQ·θ‖`` through
        ``‖ΔQ‖₂`` via its Proposition A.1 — the spectral norm of a Gaussian
        matrix is ``O(√d)``, a ``√d`` factor below Frobenius, which is how
        Theorem 4.2 lands on ``√d`` rather than ``d``), each at confidence
        ``β/2``.

        A pure function of the horizon, ``d``, the budget and ``β``, so it
        is computed once at construction and every refresh reuses it.
        """
        return self._alpha

    def _moment_gradient_error(self) -> float:
        share = self.beta / 2.0
        gram_error = self._tree_gram.error_bound_spectral(share)
        cross_error = self._tree_cross.error_bound(share)
        return PrivateGradientFunction.moment_error_bound(
            gram_error, cross_error, self.constraint.diameter()
        )

    def _prefix_lipschitz(self, t: float) -> float:
        """Lipschitz bound of ``L(·; Γ_t)`` over ``C``: ``2t(‖C‖ + 1)``."""
        return 2.0 * t * (self.constraint.diameter() + 1.0)

    def _logical_t(self, t: int) -> int | float:
        """The effective sample weight at stream position ``t``.

        The quantity the PGD refresh should size its Lipschitz constant
        (and hence its iteration schedule) from: ``t`` itself for the
        plain mechanism, the γ-series ``(1−γ^t)/(1−γ)`` under decay, and
        the covered count under a window.  Pure arithmetic in ``t`` so the
        batched path's interior solves agree bit-for-bit with the
        sequential path.
        """
        if self.window is not None:
            return max(
                SlidingWindowMechanism.covered_at(
                    t, self.window, self._tree_cross.chunk
                ),
                1,
            )
        if self.decay is not None and self.decay != 1.0:
            return (1.0 - self.decay**t) / (1.0 - self.decay)
        return t

    def _iterations(self, t: float, alpha: float) -> int:
        if self.fidelity == "paper":
            # Algorithm 2 Step 1: r = Θ((1 + T‖C‖/α′)²), horizon-based.
            horizon_lipschitz = self._prefix_lipschitz(self.horizon)
            return noisy_pgd_iterations(horizon_lipschitz, alpha, cap=None)
        return noisy_pgd_iterations(self._prefix_lipschitz(t), alpha, cap=self.iteration_cap)

    def observe(self, x: np.ndarray, y: float) -> np.ndarray:
        """Process ``(x_t, y_t)``; release ``θ_t^priv``.

        Raises
        ------
        DomainViolationError
            If the point violates the unit normalization the sensitivity
            analysis depends on.
        """
        x = check_vector("x", x, dim=self.dim)
        y = float(y)
        if np.linalg.norm(x) > 1.0 + 1e-9 or abs(y) > 1.0 + 1e-9:
            raise DomainViolationError(
                "PrivIncReg1 requires ‖x‖ ≤ 1 and |y| ≤ 1 (privacy calibration)"
            )
        # Commit ordering: the trees ingest first, the counter bumps after
        # (matching observe_batch) — so a rejected point (horizon overrun,
        # validation) caught by the caller leaves the estimator's counter in
        # agreement with its trees and a retry/continue is safe.
        noisy_cross = self._tree_cross.observe(x * y)
        noisy_gram = self._tree_gram.observe(np.outer(x, x))
        self.steps_taken += 1
        t = self.steps_taken
        if t % self.solve_every == 0 or t == self.horizon:
            self._solve_at(self._logical_t(t), noisy_gram, noisy_cross)
        return self._theta.copy()

    def observe_batch(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Process a block of points; release ``θ`` after the final one.

        The two moment trees ingest the whole block with vectorized dyadic
        updates (the privacy-relevant part still advances element by
        element inside the trees), then the PGD refreshes scheduled inside
        the block by ``solve_every`` run against the matching per-step tree
        releases.  Bit-identical to feeding the same points one at a time
        through :meth:`observe`.

        Parameters
        ----------
        xs, ys:
            Covariates ``(k, d)`` and responses ``(k,)`` with ``k ≥ 1``.

        Returns
        -------
        numpy.ndarray
            The parameter released at the final step of the block.
        """
        xs, ys = check_xy_block(xs, ys, dim=self.dim)
        check_unit_xy_domain("PrivIncReg1", xs, ys)
        k = xs.shape[0]
        cross_all = self._tree_cross.observe_batch(xs * ys[:, None])
        gram_all = self._tree_gram.observe_batch(xs[:, :, None] * xs[:, None, :])
        t0 = self.steps_taken
        self.steps_taken = t0 + k
        for t in solve_schedule(t0, t0 + k, self.solve_every, self.horizon):
            idx = t - t0 - 1
            self._solve_at(self._logical_t(t), gram_all[idx], cross_all[idx])
        return self._theta.copy()

    def _solve_at(
        self, t: float, noisy_gram: np.ndarray, noisy_cross: np.ndarray
    ) -> None:
        """One PGD refresh against the released moments at logical ``t``."""
        self._theta = self._run_pgd(t, noisy_gram, noisy_cross, self._theta)
        self.estimate_version += 1

    def _run_pgd(
        self, t: float, noisy_gram: np.ndarray, noisy_cross: np.ndarray, start: np.ndarray
    ) -> np.ndarray:
        """The refresh's PGD from ``start``: one ``(d,)`` iterate against a
        ``(d,)`` cross, or a ``(k, d)`` stack against a ``(k, d)`` cross."""
        # Symmetrize: the true moment matrix is symmetric; averaging with the
        # transpose is post-processing and only reduces the error.
        noisy_gram = 0.5 * (noisy_gram + noisy_gram.T)
        alpha = self._alpha
        gradient_fn = PrivateGradientFunction._from_checked(noisy_gram, noisy_cross, alpha)
        pgd = NoisyProjectedGradient(
            self.constraint,
            lipschitz=self._prefix_lipschitz(t),
            gradient_error=alpha,
            iterations=self._iterations(t, alpha),
        )
        return pgd.run(gradient_fn, start=start)

    def refresh_from_released(
        self, t: int | float, noisy_gram: np.ndarray, noisy_cross: np.ndarray
    ) -> np.ndarray:
        """Serve-mode hook: one PGD refresh against *external* released moments.

        A serving front (e.g. :class:`~repro.streaming.serving.ShardedStream`)
        ingests the stream through its own per-shard trees and hands the
        merged released moments here; this runs the same Steps 2–3 pipeline
        as :meth:`observe` — same warm start, Lipschitz sizing, and
        iteration schedule at logical timestep ``t`` — and bumps
        ``estimate_version``.  Pure post-processing of already-released
        statistics: privacy is untouched regardless of how the moments were
        assembled.  Returns the refreshed parameter.

        ``t`` may be a positive float: a front serving *weighted* moments
        (``decay`` / ``window``) passes the mechanisms' effective weight —
        the γ-series ``Σ γ^{t−i}`` or the covered window count — as the
        logical sample count the Lipschitz sizing uses.
        """
        t = _check_logical_t(t)
        noisy_gram = check_matrix("noisy_gram", noisy_gram, shape=(self.dim, self.dim))
        noisy_cross = check_vector("noisy_cross", noisy_cross, dim=self.dim)
        self._solve_at(t, noisy_gram, noisy_cross)
        return self._theta.copy()

    @staticmethod
    def refresh_group_from_released(
        solvers, t: int | float, noisy_gram: np.ndarray, noisy_crosses: np.ndarray
    ) -> np.ndarray:
        """:meth:`refresh_from_released` for ``k`` solvers sharing one Gram.

        The PRIMO refresh: ``k`` outcome models whose released moments
        share ``noisy_gram`` and differ only in their crosses (row ``i``
        of the ``(k, d)`` ``noisy_crosses`` belongs to ``solvers[i]``).
        The Gram is validated and symmetrized once and all ``k`` warm
        starts advance in one stacked
        :class:`~repro.erm.noisy_pgd.NoisyProjectedGradient` loop.  Every
        solver ends bit-identical to its own ``refresh_from_released(t,
        noisy_gram, noisy_crosses[i])``: same θ, ``estimate_version``
        bumped once.  ``k = 1`` runs the single-estimate ``(d,)`` loop, and
        so does every solver in turn when the constraint's projection
        keeps a warm start (``ConvexSet._projection_has_memory``).

        The solvers must share the knobs that size the solve (the
        constraint object, ``α``, fidelity, iteration cap, horizon) — true
        of solvers built from one set of arguments.  Atomic: every check,
        including the solve's own output check, runs before any solver
        changes.  Returns the ``(k, d)`` refreshed parameters.
        """
        solvers = list(solvers)
        if not solvers:
            raise ValidationError("refresh_group_from_released needs at least one solver")
        first = solvers[0]

        def sizing(s):
            return (s.constraint, s._alpha, s.fidelity, s.iteration_cap, s.horizon)

        if any(sizing(solver) != sizing(first) for solver in solvers[1:]):
            raise ValidationError(
                "a group refresh needs solvers that share the constraint, "
                "gradient error, fidelity, iteration cap and horizon"
            )
        t = _check_logical_t(t)
        noisy_gram = check_matrix("noisy_gram", noisy_gram, shape=(first.dim, first.dim))
        noisy_crosses = check_matrix(
            "noisy_crosses", noisy_crosses, shape=(len(solvers), first.dim)
        )
        if len(solvers) == 1 or first.constraint._projection_has_memory:
            # One (d,) loop per solver, in order: a stack would interleave
            # the projection's warm starts across solvers.
            thetas = np.stack([
                solver._run_pgd(t, noisy_gram, cross, solver._theta)
                for solver, cross in zip(solvers, noisy_crosses)
            ])
        else:
            start = np.stack([solver._theta for solver in solvers])
            thetas = first._run_pgd(t, noisy_gram, noisy_crosses, start)
        for solver, theta in zip(solvers, thetas):
            solver._theta = theta.copy()
            solver.estimate_version += 1
        return thetas

    def current_estimate(self) -> np.ndarray:
        """The most recently released parameter (post-processing, free)."""
        return self._theta.copy()

    def memory_floats(self) -> int:
        """Floats held by the mechanism: ``O(d² log T)`` (paper §4)."""
        return self._tree_cross.memory_floats() + self._tree_gram.memory_floats() + self.dim

    def excess_risk_bound(self) -> float:
        """Theorem 4.2's guarantee shape (a reference value for benchmarks).

        ``O(log^{3/2}T √log(1/δ) ‖C‖² (√d + √log(T/β)) / ε)``.
        """
        diameter = self.constraint.diameter()
        kappa = (
            math.log(max(self.horizon, 2)) ** 1.5
            * math.sqrt(math.log(2.0 / self.params.delta))
            / (self.params.epsilon / 2.0)
        )
        return (
            kappa
            * diameter**2
            * (math.sqrt(self.dim) + math.sqrt(math.log(max(self.horizon, 2) / self.beta)))
        )
