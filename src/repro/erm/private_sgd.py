"""Private batch ERM via noisy stochastic gradient descent.

This is the library's implementation of the Bassily-Smith-Thakurta (FOCS
2014) noisy SGD algorithm — the batch solver the paper plugs into
Mechanism 1 to obtain Theorem 3.1 parts 1 (its "Theorem 2.4 of Bassily et
al." citations).  For a convex, ``L``-Lipschitz loss over a constraint set
of diameter ``‖C‖``, noisy SGD achieves excess empirical risk
``Õ(√d · L‖C‖ / ε)`` under ``(ε, δ)``-DP, which is tight in general.

Algorithm (BST14, Algorithm 1):
    for ``k = 1 .. K``:
        sample ``i ~ Uniform[n]``,
        ``θ_{k+1} = P_C(θ_k − η_k (n·∇ℓ(θ_k; z_i) + b_k))``,
        ``b_k ~ N(0, σ² I_d)``
    output the iterate average.

Privacy calibration: each step touches one random sample (sampling
amplification) and there are ``K`` adaptive steps; BST14 show

    ``σ = 4 L √(K ln(1/δ)) / ε``

suffices for ``(ε, δ)``-DP when ``K ≥ n²`` — with the scaled gradient
``n·∇ℓ`` having sensitivity ``2nL`` and amplification factor ``1/n``
cancelling.  We keep their constant and expose the step count:

* ``fidelity="paper"`` uses ``K = n²`` (the theorem's setting);
* ``fidelity="fast"`` (default) uses ``K = max(n, cap)`` steps with σ still
  calibrated for the *paper* count — i.e. never less noise than the proof
  demands — trading utility constants for wall-clock time.  Benchmarks that
  sweep stream length rely on this knob; the measured bound *shapes* match
  either way.

Step size follows the classical convex-SGD analysis with the noisy gradient
norm bound ``G = n·L + σ√d``:  ``η_k = ‖C‖ / (G √k)``.
"""

from __future__ import annotations

import math

import numpy as np

from .._validation import check_int, check_rng, check_vector
from ..exceptions import ValidationError
from ..geometry.base import ConvexSet
from ..privacy.parameters import PrivacyParams
from .losses import Loss

__all__ = ["NoisySGD"]


class NoisySGD:
    """Differentially private batch ERM solver (Bassily et al. 2014).

    Parameters
    ----------
    loss:
        The per-point convex loss.
    constraint:
        The convex constraint set ``C``.
    params:
        The ``(ε, δ)`` budget for one batch solve.
    fidelity:
        ``"paper"`` for the full ``n²`` iteration count, ``"fast"``
        (default) for a capped count with unchanged (conservative) noise.
    iteration_cap:
        Cap on the step count in ``"fast"`` mode.
    rng:
        Seed or Generator.
    """

    def __init__(
        self,
        loss: Loss,
        constraint: ConvexSet,
        params: PrivacyParams,
        fidelity: str = "fast",
        iteration_cap: int = 4000,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if fidelity not in ("paper", "fast"):
            raise ValidationError(f"fidelity must be 'paper' or 'fast', got {fidelity!r}")
        self.loss = loss
        self.constraint = constraint
        self.params = params
        self.fidelity = fidelity
        self.iteration_cap = check_int("iteration_cap", iteration_cap, minimum=1)
        self._rng = check_rng(rng)

    def _step_count(self, n: int) -> int:
        paper_count = n * n
        if self.fidelity == "paper":
            return paper_count
        return min(paper_count, max(n, self.iteration_cap))

    def noise_sigma(self, n: int) -> float:
        """Per-step noise scale — always the paper's ``K = n²`` calibration.

        ``σ = 4 L √(n² ln(1/δ)) / ε = 4 L n √(ln(1/δ)) / ε``.  Using the
        paper count even in ``"fast"`` mode means the privacy guarantee
        never weakens when the iteration budget shrinks.
        """
        lipschitz = self.loss.lipschitz(self.constraint.diameter())
        return 4.0 * lipschitz * n * math.sqrt(math.log(1.0 / self.params.delta)) / self.params.epsilon

    def solve(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Run noisy SGD on the dataset; return the private iterate average.

        Parameters
        ----------
        xs, ys:
            Covariates ``(n, d)`` and responses ``(n,)``; the privacy
            guarantee covers a change of any single pair.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        n, dim = xs.shape
        if n == 0:
            return self.constraint.project(np.zeros(self.constraint.dim))
        steps = self._step_count(n)
        sigma = self.noise_sigma(n)
        lipschitz = self.loss.lipschitz(self.constraint.diameter())
        gradient_norm_bound = n * lipschitz + sigma * math.sqrt(dim)
        diameter = self.constraint.diameter()

        theta = self.constraint.project(np.zeros(dim))
        project = self.constraint._project
        iterate_sum = np.zeros(dim)
        indices = self._rng.integers(0, n, size=steps)
        noise = self._rng.normal(0.0, sigma, size=(steps, dim))
        # Checked at the boundaries only (first gradient, returned average):
        # a non-finite gradient at any step leaves its iterate, and so the
        # average, non-finite (the ConvexSet._project contract).
        for k in range(steps):
            i = indices[k]
            grad = n * self.loss.gradient(theta, xs[i], ys[i]) + noise[k]
            if k == 0:
                check_vector("gradient", grad, dim=dim)
            step_size = diameter / (gradient_norm_bound * math.sqrt(k + 1.0))
            theta = project(theta - step_size * grad)
            iterate_sum += theta
        return check_vector("iterate average", iterate_sum / steps)

    def excess_risk_bound(self, n: int, dim: int) -> float:
        """The BST14 guarantee shape ``√d·polylog · L‖C‖ / ε`` (a reference value).

        Used by benchmarks to print paper-vs-measured rows; not a certified
        constant.
        """
        lipschitz = self.loss.lipschitz(self.constraint.diameter())
        diameter = self.constraint.diameter()
        polylog = math.log(max(n, 2)) ** 2 * math.sqrt(math.log(1.0 / self.params.delta))
        return math.sqrt(dim) * lipschitz * diameter * polylog / self.params.epsilon
