"""Lifting: recover a ``d``-dimensional point from its ``m``-dim projection.

Algorithm 3's Step 9 solves the convex program

    ``θ^priv ∈ argmin_θ ‖θ‖_C   subject to   Φθ = ϑ^priv``

where ``‖·‖_C`` is the Minkowski functional of the constraint set.
Theorem 5.3 (the M* bound, after Vershynin) guarantees the solution is
within ``O((w(C) + ‖C‖√log(1/β))/√m)`` of *any* preimage in ``C`` — this is
what transfers the projected-space risk bound back to ``R^d``.

The program's structure depends on ``C``:

* **L2 ball** — ``min ‖θ‖₂ s.t. Φθ = ϑ`` is the classical least-norm
  problem with closed form ``θ = Φᵀ(ΦΦᵀ)⁻¹ϑ`` (:func:`lift_least_norm`).
* **L1 ball** — basis pursuit; an exact LP after the standard
  ``θ = θ⁺ − θ⁻`` split (:func:`lift_l1_basis_pursuit`).
* **Polytope / simplex** — minimize the total vertex weight subject to the
  projected combination matching ``ϑ``; an LP in the weights
  (:func:`lift_polytope`).
* **Anything else** — a penalized projected-gradient fallback minimizing
  ``‖Φθ − ϑ‖²`` over shrinking dilations ``ρC`` via bisection on ``ρ``
  (:func:`lift`'s generic branch).

:func:`lift` dispatches on the set type so Algorithm 3 code stays generic.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize

from .._validation import check_matrix, check_vector
from ..exceptions import LiftingError
from ..geometry.balls import L1Ball, L2Ball
from ..geometry.base import ConvexSet
from ..geometry.polytope import Polytope
from ..geometry.simplex import Simplex

__all__ = ["lift", "lift_least_norm", "lift_l1_basis_pursuit", "lift_polytope"]


def lift_least_norm(phi: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Minimum-L2-norm solution of ``Φθ = ϑ``: ``θ = Φ⁺ϑ``.

    Uses the pseudo-inverse (via ``lstsq``) for numerical robustness when
    ``ΦΦᵀ`` is ill-conditioned.
    """
    phi = check_matrix("phi", phi)
    target = check_vector("target", target, dim=phi.shape[0])
    solution, *_ = np.linalg.lstsq(phi, target, rcond=None)
    return solution


def lift_l1_basis_pursuit(phi: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Basis pursuit: ``min ‖θ‖₁ s.t. Φθ = ϑ`` as a linear program.

    Standard split ``θ = θ⁺ − θ⁻`` with ``θ± ≥ 0`` turns the objective into
    ``1ᵀ(θ⁺ + θ⁻)`` and the constraint into ``[Φ, −Φ][θ⁺; θ⁻] = ϑ``.
    Solved with HiGHS through ``scipy.optimize.linprog``.

    Raises
    ------
    LiftingError
        If the LP reports infeasibility or numerical failure.
    """
    phi = check_matrix("phi", phi)
    target = check_vector("target", target, dim=phi.shape[0])
    m, d = phi.shape
    result = optimize.linprog(
        c=np.ones(2 * d),
        A_eq=np.hstack([phi, -phi]),
        b_eq=target,
        bounds=[(0.0, None)] * (2 * d),
        method="highs",
    )
    if not result.success:
        raise LiftingError(f"basis pursuit LP failed: {result.message}")
    positive, negative = result.x[:d], result.x[d:]
    return positive - negative


def lift_polytope(phi: np.ndarray, target: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Gauge minimization over a vertex polytope as a linear program.

    Minimize ``Σμ_i`` subject to ``(ΦVᵀ)μ = ϑ`` and ``μ ≥ 0``; the optimum
    ``Σμ_i`` is exactly ``‖θ‖_C`` for ``θ = Vᵀμ`` and the returned ``θ``
    satisfies ``Φθ = ϑ``.

    Raises
    ------
    LiftingError
        If the LP is infeasible (``ϑ`` outside the projected conic hull).
    """
    phi = check_matrix("phi", phi)
    vertices = check_matrix("vertices", vertices)
    target = check_vector("target", target, dim=phi.shape[0])
    projected_vertices = vertices @ phi.T  # shape (l, m)
    n_vertices = vertices.shape[0]
    result = optimize.linprog(
        c=np.ones(n_vertices),
        A_eq=projected_vertices.T,
        b_eq=target,
        bounds=[(0.0, None)] * n_vertices,
        method="highs",
    )
    if not result.success:
        raise LiftingError(f"polytope lifting LP failed: {result.message}")
    return vertices.T @ result.x


def _lift_generic(
    phi: np.ndarray,
    target: np.ndarray,
    constraint: ConvexSet,
    iterations: int = 400,
    bisection_steps: int = 30,
) -> np.ndarray:
    """Generic gauge minimization by bisection on the dilation factor.

    ``min ‖θ‖_C s.t. Φθ = ϑ`` equals the smallest ``ρ`` such that
    ``ρC ∩ {Φθ = ϑ}`` is non-empty.  For each candidate ``ρ`` we minimize
    ``‖Φθ − ϑ‖²`` over ``ρC`` with accelerated projected gradient; the
    residual tells us whether ``ρ`` is large enough.  This needs only the
    set's projection operator, so it works for every
    :class:`~repro.geometry.base.ConvexSet`.  ``Φ`` and ``ϑ`` are checked
    by :func:`lift`, so every iterate is finite and the loop uses the
    unchecked projection kernel.
    """

    def residual_at(rho: float) -> tuple[float, np.ndarray]:
        scaled_project = lambda z: rho * constraint._project(z / rho)  # noqa: E731
        theta = scaled_project(np.zeros(phi.shape[1]))
        momentum = theta.copy()
        t_prev = 1.0
        lipschitz = 2.0 * float(np.linalg.norm(phi, 2)) ** 2 + 1e-12
        step = 1.0 / lipschitz
        for _ in range(iterations):
            grad = 2.0 * phi.T @ (phi @ momentum - target)
            new_theta = scaled_project(momentum - step * grad)
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_prev * t_prev))
            momentum = new_theta + ((t_prev - 1.0) / t_next) * (new_theta - theta)
            theta, t_prev = new_theta, t_next
        return float(np.linalg.norm(phi @ theta - target)), theta

    tolerance = 1e-6 * max(float(np.linalg.norm(target)), 1.0)
    rho_high = 1.0
    residual, theta = residual_at(rho_high)
    attempts = 0
    while residual > tolerance and attempts < 40:
        rho_high *= 2.0
        residual, theta = residual_at(rho_high)
        attempts += 1
    if residual > tolerance:
        raise LiftingError(
            f"generic lifting failed to reach feasibility (residual {residual:.3g})"
        )
    rho_low = 0.0
    best_theta = theta
    for _ in range(bisection_steps):
        rho_mid = 0.5 * (rho_low + rho_high)
        if rho_mid == 0.0:
            break
        residual, theta = residual_at(rho_mid)
        if residual <= tolerance:
            rho_high, best_theta = rho_mid, theta
        else:
            rho_low = rho_mid
    return best_theta


def lift(phi: np.ndarray, target: np.ndarray, constraint: ConvexSet) -> np.ndarray:
    """Solve ``min ‖θ‖_C s.t. Φθ = ϑ``, dispatching on the set family.

    Parameters
    ----------
    phi:
        The projection matrix ``Φ`` of shape ``(m, d)``.
    target:
        The projected point ``ϑ ∈ R^m`` (Algorithm 3's ``ϑ_t^priv``).
    constraint:
        The constraint set whose gauge is minimized.

    Returns
    -------
    numpy.ndarray
        A ``d``-dimensional point with ``Φθ ≈ ϑ`` and minimal gauge.  As
        the paper notes below Theorem 5.3, whenever ``ϑ ∈ ΦC`` the result
        has gauge at most 1 and hence lies in ``C``.
    """
    phi = check_matrix("phi", phi)
    target = check_vector("target", target, dim=phi.shape[0])
    if isinstance(constraint, L2Ball):
        return lift_least_norm(phi, target)
    if isinstance(constraint, L1Ball):
        return lift_l1_basis_pursuit(phi, target)
    if isinstance(constraint, (Polytope, Simplex)):
        return lift_polytope(phi, target, constraint.vertices())
    return _lift_generic(phi, target, constraint)
