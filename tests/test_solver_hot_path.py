"""The trusted solver hot path: checks at the loop boundaries only.

``ConvexSet.project`` validates and copies; the solvers' iterate loops call
the unchecked ``ConvexSet._project`` instead.  These tests pin that split:

* every loop is bit-for-bit (``np.array_equal``) the reference loop kept
  here, which calls the public ``project`` on every iterate, for every
  shipped set;
* a bad oracle (non-finite mid-run, wrong shape) still raises
  :class:`ValidationError`, because ``_project`` keeps a non-finite input
  non-finite and the loops check their output;
* ``project`` still rejects bad input and never aliases its argument.
"""

import copy
import math

import numpy as np
import pytest

from repro import (
    GroupL1Ball,
    L1Ball,
    L2Ball,
    LinfBall,
    LpBall,
    NoisyProjectedGradient,
    NoisySGD,
    Polytope,
    PrivacyParams,
    PrivateGradientFunction,
    PrivIncReg1,
    QuadraticRisk,
    Simplex,
    SquaredLoss,
)
from repro.erm.solvers import fista_quadratic, projected_gradient
from repro.exceptions import ValidationError
from repro.geometry import Ellipsoid
from repro.sketching import ProjectedConvexSet
from repro.sketching.lifting import lift

DIM = 5


def _polytope() -> Polytope:
    rng = np.random.default_rng(3)
    vertices = rng.normal(size=(8, DIM))
    return Polytope(vertices / np.linalg.norm(vertices, axis=1, keepdims=True))


def _projected() -> ProjectedConvexSet:
    phi = np.random.default_rng(4).normal(size=(DIM, 7)) / math.sqrt(DIM)
    return ProjectedConvexSet(phi, L1Ball(7), solver_iterations=40)


SETS = {
    "l2": lambda: L2Ball(DIM, radius=0.7),
    "l1": lambda: L1Ball(DIM),
    "linf": lambda: LinfBall(DIM, radius=0.4),
    "lp1.5": lambda: LpBall(DIM, p=1.5),
    "lp3": lambda: LpBall(DIM, p=3.0),
    "simplex": lambda: Simplex(DIM),
    "group": lambda: GroupL1Ball(DIM, block_size=2),
    "ellipsoid": lambda: Ellipsoid(np.linspace(0.3, 1.2, DIM)),
    "polytope": _polytope,
    "projected": _projected,
}


@pytest.fixture(params=sorted(SETS))
def make_set(request):
    return SETS[request.param]


def _quadratic(seed: int = 0):
    """A PSD quadratic whose unconstrained minimizer lies far outside C."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(DIM, DIM))
    gram = a @ a.T + 0.5 * np.eye(DIM)
    cross = 3.0 * gram @ rng.normal(size=DIM)
    return gram, cross


# -- reference loops, calling the public (checked) project every iterate --


def reference_pgd(pgd, oracle, start=None):
    constraint = pgd.constraint
    if start is None:
        theta = constraint.project(np.zeros(constraint.dim))
    else:
        theta = constraint.project(np.asarray(start, dtype=float))
    iterate_sum = np.zeros_like(theta)
    for _ in range(pgd.iterations):
        theta = constraint.project(theta - pgd.step_size * oracle(theta))
        iterate_sum += theta
    return iterate_sum / pgd.iterations


def reference_fista(risk, constraint, iterations, start=None, tol=1e-12):
    step = 1.0 / risk.gradient_lipschitz()
    if start is None:
        theta = constraint.project(np.zeros(risk.dim))
    else:
        theta = np.asarray(start, float)
    momentum = theta.copy()
    t_prev = 1.0
    for _ in range(iterations):
        new_theta = constraint.project(momentum - step * risk.gradient(momentum))
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_prev * t_prev))
        momentum = new_theta + ((t_prev - 1.0) / t_next) * (new_theta - theta)
        if float(np.linalg.norm(new_theta - theta) ** 2) < tol:
            theta = new_theta
            break
        theta, t_prev = new_theta, t_next
    return theta


def reference_preimage(projected, targets):
    """The warm-started FISTA with checked projections, over a query sequence."""
    base, phi = projected.base, projected.phi
    step = 1.0 / (2.0 * float(np.linalg.norm(phi, 2)) ** 2 + 1e-12)
    theta = base.project(np.zeros(base.dim))
    results = []
    for target in targets:
        momentum = theta.copy()
        t_prev = 1.0
        for _ in range(projected.solver_iterations):
            gradient = 2.0 * phi.T @ (phi @ momentum - target)
            new_theta = base.project(momentum - step * gradient)
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_prev * t_prev))
            momentum = new_theta + ((t_prev - 1.0) / t_next) * (new_theta - theta)
            theta, t_prev = new_theta, t_next
        results.append(theta)
    return results


# -- bit-identity with the reference loops -------------------------------------


class TestBitIdentity:
    def test_noisy_pgd_matches_checked_loop(self, make_set):
        gram, cross = _quadratic()
        oracle = PrivateGradientFunction(gram, cross, error_bound=0.5)
        # Two instances: ProjectedConvexSet carries a warm start.
        mine, theirs = (
            NoisyProjectedGradient(make_set(), lipschitz=20.0, gradient_error=0.5, iterations=6)
            for _ in range(2)
        )
        expected = reference_pgd(theirs, oracle)
        assert np.array_equal(mine.run(oracle), expected)
        # A warm start (what every estimator refresh passes) too.
        start = expected + 0.05
        assert np.array_equal(mine.run(oracle, start=start), reference_pgd(theirs, oracle, start))

    def test_fista_matches_checked_loop(self, make_set):
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(40, DIM)) / math.sqrt(DIM)
        ys = 4.0 * xs @ rng.normal(size=DIM)
        risk = QuadraticRisk.from_data(xs, ys)
        mine, theirs = make_set(), make_set()
        got = fista_quadratic(risk, mine, iterations=8)
        assert np.array_equal(got, reference_fista(risk, theirs, 8))
        start = make_set().project(np.full(DIM, 0.1))
        got = fista_quadratic(risk, mine, iterations=8, start=start)
        assert np.array_equal(got, reference_fista(risk, theirs, 8, start=start))

    @pytest.mark.parametrize("base", [L1Ball(7), L2Ball(7, radius=0.5), Simplex(7)])
    def test_preimage_project_matches_checked_loop(self, base):
        phi = np.random.default_rng(5).normal(size=(DIM, 7)) / math.sqrt(DIM)
        projected = ProjectedConvexSet(phi, base, solver_iterations=30)
        targets = list(np.random.default_rng(6).normal(size=(4, DIM)) * 2.0)
        got = [projected.preimage_project(t) for t in targets]
        for mine, theirs in zip(got, reference_preimage(projected, targets)):
            assert np.array_equal(mine, theirs)

    @pytest.mark.parametrize("average", [True, False])
    def test_projected_gradient_matches_checked_loop(self, make_set, average):
        gram, cross = _quadratic(2)
        gradient = lambda theta: 2.0 * (gram @ theta - cross)  # noqa: E731
        got = projected_gradient(gradient, make_set(), 5, 0.01, average=average)
        constraint = make_set()
        theta = constraint.project(np.zeros(DIM))
        total = np.zeros(DIM)
        for _ in range(5):
            theta = constraint.project(theta - 0.01 * gradient(theta))
            total += theta
        assert np.array_equal(got, total / 5 if average else theta)

    def test_noisy_sgd_matches_checked_loop(self):
        rng = np.random.default_rng(7)
        xs = rng.normal(size=(30, DIM))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        ys = np.clip(xs @ rng.normal(size=DIM), -1.0, 1.0)
        constraint = L2Ball(DIM, radius=0.5)
        loss, params = SquaredLoss(), PrivacyParams(1.0, 1e-6)
        solver = NoisySGD(loss, constraint, params, iteration_cap=200, rng=11)
        got = solver.solve(xs, ys)

        # The reference loop, drawing from a generator with the same seed.
        n = xs.shape[0]
        steps, sigma = solver._step_count(n), solver.noise_sigma(n)
        bound = n * loss.lipschitz(0.5) + sigma * math.sqrt(DIM)
        draws = np.random.default_rng(11)
        indices = draws.integers(0, n, size=steps)
        noise = draws.normal(0.0, sigma, size=(steps, DIM))
        theta, total = constraint.project(np.zeros(DIM)), np.zeros(DIM)
        for k in range(steps):
            grad = n * loss.gradient(theta, xs[indices[k]], ys[indices[k]]) + noise[k]
            theta = constraint.project(theta - 0.5 / (bound * math.sqrt(k + 1.0)) * grad)
            total += theta
        assert np.array_equal(got, total / steps)

    @pytest.mark.parametrize(
        "constraint",
        [LinfBall(7, radius=0.6), GroupL1Ball(7, block_size=3)],
        ids=["linf", "group"],
    )
    def test_generic_lift_matches_checked_kernel(self, constraint):
        """The lifting FISTA, against the same loop with a checked kernel."""

        class Checked(type(constraint)):
            def _project(self, point):
                point = self._check_point("point", point)
                return super()._project(point).copy()

        checked = copy.copy(constraint)
        checked.__class__ = Checked
        phi = np.random.default_rng(10).normal(size=(4, 7)) / 2.0
        target = phi @ constraint.project(np.random.default_rng(11).normal(size=7))
        assert np.array_equal(lift(phi, target, constraint), lift(phi, target, checked))

    def test_l2_kernel_norm_is_numpy_norm(self):
        """``sqrt(p·p)`` must be numpy's 1-D ``linalg.norm`` bit for bit."""
        rng = np.random.default_rng(8)
        for dim in (1, 2, 7, 32, 64, 257):
            for scale in (1e-3, 1.0, 1e3):
                p = rng.normal(size=dim) * scale
                assert math.sqrt(p.dot(p)) == np.linalg.norm(p)


# -- boundary checks -----------------------------------------------------------


class _FlakyOracle:
    """A finite quadratic gradient that returns ``bad`` on one call."""

    def __init__(self, bad, at_call: int):
        self.gram, self.cross = _quadratic(9)
        self.bad, self.at_call, self.calls = bad, at_call, 0

    def __call__(self, theta):
        self.calls += 1
        if self.calls == self.at_call:
            return self.bad
        return 2.0 * (self.gram @ theta - self.cross)


BAD_ENTRIES = [np.nan, np.inf, -np.inf]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestBoundaryChecks:
    @pytest.mark.parametrize("bad_entry", BAD_ENTRIES)
    def test_non_finite_oracle_mid_run_raises(self, make_set, bad_entry):
        bad = np.zeros(DIM)
        bad[1] = bad_entry
        pgd = NoisyProjectedGradient(
            make_set(), lipschitz=20.0, gradient_error=0.5, iterations=8
        )
        with pytest.raises(ValidationError):
            pgd.run(_FlakyOracle(bad, at_call=4))

    @pytest.mark.parametrize("bad_entry", BAD_ENTRIES)
    @pytest.mark.parametrize("average", [True, False])
    def test_projected_gradient_non_finite_mid_run_raises(
        self, make_set, bad_entry, average
    ):
        bad = np.full(DIM, bad_entry)
        with pytest.raises(ValidationError):
            projected_gradient(
                _FlakyOracle(bad, at_call=3), make_set(), 6, 0.01, average=average
            )

    @pytest.mark.parametrize(
        "bad",
        [np.zeros(DIM + 1), np.zeros((DIM, DIM)), np.float64(0.0), np.full(DIM, np.nan)],
        ids=["long", "matrix", "scalar", "nan"],
    )
    def test_bad_first_oracle_output_raises(self, bad):
        pgd = NoisyProjectedGradient(L2Ball(DIM), 1.0, 0.5, iterations=5)
        with pytest.raises(ValidationError):
            pgd.run(lambda theta: bad)
        with pytest.raises(ValidationError):
            projected_gradient(lambda theta: bad, L2Ball(DIM), 5, 0.1)

    @pytest.mark.parametrize("start", [np.full(DIM, np.nan), np.zeros(DIM + 1)])
    def test_bad_start_raises(self, start):
        gram, cross = _quadratic()
        oracle = PrivateGradientFunction(gram, cross, error_bound=0.5)
        pgd = NoisyProjectedGradient(L2Ball(DIM), 1.0, 0.5, iterations=5)
        with pytest.raises(ValidationError):
            pgd.run(oracle, start=start)
        with pytest.raises(ValidationError):
            projected_gradient(oracle, L2Ball(DIM), 5, 0.1, start=start)
        risk = QuadraticRisk.from_data(np.eye(DIM), np.ones(DIM))
        with pytest.raises(ValidationError):
            fista_quadratic(risk, L2Ball(DIM), iterations=5, start=start)

    @pytest.mark.parametrize("bad_entry", BAD_ENTRIES)
    def test_kernel_keeps_non_finite_input_visible(self, make_set, bad_entry):
        """The ``_project`` contract the single output check relies on."""
        point = np.linspace(-2.0, 2.0, DIM)
        point[2] = bad_entry
        try:
            result = make_set()._project(point)
        except ValidationError:
            return
        assert not np.all(np.isfinite(result))


# -- the public project --------------------------------------------------------


class TestPublicProject:
    @pytest.mark.parametrize(
        "point",
        [
            np.array([np.nan, 0.0, 0.0, 0.0, 0.0]),
            np.array([0.0, np.inf, 0.0, 0.0, 0.0]),
            np.array([0.0, 0.0, -np.inf, 0.0, 0.0]),
            np.zeros(DIM + 1),
            np.zeros(DIM - 1),
            np.zeros((DIM, 1)),
        ],
        ids=["nan", "inf", "-inf", "long", "short", "matrix"],
    )
    def test_rejects_bad_input(self, make_set, point):
        with pytest.raises(ValidationError):
            make_set().project(point)

    @pytest.mark.parametrize("scale", [0.01, 10.0], ids=["inside", "outside"])
    def test_result_never_aliases_argument(self, make_set, scale):
        constraint = make_set()
        point = scale * np.linspace(-1.0, 1.0, DIM)
        snapshot = point.copy()
        result = constraint.project(point)
        assert not np.shares_memory(result, point)
        result[:] = 123.0
        assert np.array_equal(point, snapshot)

    def test_interpolate_toward_never_aliases(self, make_set):
        constraint = make_set()
        point = constraint.project(np.full(DIM, 0.05))
        target = constraint.project(np.full(DIM, 0.1))
        before = (point.copy(), target.copy())
        result = constraint.interpolate_toward(point, target, 0.0)
        result[:] = 7.0
        assert np.array_equal(point, before[0]) and np.array_equal(target, before[1])
        with pytest.raises(ValidationError):
            constraint.interpolate_toward(point, target, math.nan)


# -- refresh-level satellites --------------------------------------------------


class TestRefreshValidation:
    def _estimator(self) -> PrivIncReg1:
        return PrivIncReg1(
            horizon=64, constraint=L2Ball(DIM), params=PrivacyParams(4.0, 1e-6), rng=0
        )

    def test_gradient_error_is_computed_once(self):
        est = self._estimator()
        alpha = est.gradient_error()
        assert alpha == est._moment_gradient_error()
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(16, DIM))
        xs /= 2.0 * np.linalg.norm(xs, axis=1, keepdims=True)
        est.observe_batch(xs, np.full(16, 0.25))
        assert est.gradient_error() == alpha

    @pytest.mark.parametrize("which", ["gram", "cross"])
    def test_refresh_from_released_rejects_non_finite(self, which):
        est = self._estimator()
        gram, cross = np.eye(DIM), np.zeros(DIM)
        if which == "gram":
            gram[0, 1] = np.nan
        else:
            cross[3] = np.inf
        with pytest.raises(ValidationError):
            est.refresh_from_released(8, gram, cross)
        assert est.estimate_version == 0

    def test_unchecked_gradient_function_matches_checked(self):
        gram, cross = _quadratic()
        checked = PrivateGradientFunction(gram, cross, 0.3)
        trusted = PrivateGradientFunction._from_checked(gram, cross, 0.3)
        theta = np.linspace(-0.2, 0.2, DIM)
        assert np.array_equal(checked(theta), trusted(theta))
        assert (trusted.dim, trusted.error_bound) == (checked.dim, checked.error_bound)
