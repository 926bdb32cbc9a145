"""The stacked PGD refresh: one ``(k, d)`` solve per shared-Gram group.

``MultiTenantStream`` solves every tenant that shares a γ group and a
coverage in one :class:`NoisyProjectedGradient` loop over a ``(k, d)``
stack of iterates.  These tests pin that the stack changes nothing a
tenant can see:

* the group refresh is ``np.array_equal`` to per-tenant
  ``PrivIncReg1.refresh_from_released``, for warm starts inside the ball,
  on its boundary and just outside it;
* through the front, mid-stream tenants and separate γ groups form their
  own groups and every publish matches a per-tenant reference refresh;
* bad moments or a non-finite solve raise :class:`ValidationError` before
  any tenant's θ or version changes, and a wrong-shaped oracle output
  raises instead of broadcasting;
* ``ConvexSet._project_rows`` is per-row ``_project`` for every shipped
  set, keeping non-finite rows non-finite.

The front-level tests honor the ``SERVE_TRANSPORT`` / ``SERVE_TENANTS``
axes of the serving CI matrix.
"""

import copy
import math
import os

import numpy as np
import pytest

from repro import (
    L2Ball,
    MultiTenantStream,
    NoisyProjectedGradient,
    PrivacyParams,
    PrivateGradientFunction,
    PrivIncReg1,
)
from repro.data import make_dense_stream
from repro.exceptions import ValidationError
from repro.streaming.tenancy import _merge_slot
from test_solver_hot_path import BAD_ENTRIES, DIM, SETS

PARAMS = PrivacyParams(4.0, 1e-6)
HORIZON = 4096

TENANTS = int(os.environ.get("SERVE_TENANTS", "4"))
TRANSPORT = os.environ.get("SERVE_TRANSPORT", "thread")


@pytest.fixture(params=sorted(SETS))
def make_set(request):
    return SETS[request.param]


def _solvers(k: int, dim: int, **knobs) -> list[PrivIncReg1]:
    knobs = {"iteration_cap": 60, **knobs}
    ball = L2Ball(dim)  # one shared set object, as on the serving front
    return [PrivIncReg1(HORIZON, ball, PARAMS, rng=100 + i, **knobs) for i in range(k)]


def _moments(k: int, dim: int, seed: int = 0):
    """A noisy released Gram (not symmetric) and ``k`` noisy crosses."""
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(300, dim)) / math.sqrt(dim)
    gram = xs.T @ xs + rng.normal(scale=2.0, size=(dim, dim))
    crosses = xs.T @ rng.normal(size=(300, k)) + rng.normal(scale=2.0, size=(dim, k))
    return gram, crosses.T.copy()


def _warm_starts(k: int, dim: int, where: str) -> np.ndarray:
    """Row ``i`` inside the unit ball, on its boundary, or just outside."""
    directions = np.random.default_rng(7).normal(size=(k, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    scale = {"inside": 0.3, "boundary": 1.0, "outside": 1.0 + 1e-9}[where]
    return directions * scale


def _snapshot(solvers):
    return [(s.current_estimate(), s.estimate_version) for s in solvers]


def _assert_unchanged(solvers, before):
    for solver, (theta, version) in zip(solvers, before):
        assert np.array_equal(solver.current_estimate(), theta)
        assert solver.estimate_version == version


# ---------------------------------------------------------------------------
# The group refresh equals per-tenant refreshes
# ---------------------------------------------------------------------------


class TestGroupRefreshMatchesPerTenant:
    @pytest.mark.parametrize("where", ["inside", "boundary", "outside"])
    @pytest.mark.parametrize("dim", [1, 7, 32, 64])
    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_bit_identical_to_refresh_from_released(self, k, dim, where):
        group = _solvers(k, dim)
        for solver, start in zip(group, _warm_starts(k, dim, where)):
            solver._theta = start.copy()
        alone = copy.deepcopy(group)
        # Two refreshes: the second warm-starts from the first's output.
        for t, seed in ((300, 1), (512.5, 2)):
            gram, crosses = _moments(k, dim, seed)
            thetas = PrivIncReg1.refresh_group_from_released(group, t, gram, crosses)
            assert thetas.shape == (k, dim)
            for i, solver in enumerate(alone):
                expected = solver.refresh_from_released(t, gram, crosses[i])
                assert np.array_equal(thetas[i], expected)
                assert np.array_equal(group[i].current_estimate(), expected)
                assert group[i].estimate_version == solver.estimate_version

    def test_runs_one_pgd_loop_per_group(self, monkeypatch):
        calls = []
        run = NoisyProjectedGradient.run

        def counting_run(self, oracle, start=None):
            calls.append(np.shape(start))
            return run(self, oracle, start)

        monkeypatch.setattr(NoisyProjectedGradient, "run", counting_run)
        gram, crosses = _moments(8, 5)
        PrivIncReg1.refresh_group_from_released(_solvers(8, 5), 64, gram, crosses)
        PrivIncReg1.refresh_group_from_released(_solvers(1, 5), 64, gram, crosses[:1])
        # k = 1 keeps the single-estimate (d,) loop.
        assert calls == [(8, 5), (5,)]

    def test_refuses_solvers_sized_differently(self):
        group = _solvers(1, 4) + _solvers(1, 4, iteration_cap=61)
        gram, crosses = _moments(2, 4)
        with pytest.raises(ValidationError, match="share"):
            PrivIncReg1.refresh_group_from_released(group, 64, gram, crosses)


# ---------------------------------------------------------------------------
# Atomicity and the loop's boundary checks
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore:(invalid value|overflow):RuntimeWarning")
class TestGroupRefreshIsAtomic:
    @pytest.mark.parametrize("bad_entry", BAD_ENTRIES)
    @pytest.mark.parametrize("which", ["gram", "cross"])
    def test_non_finite_moments_change_nothing(self, which, bad_entry):
        group = _solvers(3, 4)
        gram, crosses = _moments(3, 4)
        PrivIncReg1.refresh_group_from_released(group, 64, gram, crosses)
        before = _snapshot(group)
        if which == "gram":
            gram[1, 2] = bad_entry
        else:
            crosses[2, 0] = bad_entry  # only the last tenant's cross
        with pytest.raises(ValidationError):
            PrivIncReg1.refresh_group_from_released(group, 128, gram, crosses)
        _assert_unchanged(group, before)

    def test_non_finite_solve_changes_nothing(self):
        group = _solvers(3, 4)
        gram, crosses = _moments(3, 4)
        PrivIncReg1.refresh_group_from_released(group, 64, gram, crosses)
        before = _snapshot(group)
        # Finite moments whose symmetrized Gram overflows: the solve goes
        # non-finite and its own checks must raise before any write-back.
        with pytest.raises(ValidationError):
            PrivIncReg1.refresh_group_from_released(
                group, 128, np.full((4, 4), 1e308), crosses
            )
        _assert_unchanged(group, before)

    @pytest.mark.parametrize("bad_entry", BAD_ENTRIES)
    def test_non_finite_oracle_mid_run_raises(self, bad_entry):
        calls = []

        def oracle(theta):
            calls.append(None)
            gradient = theta - 3.0
            if len(calls) == 3:
                gradient[1, 0] = bad_entry
            return gradient

        pgd = NoisyProjectedGradient(L2Ball(4), 1.0, 0.5, iterations=6)
        with pytest.raises(ValidationError, match="iterate average"):
            pgd.run(oracle, start=np.zeros((3, 4)))

    @pytest.mark.parametrize("shape", ["row", "extra-row", "transposed"])
    def test_wrong_shaped_oracle_output_raises(self, shape):
        k, dim = 3, 4
        pgd = NoisyProjectedGradient(L2Ball(dim), 1.0, 0.5, iterations=5)
        bad = {
            "row": np.zeros(dim),
            "extra-row": np.zeros((k + 1, dim)),
            "transposed": np.zeros((dim, k)),
        }[shape]
        with pytest.raises(ValidationError, match="shape"):
            pgd.run(lambda theta: bad, start=np.zeros((k, dim)))

    @pytest.mark.parametrize("bad", ["nan", "wide"])
    def test_stacked_oracle_rejects_bad_crosses(self, bad):
        gram, crosses = _moments(3, 4)
        if bad == "nan":
            crosses[1, 2] = np.nan
        else:
            crosses = np.zeros((3, 5))
        with pytest.raises(ValidationError):
            PrivateGradientFunction(gram, crosses, error_bound=0.5)

    def test_stacked_oracle_at_a_single_point_raises(self):
        gram, crosses = _moments(3, 4)
        oracle = PrivateGradientFunction(gram, crosses, error_bound=0.5)
        pgd = NoisyProjectedGradient(L2Ball(4), 1.0, 0.5, iterations=5)
        with pytest.raises(ValidationError, match="shape"):
            pgd.run(oracle, start=np.zeros(4))

    @pytest.mark.parametrize("bad_entry", BAD_ENTRIES)
    def test_non_finite_stacked_start_raises(self, bad_entry):
        start = np.zeros((3, 4))
        start[1, 1] = bad_entry
        pgd = NoisyProjectedGradient(L2Ball(4), 1.0, 0.5, iterations=5)
        with pytest.raises(ValidationError):
            pgd.run(lambda theta: theta, start=start)


# ---------------------------------------------------------------------------
# The stacked loop and the row projection on every shipped set
# ---------------------------------------------------------------------------


class TestProjectRows:
    @pytest.mark.parametrize("name", sorted(n for n in SETS if n != "projected"))
    def test_stacked_pgd_matches_per_row_runs(self, name):
        constraint = SETS[name]()
        k = 4
        gram, crosses = _moments(k, DIM, seed=5)
        gram = 0.5 * (gram + gram.T)
        pgd = NoisyProjectedGradient(constraint, 40.0, 0.5, iterations=25)
        starts = 2.0 * np.random.default_rng(6).normal(size=(k, DIM))
        stacked = pgd.run(PrivateGradientFunction(gram, crosses, 0.5), start=starts)
        for i in range(k):
            alone = pgd.run(PrivateGradientFunction(gram, crosses[i], 0.5), start=starts[i])
            assert np.array_equal(stacked[i], alone)

    def test_projection_with_memory_refreshes_in_order(self):
        """A warm-started projection cannot be stacked without reordering
        its queries, so the group refresh solves its tenants in turn."""
        constraint = SETS["projected"]()
        assert constraint._projection_has_memory
        group = [
            PrivIncReg1(HORIZON, constraint, PARAMS, iteration_cap=15, rng=100 + i)
            for i in range(3)
        ]
        alone = copy.deepcopy(group)  # one copied constraint, shared in turn
        gram, crosses = _moments(3, DIM, seed=8)
        thetas = PrivIncReg1.refresh_group_from_released(group, 300, gram, crosses)
        for i, solver in enumerate(alone):
            assert np.array_equal(thetas[i], solver.refresh_from_released(300, gram, crosses[i]))

    @pytest.mark.parametrize("k", [1, 3, 9])
    def test_matches_per_row_project(self, make_set, k):
        constraint = make_set()
        twin = copy.deepcopy(constraint)  # same warm start, if the set keeps one
        rng = np.random.default_rng(k)
        points = rng.normal(size=(k, DIM)) * rng.uniform(0.01, 5.0, size=(k, 1))
        points[0] = 0.0
        original = points.copy()
        rows = constraint._project_rows(points)
        assert rows.shape == (k, DIM)
        for point, row in zip(original, rows):
            assert np.array_equal(row, twin._project(point.copy()))
        assert np.array_equal(points, original)  # never writes its input

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad_entry", BAD_ENTRIES)
    def test_non_finite_rows_stay_non_finite(self, make_set, bad_entry):
        constraint = make_set()
        twin = copy.deepcopy(constraint)
        points = np.random.default_rng(2).normal(size=(3, DIM))
        points[1, 3] = bad_entry
        try:
            rows = constraint._project_rows(points)
        except ValidationError:
            return
        assert not np.all(np.isfinite(rows[1]))
        assert np.array_equal(rows[0], twin._project(points[0].copy()))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("dim", [1, 7, 32, 64])
    def test_l2_rows_match_per_row_norms(self, dim):
        """Including non-finite rows: a NaN or inf row comes out exactly
        as ``_project`` leaves it (all NaN, or NaN where inf was)."""
        ball = L2Ball(dim, radius=0.8)
        rng = np.random.default_rng(dim)
        points = rng.normal(size=(50, dim)) * rng.uniform(0.1, 3.0, size=(50, 1))
        points[3, 0], points[7, -1], points[9, 0] = np.nan, np.inf, -np.inf
        rows = ball._project_rows(points)
        for point, row in zip(points, rows):
            assert np.array_equal(row, ball._project(point.copy()), equal_nan=True)


# ---------------------------------------------------------------------------
# Through the front: groups, mid-stream tenants, γ groups
# ---------------------------------------------------------------------------


def _per_tenant_refresh(self):
    """The front's refresh before stacking: one solve per tenant, in slot
    order, against its group's Gram rescaled to its own coverage."""
    handles = [self._released_handles(shard) for shard in self._shards]
    grams = {g: _merge_slot(handles, 1, gi) for gi, g in enumerate(self.decays)}
    for j, (name, solver) in enumerate(self._solvers.items()):
        cross = _merge_slot(handles, 0, j)
        covered = cross.covered_steps
        if covered == 0:
            continue
        gram = grams[self._tenant_decays[name]]
        gram_value = gram.value
        weight = cross.covered_weight
        if weight != gram.covered_weight:
            gram_value = gram_value * (weight / gram.covered_weight)
        t_solve = weight if weight != covered else covered
        theta = solver.refresh_from_released(t_solve, gram_value, cross.value)
        self._views[name]._hub.publish(
            theta, solver.estimate_version, timestep=self._processed, covered_steps=covered
        )
    self._last_refresh_t = self._processed


FRONT_T = 96
FRONT_DIM = 5


def _front(seed, **kwargs):
    defaults = dict(horizon=FRONT_T, iteration_cap=30, refresh_every=16, transport=TRANSPORT)
    defaults.update(kwargs)
    return MultiTenantStream(L2Ball(FRONT_DIM), PARAMS, shards=2, rng=seed, **defaults)


def _record(front, log):
    for name in front.tenants():
        if name not in log:
            log[name] = []
            front.tenant(name).subscribe(
                lambda e, entries=log[name]: entries.append((e.version, e.theta))
            )


def _drive(front, late=(), add_at=48):
    """Feed the horizon in blocks of 8, adding ``late`` tenants at ``add_at``;
    return every tenant's publishes and the flushed estimates."""
    data = make_dense_stream(FRONT_T, FRONT_DIM, noise_std=0.05, rng=3)
    outcomes = np.clip(
        np.random.default_rng(4).normal(scale=0.5, size=(FRONT_T, 8)), -1.0, 1.0
    )
    log = {}
    _record(front, log)
    try:
        for s in range(0, FRONT_T, 8):
            if s == add_at:
                for name, decay in late:
                    front.add_tenant(name, decay=decay)
                _record(front, log)
            k = len(front.tenants())
            front.observe_batch(data.xs[s : s + 8], outcomes[s : s + 8, :k])
        served = front.flush()
    finally:
        front.close()
    return log, served


def _assert_same_service(stacked, reference):
    (log, served), (ref_log, ref_served) = stacked, reference
    assert log.keys() == ref_log.keys() == served.keys() == ref_served.keys()
    for name in log:
        assert len(log[name]) == len(ref_log[name]) > 1
        for (version, theta), (ref_version, ref_theta) in zip(log[name], ref_log[name]):
            assert version == ref_version
            assert np.array_equal(theta, ref_theta)
        assert served[name].version == ref_served[name].version
        assert np.array_equal(served[name].theta, ref_served[name].theta)


@pytest.fixture
def group_sizes(monkeypatch):
    sizes = []
    refresh = PrivIncReg1.refresh_group_from_released

    def spy(solvers, t, noisy_gram, noisy_crosses):
        sizes.append(len(solvers))
        return refresh(solvers, t, noisy_gram, noisy_crosses)

    monkeypatch.setattr(PrivIncReg1, "refresh_group_from_released", staticmethod(spy))
    return sizes


class TestFrontGroups:
    def test_one_group_per_refresh(self, group_sizes):
        stacked = _drive(_front(11, tenants=TENANTS))
        # Every refresh solves all tenants in one group.
        assert group_sizes == [TENANTS] * (FRONT_T // 16)
        reference = _front(11, tenants=TENANTS)
        reference._refresh = _per_tenant_refresh.__get__(reference)
        _assert_same_service(stacked, _drive(reference))

    def test_mid_stream_tenants_and_gamma_groups(self, group_sizes):
        knobs = dict(
            tenants=["a", "b", "c", "d"],
            tenant_capacity=6,
            decays=(1.0, 0.9),
            tenant_decays=(1.0, 0.9, 1.0, 0.9),
        )
        late = (("late", 1.0), ("late-0.9", 0.9))
        stacked = _drive(_front(13, **knobs), late=late)
        # Before the adds: one group per γ.  After: each late tenant
        # covers less than the Gram and forms its own group.
        refreshes = FRONT_T // 16
        assert group_sizes == [2, 2] * (refreshes // 2) + [2, 2, 1, 1] * (refreshes // 2)
        reference = _front(13, **knobs)
        reference._refresh = _per_tenant_refresh.__get__(reference)
        _assert_same_service(stacked, _drive(reference, late=late))
