"""Ablation benchmarks for the library's engineering knobs.

DESIGN.md §3 documents three deviations from paper-literal execution; each
is ablated here so the cost of the engineering shortcut is measured, not
assumed:

* ``solve_every`` — amortizing Algorithm 3's PGD + lifting across a window
  (post-processing scheduling).  Ablation: risk vs cadence.
* ``iteration_cap`` — capping the Corollary-B.2 PGD iteration count in
  Algorithm 2.  Ablation: risk vs cap, including the paper's uncapped
  ``fidelity="paper"`` value.
* budget split — Algorithms 2-3 split ``(ε, δ)`` evenly between the two
  moment trees; the cross tree is ``d``-dimensional while the gram tree is
  ``d²``-dimensional, so an uneven split is a plausible alternative.
  Ablation: risk under 50/50 vs gram-favoring splits.
"""


from repro import L1Ball, L2Ball, PrivacyParams, PrivIncReg1, PrivIncReg2, SparseVectors
from repro.data import make_dense_stream, make_sparse_stream

from common import bench_budget, measure_excess, record

HORIZON = 512
DIM = 8


def test_ablation_solve_every(benchmark):
    """Algorithm 3's replay window: staleness cost should be mild."""
    dim = 24
    constraint = L1Ball(dim)
    stream = make_sparse_stream(HORIZON, dim, 3, active_dim=8, rng=42)

    def run(cadence: int) -> float:
        mech = PrivIncReg2(
            horizon=HORIZON,
            constraint=constraint,
            x_domain=SparseVectors(dim, 3),
            params=bench_budget(),
            solve_every=cadence,
            rng=0,
        )
        return measure_excess(mech, stream, constraint, eval_every=64)["mean_excess"]

    cadences = [1, 16, 128]
    results = {c: run(c) for c in cadences[:-1]}
    results[cadences[-1]] = benchmark.pedantic(
        lambda: run(cadences[-1]), rounds=1, iterations=1
    )
    for cadence in cadences:
        record(
            "ABL solve_every (Alg 3 amortization)",
            solve_every=cadence,
            mean_excess=results[cadence],
            note="staleness ≤ cadence points (τ-window argument)",
        )
    # The amortized runs must stay within a small factor of per-step solves.
    assert results[128] < 3.0 * results[1] + 5.0


def test_ablation_iteration_cap(benchmark):
    """Algorithm 2's PGD budget: the cap should cost little at this scale
    because Corollary B.2's count is itself small when noise dominates."""
    constraint = L2Ball(DIM)
    stream = make_dense_stream(HORIZON, DIM, noise_std=0.05, rng=43)

    def run(cap: int, fidelity: str = "fast") -> float:
        mech = PrivIncReg1(
            horizon=HORIZON,
            constraint=constraint,
            params=bench_budget(),
            fidelity=fidelity,
            iteration_cap=cap,
            rng=1,
        )
        return measure_excess(mech, stream, constraint, eval_every=64)["mean_excess"]

    results = {
        "cap=25": run(25),
        "cap=400": run(400),
    }
    results["paper (uncapped)"] = benchmark.pedantic(
        lambda: run(400, fidelity="paper"), rounds=1, iterations=1
    )
    for name, excess in results.items():
        record(
            "ABL iteration_cap (Alg 2 inner PGD)",
            setting=name,
            mean_excess=excess,
            note="Corollary B.2 count, capped vs paper",
        )
    # More iterations can only help (up to noise); the paper setting should
    # be within noise of the capped runs, not wildly better.
    assert results["paper (uncapped)"] < 2.0 * results["cap=400"] + 5.0


def test_ablation_budget_split(benchmark):
    """Even vs gram-favoring (ε, δ) splits between the two moment trees.

    The paper's Step 1 uses ε/2 each; this ablation measures whether the
    d²-dimensional gram tree deserves a larger share at this scale.
    """
    constraint = L2Ball(DIM)
    stream = make_dense_stream(HORIZON, DIM, noise_std=0.05, rng=44)
    total = bench_budget()

    def run(gram_fraction: float) -> float:
        # Reconstruct PrivIncReg1's internals with an uneven split by
        # running two mechanisms' worth of budget arithmetic: we emulate by
        # scaling ε; δ is split in proportion.
        class UnevenReg1(PrivIncReg1):
            def __init__(self):
                super().__init__(
                    horizon=HORIZON, constraint=constraint, params=total, rng=2
                )
                from repro.privacy.tree import TreeMechanism

                cross_share = PrivacyParams(
                    total.epsilon * (1 - gram_fraction),
                    total.delta * (1 - gram_fraction),
                )
                gram_share = PrivacyParams(
                    total.epsilon * gram_fraction, total.delta * gram_fraction
                )
                self._tree_cross = TreeMechanism(
                    HORIZON, (DIM,), 2.0, cross_share, rng=2
                )
                self._tree_gram = TreeMechanism(
                    HORIZON, (DIM, DIM), 2.0, gram_share, rng=3
                )
                self._alpha = self._moment_gradient_error()

        mech = UnevenReg1()
        return measure_excess(mech, stream, constraint, eval_every=64)["mean_excess"]

    even = run(0.5)
    gram_heavy = benchmark.pedantic(lambda: run(0.75), rounds=1, iterations=1)
    record(
        "ABL tree budget split (Alg 2 Step 1)",
        split="even (paper: ε/2 each)",
        mean_excess=even,
        note="",
    )
    record(
        "ABL tree budget split (Alg 2 Step 1)",
        split="gram-favoring (75/25)",
        mean_excess=gram_heavy,
        note="gram tree is d²-dim; favoring it is a plausible alternative",
    )
    # No hard winner expected; both must be in the same regime.
    assert gram_heavy < 5.0 * even + 5.0
