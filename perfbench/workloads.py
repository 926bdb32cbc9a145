"""Workloads of the serving benchmark, and the episode loop that measures them.

A run of one workload is a sequence of *episodes*.  Each episode builds a
fresh serving front (timed: the set-up), streams one horizon of ``T``
points into it from a single producer thread, flushes, checks the
outputs, measures quiescent reads, and closes the front.  Episodes repeat
until the measured time (first submit to flush return, summed) reaches
the requested seconds and every reported percentile has at least ten
samples beyond it.  Episode ``e`` of seed ``s`` draws its stream and its
front generator from ``SeedSequence([s, 0, e])``, so a seed fixes every
input and the excess risk.  The bounded timings are scaled to a nominal
host by two reference loops timed beside each episode (``host_slowdown``).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import L2Ball, MultiTenantStream, PrivacyParams, ShardedStream
from repro.data import make_dense_stream
from repro.erm.solvers import exact_least_squares
from repro.exceptions import ReproError

from tracing import FANOUT, FRONT, MERGE, PGD, PROJECT, PUBLISH, RELEASE, SOLVE
from tracing import STATISTIC, WIRE, Tracer

#: The serving budget (the elevated ε the repo's serving benchmarks use,
#: so that T·ε sits in the informative regime at these horizons).
PARAMS = PrivacyParams(16.0, 1e-6)
SHARDS = 2
#: Front constructions timed at the start of a run, beside one per episode.
SETUP_REPEATS = 9
#: Quiescent ``current_estimate()`` calls timed per episode.
READS = 20_000
#: Samples a run gathers at least, so that call_p99 and visible_p90 each
#: have ten samples beyond them.
MIN_CALLS = 1000
MIN_PUBLISHES = 100
#: A run never extends past this wall time to gather samples.
WALL_CAP_S = 150.0
#: The open-loop producer sleeps until this long before a block is due
#: and spins the rest: waking a virtual machine's idle CPU from a timer
#: costs a latency that follows the host's load, not the program.
SPIN_S = 0.001
#: How long a run waits for ``close()`` before leaving it to finish in the
#: background.  A front that self-hosts its tcp listener takes 5 s to close
#: (the listener's accept thread is never woken, so its bounded join times
#: out); waiting for it would spend most of a run asleep.
CLOSE_WAIT_S = 0.05
#: Sizes of the two host-speed reference loops, and their times on the
#: nominal host in which the bounded timings are reported (see ``host_slowdown``).
REF_SOLVE_ITERS = 300
REF_RELEASE_DRAWS = 2
REF_NOMINAL_S = (0.001, 0.0012)
_REF_MATRIX = np.random.default_rng(0).normal(size=(32, 32)) / 8
_REF_RNG = np.random.default_rng(1)
_REF_BUFFER = np.zeros((33, 1024))


@dataclass(frozen=True)
class Workload:
    """One traffic mix; why each exists is in ``BENCHMARK.json``."""

    name: str
    dim: int
    block: int
    #: Points per episode (the front's horizon).
    horizon: int
    #: Constructor knobs of the front, beyond constraint/budget/shards.
    options: dict
    #: Episodes whose excess risk is averaged (a fixed count, so the
    #: metric is a function of the seed alone).
    utility_episodes: int
    #: Open-loop offered rate in points/s; ``None`` is a closed loop.
    offered_rate: float | None = None
    #: Outcome columns (``MultiTenantStream`` tenants); 0 = ``ShardedStream``.
    tenants: int = 0
    #: Whether the final θ must equal a synchronous thread-transport replay.
    replay_check: bool = False
    #: Weight of the release-like reference loop in ``host_slowdown``: the
    #: release's share of the solve and release time in the traced split
    #: (``perfbench/README.md``), rounded to a tenth.
    release_share: float = 0.1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "refresh-bound",
            dim=32, block=64, horizon=8192,
            options=dict(transport="thread", backend="moment", ingest="fast"),
            utility_episodes=80,
        ),
        Workload(
            "release-bound",
            dim=32, block=64, horizon=4096,
            options=dict(transport="thread", ingest="exact", refresh_every=4096),
            utility_episodes=16,
            release_share=1.0,
        ),
        Workload(
            "remote-async",
            dim=64, block=256, horizon=8192,
            options=dict(transport="tcp", mode="async", ingest="fast"),
            # 100 blocks/s: below the rate the async tcp front sustains,
            # and 2000 calls (two p99 windows) per 20 s run.
            offered_rate=25_600.0,
            utility_episodes=48,
            replay_check=True,
            release_share=0.2,
        ),
        Workload(
            "tenants",
            dim=32, block=64, horizon=8192,
            options=dict(transport="thread", ingest="fast", refresh_every=256),
            tenants=8,
            utility_episodes=20,
        ),
    )
}


# ----------------------------------------------------------------------
# Inputs and fronts
# ----------------------------------------------------------------------


def episode_inputs(w: Workload, seed: int, episode: int):
    """``(xs, ys, front_seed)`` of one episode; ``ys`` is ``(T, k)`` for tenants."""
    data_seed, front_seed, theta_seed = (
        int(s) for s in np.random.SeedSequence([seed, 0, episode]).generate_state(3)
    )
    stream = make_dense_stream(w.horizon, w.dim, rng=data_seed)
    if not w.tenants:
        return stream.xs, stream.ys, front_seed
    # Every tenant sees the same covariates (one draw from data_seed) and
    # its own ground truth.
    directions = np.random.default_rng(theta_seed).normal(size=(w.tenants - 1, w.dim))
    columns = [stream.ys]
    for direction in directions:
        theta = direction / np.linalg.norm(direction)
        columns.append(
            make_dense_stream(w.horizon, w.dim, theta_star=theta, rng=data_seed).ys
        )
    return stream.xs, np.column_stack(columns), front_seed


def build_front(w: Workload, front_seed: int, **overrides):
    options = {**w.options, **overrides}
    if w.tenants:
        return MultiTenantStream(
            L2Ball(w.dim), PARAMS, w.tenants, SHARDS,
            horizon=w.horizon, rng=front_seed, **options,
        )
    return ShardedStream(
        L2Ball(w.dim), PARAMS, SHARDS, horizon=w.horizon, rng=front_seed, **options
    )


def served_estimates(front) -> list:
    """Every served estimate of the front (one per tenant)."""
    if isinstance(front, MultiTenantStream):
        return [front.tenant(name).current_served() for name in front.tenants()]
    return [front.current_served()]


def expected_refreshes(w: Workload) -> int:
    """Solves the front's documented schedule runs over one episode + flush.

    A refresh runs when the processed count crosses a multiple of
    ``refresh_every`` (every block when unset) or reaches the horizon.
    """
    every = w.options.get("refresh_every")
    count = last = processed = 0
    for start in range(0, w.horizon, w.block):
        processed = min(start + w.block, w.horizon)
        if every is None or processed >= w.horizon or processed // every > last // every:
            count += 1
            last = processed
    return count + (processed > last)


def _risk(xs, ys, theta) -> float:
    residual = ys - xs @ theta
    return float(residual @ residual)


def excess_risk(xs, ys, thetas) -> float:
    """Mean over outcome columns of (F(θ) − min_C F)/T."""
    ys = ys.reshape(len(xs), -1)
    constraint = L2Ball(xs.shape[1])
    total = 0.0
    for column, theta in zip(ys.T, thetas):
        best = exact_least_squares(xs, column, constraint)
        total += (_risk(xs, column, theta) - _risk(xs, column, best)) / len(xs)
    return total / len(thetas)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------


def host_ref_s() -> tuple[float, float]:
    """Wall times of two fixed loops that touch no code of the program.

    They do the two kinds of work the serving path spends its time on:
    interpreter dispatch around numpy calls on 32-wide operands (the
    solve), and bulk Gaussian draws with a cumulative sum over a block of
    flattened 32×32 Grams (the release).
    """
    v = np.ones(_REF_MATRIX.shape[0])
    slots = {}
    t0 = time.perf_counter()
    for i in range(REF_SOLVE_ITERS):
        v = _REF_MATRIX @ v
        v = v / (np.linalg.norm(v) + 1.0)
        slots[i & 15] = float(v[i & 31])
    t1 = time.perf_counter()
    for _ in range(REF_RELEASE_DRAWS):
        _REF_BUFFER[1:] = _REF_RNG.normal(size=_REF_BUFFER[1:].shape)
        np.cumsum(_REF_BUFFER, axis=0)
    return t1 - t0, time.perf_counter() - t1


def host_slowdown(w: Workload) -> float:
    """How much slower than the nominal host this host runs ``w``'s work now.

    On a shared virtual machine the speed of the program follows the
    neighbours' load: it was seen to drift by a third within seconds and
    to halve between hours, and work of the two kinds above slows by
    different amounts.  The slowdown is the mean of the two reference
    loops' times over their nominal ones, weighted by ``w.release_share``.
    Each bounded timing is divided by the slowdown measured beside it, so
    that it reads as on the nominal host.  A change to the program leaves
    the loops alone and moves the scaled figure in full.
    """
    solve, release = (t / n for t, n in zip(host_ref_s(), REF_NOMINAL_S))
    return (1 - w.release_share) * solve + w.release_share * release


# ----------------------------------------------------------------------
# One episode
# ----------------------------------------------------------------------


@dataclass
class Episode:
    setup_s: float = 0.0
    start: float = 0.0
    end: float = 0.0
    calls_ms: list = field(default_factory=list)
    visible_ms: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    read_ops_per_s: float = 0.0
    excess_risk: float | None = None
    state_floats: int = 0
    backlog_max: int = 0
    blocks: int = 0
    blocks_failed: int = 0
    checks: dict = field(default_factory=dict)
    #: Mean ``host_slowdown`` just before the set-up and just after the flush.
    slowdown: float = 1.0

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def failed(self) -> int:
        return self.blocks_failed + sum(not ok for ok in self.checks.values())

    @property
    def attempted(self) -> int:
        return self.blocks + len(self.checks)


def close_front(front, closing: list) -> None:
    """Close ``front``; past ``CLOSE_WAIT_S`` add its closer to ``closing``."""
    closer = threading.Thread(target=front.close, name="perfbench-close")
    closer.start()
    closer.join(CLOSE_WAIT_S)
    if closer.is_alive():
        closing.append(closer)


def run_episode(w: Workload, seed: int, index: int, *, utility: bool, closing: list,
                tracer: Tracer | None = None, fault=None) -> Episode:
    """Stream one horizon through a fresh front; time it and check it.

    ``tracer``, when given, records spans between the first submit and the
    flush return only.  ``fault(front, block_index)``, when given, runs
    after each block (the self-test plants a shard kill through it).
    """
    xs, ys, front_seed = episode_inputs(w, seed, index)
    b = w.block
    blocks = [(xs[i : i + b], ys[i : i + b]) for i in range(0, w.horizon, b)]
    ep = Episode(blocks=len(blocks))
    perf = time.perf_counter

    slowdown_before = host_slowdown(w)
    t0 = perf()
    front = build_front(w, front_seed)
    ep.setup_s = perf() - t0
    try:
        seen: list = []

        def on_publish(entry, seen=seen):
            seen.append((perf(), entry.timestep))

        if w.tenants:
            subscriptions = [front.tenant(n).subscribe(on_publish) for n in front.tenants()]
        else:
            subscriptions = [front.subscribe(on_publish)]
        due = np.empty(len(blocks))
        interval = None if w.offered_rate is None else b / w.offered_rate
        if tracer is not None:
            tracer.install()
        ep.start = perf()
        try:
            _produce(front, blocks, due, interval, ep, fault)
        finally:
            ep.end = perf()
            if tracer is not None:
                tracer.uninstall()
        ep.slowdown = (slowdown_before + host_slowdown(w)) / 2
        for subscription in subscriptions:
            subscription.unsubscribe()
        for when, timestep in seen:
            if timestep > 0:
                ep.visible_ms.append((when - due[math.ceil(timestep / b) - 1]) * 1e3)

        served = served_estimates(front)
        _check(w, front, served, ep)
        if w.replay_check:
            ep.checks["replay_bit_identical"] = all(
                np.array_equal(s.theta, r.theta)
                for s, r in zip(served, _replay(w, front_seed, blocks))
            )
        ep.state_floats = front.memory_floats()
        read = (front.tenant(front.tenants()[0]) if w.tenants else front).current_estimate
        t0 = perf()
        for _ in range(READS):
            read()
        ep.read_ops_per_s = READS / (perf() - t0)
    finally:
        close_front(front, closing)
    if utility:
        ep.excess_risk = excess_risk(xs, ys, [s.theta for s in served])
    return ep


def _produce(front, blocks, due, interval, ep: Episode, fault) -> None:
    """The single producer: submit every block, then flush.

    Closed loop (``interval`` is ``None``): a block is due when the
    previous call returned.  Open loop: block ``i`` is due at
    ``start + i·interval`` whatever the front does, and its latencies are
    timed from that due time.
    """
    perf = time.perf_counter
    ready = ep.start
    for i, (bx, by) in enumerate(blocks):
        if interval is None:
            due[i] = ready
        else:
            due[i] = ep.start + i * interval
            delay = due[i] - perf() - SPIN_S
            if delay > 0:
                time.sleep(delay)
            while perf() < due[i]:
                pass
        sent = perf()
        try:
            front.observe_batch(bx, by)
        except ReproError:
            ep.blocks_failed += 1
        ready = perf()
        ep.calls_ms.append((ready - sent) * 1e3)
        ep.late_ms.append((sent - due[i]) * 1e3)
        ep.backlog_max = max(ep.backlog_max, front.steps_enqueued - front.steps_ingested)
        if fault is not None:
            fault(front, i)
    try:
        front.flush()
    except ReproError:
        ep.checks["flush"] = False


def _check(w: Workload, front, served, ep: Episode) -> None:
    """The output checks every episode counts into failed_frac."""
    T = w.horizon
    checks = ep.checks
    checks["all_points_ingested"] = (
        front.steps_ingested == T
        and front.steps_enqueued == T
        and getattr(front, "blocks_refunded", 0) == 0
        and front.lost_steps == 0
        and all(s.timestep == T and s.covered_steps == T for s in served)
    )
    spent = front.accountant.spent()
    checks["budget_charged"] = math.isclose(
        spent.epsilon, PARAMS.epsilon, rel_tol=1e-12
    ) and math.isclose(spent.delta, PARAMS.delta, rel_tol=1e-12)
    ball = L2Ball(w.dim)
    checks["theta_in_constraint"] = all(ball.contains(s.theta) for s in served)
    expected = expected_refreshes(w)
    checks["estimate_version"] = all(s.version == expected for s in served)


def _replay(w: Workload, front_seed: int, blocks) -> list:
    """Final estimates of an untimed synchronous thread-transport twin."""
    twin = build_front(w, front_seed, transport="thread", mode="sync")
    try:
        for bx, by in blocks:
            twin.observe_batch(bx, by)
        twin.flush()
        return served_estimates(twin)
    finally:
        twin.close()


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def _percentile(values, q: float) -> float:
    """The ``q``-th percentile, robust to bursts of host interference.

    Samples are cut, in arrival order, into the fewest-sample windows
    that still hold ten samples beyond the percentile (1000 for p99, 100
    for p90); the result is the median over windows of each window's
    percentile.  A burst that stalls fewer than half the windows cannot
    move it.
    """
    values = np.asarray(values, dtype=float)
    window = math.ceil(10 / (1 - q / 100))
    count = max(1, len(values) // window)
    return _median([np.percentile(part, q) for part in np.array_split(values, count)])


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def time_setups(w: Workload, seed: int, repeats: int, closing: list) -> list[tuple]:
    """``(constructor time, host_slowdown)`` of ``repeats`` fronts built and closed unused."""
    times = []
    for r in range(repeats):
        front_seed = int(np.random.SeedSequence([seed, 1, r]).generate_state(1)[0])
        slowdown = host_slowdown(w)
        t0 = time.perf_counter()
        front = build_front(w, front_seed)
        times.append((time.perf_counter() - t0, slowdown))
        close_front(front, closing)
    return times


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, *, fault=None) -> dict:
    """Measure one workload; return metrics, sample counts and check totals.

    With ``trace`` the episodes alternate untraced and traced, and the
    result carries the per-layer metrics; otherwise the end-to-end ones.
    """
    closing: list[threading.Thread] = []
    setups = time_setups(w, seed, SETUP_REPEATS, closing)
    plain: list[Episode] = []
    traced: list[Episode] = []
    tracer = Tracer() if trace else None
    began = time.perf_counter()
    measured = 0.0
    index = 0
    while time.perf_counter() - began < WALL_CAP_S:
        if (
            measured >= seconds
            and len(traced) >= (2 if trace else 0)
            and len(plain) >= (0 if trace else w.utility_episodes)
            and sum(len(e.calls_ms) for e in plain) >= MIN_CALLS
            and sum(len(e.visible_ms) for e in plain) >= MIN_PUBLISHES
        ):
            break
        on = trace and index % 2 == 1
        ep = run_episode(
            w, seed, index,
            utility=not trace and len(plain) < w.utility_episodes,
            closing=closing,
            tracer=tracer if on else None,
            fault=fault,
        )
        (traced if on else plain).append(ep)
        measured += ep.wall_s
        index += 1
    for closer in closing:
        closer.join()

    episodes = plain + traced
    result = {
        "attempted": sum(e.attempted for e in episodes),
        "failed": sum(e.failed for e in episodes),
        "failed_checks": sorted(
            {name for e in episodes for name, ok in e.checks.items() if not ok}
        ),
        "episodes": len(episodes),
        "measured_s": measured,
    }
    result["failed_frac"] = result["failed"] / result["attempted"]
    # No regression bound holds on these: every run prints them, and traced
    # runs report them with the per-layer metrics.
    unbounded = _unsteady(plain)
    unbounded["failed_frac"] = (result["failed_frac"], "frac", result["attempted"])
    setups += [(e.setup_s, e.slowdown) for e in plain]
    if trace:
        result["metrics"] = {**_layer_metrics(tracer, plain, traced), **unbounded}
        result["also"] = _unscaled(w, plain, setups)
    else:
        result["metrics"] = _end_to_end(w, plain, setups)
        result["also"] = {**unbounded, **_unscaled(w, plain, setups)}
    return result


def _end_to_end(w: Workload, episodes: list[Episode], setups: list[tuple]) -> dict:
    """``name -> (value, unit, samples)`` for the end-to-end metrics.

    Timings are scaled to the nominal host, each by the ``host_slowdown``
    measured beside it.  An open loop's ingest rate is the offered rate's,
    not the host's, so it is not scaled.
    """
    closed = w.offered_rate is None
    calls = [c / e.slowdown for e in episodes for c in e.calls_ms]
    visible = [v / e.slowdown for e in episodes for v in e.visible_ms]
    utility = [e.excess_risk for e in episodes if e.excess_risk is not None]
    return {
        "setup_s": (_median([s / slowdown for s, slowdown in setups]), "s", len(setups)),
        "ingest_pts_per_s": (
            _median([w.horizon / e.wall_s * (e.slowdown if closed else 1.0)
                     for e in episodes]),
            "pts/s", len(episodes),
        ),
        "call_p50_ms": (_percentile(calls, 50), "ms", len(calls)),
        "visible_p50_ms": (_percentile(visible, 50), "ms", len(visible)),
        "excess_risk": (float(np.mean(utility)), "risk/pt", len(utility)),
        "state_floats": (_median([e.state_floats for e in episodes]), "floats", len(episodes)),
    }


def _unscaled(w: Workload, episodes: list[Episode], setups: list[tuple]) -> dict:
    """The bounded timings as this host gave them, and its slowdown."""
    return {
        "host_slowdown": (_median([d for _, d in setups]), "x", len(setups)),
        "setup_unscaled_s": (_median([s for s, _ in setups]), "s", len(setups)),
        "ingest_unscaled_pts_per_s": (
            _median([w.horizon / e.wall_s for e in episodes]), "pts/s", len(episodes)
        ),
        "call_unscaled_p50_ms": (
            _percentile([c for e in episodes for c in e.calls_ms], 50), "ms",
            sum(len(e.calls_ms) for e in episodes),
        ),
        "visible_unscaled_p50_ms": (
            _percentile([v for e in episodes for v in e.visible_ms], 50), "ms",
            sum(len(e.visible_ms) for e in episodes),
        ),
    }


def _unsteady(episodes: list[Episode]) -> dict:
    """Metrics of the untraced episodes that follow the host, not the program.

    On a shared virtual machine the tails follow CPU steal, and the read
    rate (a tight interpreter loop) follows the host's speed, which was
    seen to shift by a third between runs.
    """
    calls = [c for e in episodes for c in e.calls_ms]
    visible = [v for e in episodes for v in e.visible_ms]
    late = [v for e in episodes for v in e.late_ms]
    return {
        "call_p99_ms": (_percentile(calls, 99), "ms", len(calls)),
        "visible_p90_ms": (_percentile(visible, 90), "ms", len(visible)),
        "gen_late_p99_ms": (_percentile(late, 99), "ms", len(late)),
        "read_ops_per_s": (
            _median([e.read_ops_per_s for e in episodes]), "ops/s", len(episodes)
        ),
    }


def _layer_metrics(tracer: Tracer, plain: list[Episode], traced: list[Episode]) -> dict:
    """Per-layer metrics, as means per traced episode (one horizon each)."""
    n = len(traced)
    s = tracer.summary(
        sum(e.wall_s for e in traced), [(e.start, e.end) for e in traced]
    )
    total, own, calls = s["total"] / n, s["self"] / n, s["calls"] / n
    waits = tracer.block_waits
    overhead = _median([e.wall_s for e in traced]) / _median([e.wall_s for e in plain]) - 1.0
    return {
        "solver.refresh_s": (total[SOLVE], "s", n),
        "solver.refreshes": (calls[SOLVE], "count", n),
        "noisy_pgd.run_s": (total[PGD], "s", n),
        "balls.project_s": (total[PROJECT], "s", n),
        "balls.project_calls": (calls[PROJECT], "count", n),
        "tree.release_s": (total[RELEASE], "s", n),
        "tree.release_calls": (calls[RELEASE], "count", n),
        "moments.self_s": (own[STATISTIC], "s", n),
        "transport.wire_s": (own[WIRE], "s", n),
        "transport.rpcs": (tracer.rpc_count / n, "count", n),
        "transport.bytes": (tracer.rpc_bytes / n, "bytes", n),
        "tree.merge_s": (total[MERGE], "s", n),
        "tree.merge_calls": (calls[MERGE], "count", n),
        "stream.queue_wait_p50_ms": (_percentile(waits, 50) * 1e3, "ms", len(waits)),
        "stream.backlog_max_pts": (max(e.backlog_max for e in traced), "pts", n),
        "readers.publish_s": (total[PUBLISH], "s", n),
        "stream.self_s": (own[FRONT], "s", n),
        "tenancy.self_s": (own[FANOUT], "s", n),
        "tenancy.solves": (s["solves_fanned"] / n, "count", n),
        "trace.overhead_frac": (overhead, "frac", n),
        "trace.unattributed_frac": (s["unattributed_frac"], "frac", n),
    }
