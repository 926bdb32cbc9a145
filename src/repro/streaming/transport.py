"""The process shard transport: serving workers in their own interpreters.

:class:`~repro.streaming.serving.ShardedStream` splits one logical stream
across ``K`` shard workers.  With the default in-process transport the
workers share the parent's interpreter, so ingest throughput is capped by
the GIL except where BLAS releases it.  This module provides the
alternative ``transport="process"`` backend: each shard's mechanisms live
in a **separate Python process**, driven over a ``multiprocessing``
command/response pipe, so shard ingestion runs on real cores.

What crosses the pipe — and what never does
-------------------------------------------
* **Down** (parent → worker): a one-time picklable :class:`ShardSpec`
  (budget, rng children, mechanism/backend configuration, and — for the
  projected backend — the front-drawn shared ``Φ``), then routed data
  blocks as commands.
* **Up** (worker → parent): at refresh points, the shard's released
  moments as compact :class:`~repro.privacy.tree.ReleasedMoments`
  snapshots — the released statistic (``O(m)`` / ``O(m²)`` floats) with
  its variance accounting, **never** the tree state (``O(m² log T)``) and
  never raw data back.  This is the serialize-the-sketch-not-the-data
  pattern: the expensive object stays where it was built, only the
  additive release travels.

Why the privacy and serving analyses survive the boundary
---------------------------------------------------------
The merge rule (:func:`~repro.privacy.tree.merge_released`) consumes only
each shard's released sum, noise variance, step count, and shape — all
frozen losslessly into the snapshot (``float64`` pickles exactly), so a
merge over pipe-shipped snapshots is bit-identical to a merge over the
live mechanisms.  Each worker builds its mechanisms from the same spawned
rng children the in-process transport would use, so the two transports
consume randomness identically: under ``ingest="exact"`` a ``K = 1``
process server stays bit-identical to the plain batched path, and thread
and process servers under one seed produce identical merged releases
(``tests/test_process_serving.py``).  Privacy needs even less: each
shard's tree is a complete ``(ε, δ)`` mechanism on its own sub-stream,
and everything the parent does with the snapshots is post-processing.

Fault semantics
---------------
:meth:`ProcessShardWorker.kill` SIGKILLs the worker — deliberately
un-graceful, to model a crash.  A worker that dies *uncommanded* is
detected on the next pipe interaction: the parent marks the shard dead and
raises :class:`~repro.exceptions.ShardUnavailableError`; the serving front
then applies its documented partial-coverage semantics (the dead shard's
ingested mass is counted into ``lost_steps``, merges cover the survivors,
``restart_shard`` spawns a fresh process over a fresh disjoint sub-stream).
A worker that is *alive but stuck* (wedged in a huge BLAS call, poisoned
by a pathological command) is covered by the same fault model: every
parent→worker round trip carries an optional deadline
(``request_timeout``, enforced with ``conn.poll`` before the reply
``recv``), and a missed deadline kills the worker and raises
:class:`~repro.exceptions.ShardTimeoutError` — a
:class:`~repro.exceptions.ShardUnavailableError` subclass, so upstream a
stuck worker is indistinguishable from a crashed one and folds into the
identical partial-coverage accounting.  Command-level failures
(validation, horizon) are *not* faults: the worker catches them, ships
the exception back, and keeps serving — the tree's block-atomic
rejection guarantees hold unchanged across the pipe.

The command/response protocol itself (the ``(command, payload)`` →
``("ok" | "err", result)`` framing served by :func:`dispatch_command`) is
transport-agnostic: :mod:`repro.streaming.netserve` serves the same
commands over length-prefixed TCP frames, so shards can run on separate
hosts behind the same :class:`ShardRpcClient` surface.

Pickling requirements mirror :mod:`repro.streaming.fleet`'s process-pool
spec plumbing: everything in the spawn payload must be picklable
(budgets, numpy Generators, and the built-in projection types all are; a
custom ``projection`` object must be too).  Workers default to the
``"spawn"`` start method — fork-safety of a threaded parent (async mode,
group pools) is exactly the kind of thing this transport must not gamble
on.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..exceptions import (
    BundlePartialCommitError,
    ShardTimeoutError,
    ShardUnavailableError,
    ValidationError,
)
from ..privacy.parameters import PrivacyParams
from ..privacy.tree import ReleasedMoments

__all__ = ["ProcessShardWorker", "ShardRpcClient", "ShardSpec", "dispatch_command"]

#: Default multiprocessing start method for shard workers.  ``"spawn"`` is
#: slower to boot but safe under threaded parents on every platform; pass
#: ``start_method="fork"`` to :class:`ProcessShardWorker` on POSIX when
#: boot latency matters more.
DEFAULT_START_METHOD = "spawn"

#: Deadline on the ready handshake (worker boot).  Distinct from (and far
#: above) any sensible ``request_timeout``: boot pays interpreter spawn
#: plus the numpy/scipy imports, which on a loaded host can take seconds —
#: a per-command deadline tuned to steady-state RPCs would false-kill
#: every worker at startup.
BOOT_TIMEOUT = 120.0

#: Default bound on the graceful-close handshake.  ``shutdown()`` must
#: never hang on a worker wedged mid-command: after this many seconds the
#: close falls through to a kill.
SHUTDOWN_TIMEOUT = 5.0


@dataclass(frozen=True)
class ShardSpec:
    """Picklable recipe for one shard worker (the spawn payload).

    The process transport never pickles a live mechanism: the worker
    *rebuilds* its :class:`~repro.streaming.serving.MomentShard` from this
    spec inside the child interpreter, consuming the shipped rng children
    exactly as the in-process transport would — which is what keeps the
    two transports' noise streams identical.  For ``backend="projected"``
    the spec carries the front-drawn shared projection object itself, so
    every spawned worker (and any restart) re-attaches to the *same*
    ``Φ`` — the one invariant Algorithm 3's sharding adds.

    Mirrors the pickling discipline of
    :class:`~repro.streaming.fleet.ReplicateSpec`: every field must be
    picklable (all library types used here are).
    """

    index: int
    dim: int
    budget: PrivacyParams
    cross_rng: "np.random.Generator | None" = None
    gram_rng: "np.random.Generator | None" = None
    mechanism: str = "tree"
    shard_horizon: int | None = None
    backend: str = "moment"
    projection: object | None = None
    #: Non-stationarity knobs (mutually exclusive): forgetting factor
    #: ``γ ∈ (0, 1]`` or sliding window ``W`` — shipped verbatim so the
    #: worker-side :func:`~repro.privacy.release.make_release_mechanism`
    #: builds the same decayed/windowed mechanisms the in-process
    #: transport would.
    decay: float | None = None
    window: "int | float | None" = None
    #: Multi-tenant (PRIMO) shards: the roster — active tenant names, the
    #: slot capacity, the shared-Gram γ groups (``decays``) and each
    #: initial tenant's group (``tenant_decays``).  Their rngs ride in
    #: ``rngs``: the Gram child first, then one per tenant in order.
    tenants: "tuple[str, ...] | None" = None
    tenant_capacity: int | None = None
    decays: "tuple[float, ...] | None" = None
    tenant_decays: "tuple[float, ...] | None" = None
    #: Bundle-generic payload: the number of instrument columns (IV
    #: backend) and the rng children in bundle order (tenant shards: the
    #: Gram child, then one per tenant).  The legacy
    #: ``cross_rng``/``gram_rng`` pair remains the wire format for
    #: two-entry bundles; ``rngs`` carries wider bundles without growing
    #: a field per statistic.
    instruments: int | None = None
    rngs: "tuple[np.random.Generator, ...] | None" = None

    def build(self):
        """Construct the shard worker this spec describes (child side)."""
        # Imported here, not at module top: the parent-side transport layer
        # must stay importable from serving.py without a cycle, and the
        # child pays the serving import only once, at build time.
        from .serving import (
            IVMomentShard,
            MomentShard,
            ProjectedMomentShard,
            SketchShard,
            TenantShard,
        )

        if self.backend == "tenant":
            if self.tenants is None or self.rngs is None:
                raise ValidationError(
                    "ShardSpec(backend='tenant') requires the tenant names "
                    "and the Gram + per-tenant rngs in the spawn payload"
                )
            return TenantShard(
                index=self.index,
                dim=self.dim,
                budget=self.budget,
                tenant_rngs=self.rngs[1:],
                gram_rng=self.rngs[0],
                tenants=self.tenants,
                tenant_capacity=self.tenant_capacity,
                mechanism=self.mechanism,
                shard_horizon=self.shard_horizon,
                decays=self.decays,
                tenant_decays=self.tenant_decays,
            )
        if self.backend == "iv":
            if self.instruments is None or self.rngs is None:
                raise ValidationError(
                    "ShardSpec(backend='iv') requires the instrument count "
                    "and per-statistic rngs in the spawn payload"
                )
            return IVMomentShard(
                index=self.index,
                dim=self.dim,
                budget=self.budget,
                rngs=self.rngs,
                instruments=self.instruments,
                mechanism=self.mechanism,
                shard_horizon=self.shard_horizon,
                decay=self.decay,
                window=self.window,
            )
        if self.backend in ("projected", "sketch"):
            if self.projection is None:
                raise ValidationError(
                    f"ShardSpec(backend={self.backend!r}) requires the shared "
                    "projection in the spawn payload"
                )
            shard_cls = (
                SketchShard if self.backend == "sketch" else ProjectedMomentShard
            )
            return shard_cls(
                index=self.index,
                dim=self.dim,
                budget=self.budget,
                cross_rng=self.cross_rng,
                gram_rng=self.gram_rng,
                projection=self.projection,
                mechanism=self.mechanism,
                shard_horizon=self.shard_horizon,
                decay=self.decay,
                window=self.window,
            )
        return MomentShard(
            index=self.index,
            dim=self.dim,
            budget=self.budget,
            cross_rng=self.cross_rng,
            gram_rng=self.gram_rng,
            mechanism=self.mechanism,
            shard_horizon=self.shard_horizon,
            decay=self.decay,
            window=self.window,
        )


def _safe_send(conn, message) -> bool:
    """Send a reply, degrading unpicklable payloads to a stringified error.

    Returns ``False`` when not even the degraded error reply could be
    delivered (broken pipe, parent gone): the *fallback* send used to be
    unguarded, so a reply failure after the parent vanished raised out of
    the worker loop and killed the worker with a traceback instead of the
    clean daemonic exit every other parent-gone path takes.  Callers must
    treat ``False`` as "stop serving".
    """
    try:
        conn.send(message)
        return True
    except Exception as exc:
        try:
            conn.send(
                (
                    "err",
                    ShardUnavailableError(
                        f"worker reply could not be serialized: {exc}"
                    ),
                )
            )
            return True
        except Exception:  # parent vanished mid-reply; exit cleanly
            return False


def dispatch_command(shard, command: str, payload):
    """Execute one worker command against a built shard; return the result.

    The single definition of the command protocol, shared by every
    transport that serves shards remotely — the ``multiprocessing`` pipe
    worker below and the TCP listener in
    :mod:`repro.streaming.netserve` — so a shard behaves identically
    behind a pipe and behind a socket.  ``close`` is *not* handled here:
    connection teardown belongs to the serving loop that owns the
    connection.

    Raising is the error path: the loop ships the exception back as an
    ``("err", exc)`` reply and keeps serving (command failures are not
    faults).
    """
    if command == "ingest":
        xs, ys, fast = payload
        shard.ingest(xs, ys, fast)
        return shard.steps
    if command == "released":
        # Snapshot, never the live mechanisms: the wire carries the
        # released statistic (O(m)/O(m²)), not the tree (O(m² log T)
        # plus generator state).  One slot per bundle statistic, in
        # bundle order — two for the default (cross, gram) bundle,
        # three for the IV (zz, zx, zy) bundle.  A tenant shard's slot
        # may itself be a tuple (one release per tenant, or one
        # shared-Gram handle per γ group) — same snapshot type, same
        # wire format, just k of them.
        snapshots = []
        for handle in shard.released():
            if isinstance(handle, tuple):
                snapshots.append(
                    tuple(
                        mechanism.released_moments() for mechanism in handle
                    )
                )
            else:
                snapshots.append(handle.released_moments())
        return tuple(snapshots)
    if command == "tenant":
        action, name, extra = payload
        if action == "add":
            rng, decay = extra
            shard.add_tenant(name, rng, decay=decay)
        elif action == "remove":
            shard.remove_tenant(name)
        elif action != "list":
            raise ValidationError(f"unknown tenant action {action!r}")
        return shard.tenants()
    if command == "memory":
        return shard.memory_floats()
    if command == "ping":
        # The heartbeat probe: cheapest possible liveness round trip.  A
        # wedged worker cannot answer it, so a deadline on the ping is
        # what turns "stuck" into "dead" without waiting for real traffic.
        return shard.steps
    if command == "sleep":
        # Fault-injection hook for the hung-worker suites and the
        # heartbeat benchmark: wedges the worker mid-command for
        # ``payload`` seconds, exactly like a pathological BLAS call.
        time.sleep(float(payload))
        return None
    if command == "describe":
        projection = getattr(shard, "projection", None)
        return {
            "index": shard.index,
            "backend": shard.backend,
            "mechanism": shard.mechanism,
            "moment_dim": shard.moment_dim,
            "steps": shard.steps,
            "pid": mp.current_process().pid,
            "projection_matrix": (
                None
                if projection is None
                else np.array(projection.matrix, dtype=float)
            ),
        }
    raise ValidationError(f"unknown worker command {command!r}")


def _shard_worker_main(spec: ShardSpec, conn) -> None:
    """The worker process: build the shard, then serve pipe commands.

    Top-level (not a closure) so the ``"spawn"`` start method can import
    it.  Protocol: the parent sends ``(command, payload)`` tuples and the
    worker replies ``("ok", result)`` or ``("err", exception)``; command
    failures never kill the worker — the shard's block-atomic rejection
    semantics make a retry safe, exactly as in-process.  A reply that
    cannot be delivered at all ends the loop cleanly (the parent is gone
    or the pipe is broken — there is no one left to serve).
    """
    try:
        shard = spec.build()
    except BaseException as exc:
        _safe_send(conn, ("err", exc))
        conn.close()
        return
    if not _safe_send(conn, ("ok", spec.index)):  # ready handshake
        conn.close()
        return
    while True:
        try:
            command, payload = conn.recv()
        except (EOFError, OSError):
            return  # parent vanished; daemonic exit
        if command == "close":
            _safe_send(conn, ("ok", None))
            conn.close()
            return
        try:
            result = dispatch_command(shard, command, payload)
        except BaseException as exc:
            reply = ("err", exc)
        else:
            reply = ("ok", result)
        if not _safe_send(conn, reply):
            conn.close()
            return


class ShardRpcClient:
    """The parent-side shard proxy surface, over any command transport.

    Exposes the same surface the serving front uses on an in-process
    :class:`~repro.streaming.serving.MomentShard` — ``index`` / ``alive``
    / ``steps`` / ``budget`` attributes, :meth:`ingest`,
    :meth:`released`, :meth:`memory_floats`, :meth:`kill`,
    :meth:`shutdown` — so :class:`~repro.streaming.serving.ShardedStream`
    treats every transport uniformly.  ``steps`` is a parent-side mirror
    updated from ingest acknowledgements, which is what keeps the
    lost-mass accounting exact even after the worker is gone.

    Subclasses own the wire: :class:`ProcessShardWorker` (a
    ``multiprocessing`` pipe to a spawned process) and
    :class:`~repro.streaming.netserve.TcpShardWorker` (length-prefixed
    frames to a shard host listener) implement :meth:`_request` plus the
    lifecycle pair :meth:`kill` / :meth:`shutdown`; everything here is
    transport-independent post-processing of ``(status, result)`` replies.

    Not thread-safe on its own: the serving front serializes all wire
    access per worker (its ingestion lock, or one drain task per shard in
    group mode, with the heartbeat loop taking the same lock).
    """

    def _init_mirror(self, spec: ShardSpec, request_timeout: float | None) -> None:
        """Initialize the parent-side mirror fields (subclass constructors)."""
        if request_timeout is not None and not request_timeout > 0:
            raise ValidationError(
                f"request_timeout must be positive (seconds) or None, got "
                f"{request_timeout!r}"
            )
        self.spec = spec
        self.index = spec.index
        self.budget = spec.budget
        self.backend = spec.backend
        self.mechanism = spec.mechanism
        self.request_timeout = request_timeout
        self.steps = 0
        self.alive = False
        # Set by the serving front once this worker's mass is credited to
        # lost_steps (same flag as the in-process MomentShard).
        self.lost_accounted = False

    # ------------------------------------------------------------------
    # The MomentShard surface
    # ------------------------------------------------------------------

    def ingest(self, xs: np.ndarray, ys: np.ndarray, fast: bool) -> None:
        """Route one block over the wire; blocks until acknowledged.

        Failure semantics match the in-process shard: a command-level
        error (validation, horizon) leaves the worker's trees unconsumed
        and the worker alive, so a retry is safe; a *dead or stuck*
        worker raises
        :class:`~repro.exceptions.ShardUnavailableError` after marking
        the shard dead (partial-coverage accounting upstream).  So does a
        bundle torn worker-side
        (:class:`~repro.exceptions.BundlePartialCommitError`): the worker
        has already discarded its mechanisms, so the proxy kills it too.
        """
        try:
            self.steps = int(self._request("ingest", (xs, ys, bool(fast))))
        except BundlePartialCommitError:
            self.kill()
            raise

    def released(self) -> tuple[ReleasedMoments, ...]:
        """The bundle's released moments, snapshotted over the wire.

        One round trip for all snapshots, in bundle order — (cross, gram)
        for the default backends, (zz, zx, zy) for the IV backend; each
        merges interchangeably with live mechanisms
        (:func:`~repro.privacy.tree.merge_released`).
        """
        return tuple(self._request("released", None))

    @property
    def cross(self) -> ReleasedMoments:
        """Snapshot of the cross-moment release (diagnostics; one RPC);
        on a tenant shard, a tuple of one per tenant, in tenant order."""
        return self.released()[0]

    @property
    def gram(self) -> ReleasedMoments:
        """Snapshot of the second-moment release (diagnostics; one RPC);
        on a tenant shard, a tuple of one per γ group, in ``decays`` order."""
        return self.released()[1]

    def add_tenant(
        self,
        name: str,
        rng: np.random.Generator,
        decay: float | None = None,
    ) -> None:
        """Attach a tenant cross tree on the worker (tenant backend only).

        The generator crosses the wire by pickle, so the worker-side tree
        consumes exactly the stream this generator would produce locally —
        the same bit-identity contract as initial construction.  ``decay``
        assigns the tenant to one of the shard's declared γ groups.
        """
        self._request("tenant", ("add", name, (rng, decay)))

    def remove_tenant(self, name: str) -> None:
        """Drop a tenant's cross tree on the worker (tenant backend only)."""
        self._request("tenant", ("remove", name, None))

    def tenants(self) -> tuple[str, ...]:
        """Active tenant names on the worker, in slot order."""
        return tuple(self._request("tenant", ("list", None, None)))

    def memory_floats(self) -> int:
        """Floats held by the worker's mechanisms (0 once dead)."""
        if not self.alive:
            return 0
        return int(self._request("memory", None))

    def describe(self) -> dict:
        """Worker-side identity snapshot (backend, dims, pid, Φ matrix)."""
        return self._request("describe", None)

    def ping(self) -> int:
        """One liveness round trip (the heartbeat probe); returns worker steps.

        Subject to ``request_timeout`` like every RPC, so a wedged worker
        fails the ping within the deadline and is folded into the
        partial-coverage fault path — how the health-check loop detects
        stuck workers without waiting for real traffic.
        """
        return int(self._request("ping", None))

    def _request(self, command: str, payload):
        raise NotImplementedError

    def kill(self) -> None:
        raise NotImplementedError

    def shutdown(self) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(index={self.index}, "
            f"backend={self.backend!r}, alive={self.alive}, "
            f"steps={self.steps})"
        )


class ProcessShardWorker(ShardRpcClient):
    """One shard worker running in its own process, driven over a pipe.

    See :class:`ShardRpcClient` for the surface contract.

    Parameters
    ----------
    spec:
        The picklable worker recipe (see :class:`ShardSpec`).
    start_method:
        ``multiprocessing`` start method; defaults to
        :data:`DEFAULT_START_METHOD` (``"spawn"``).
    request_timeout:
        Deadline in seconds on every parent→worker round trip, enforced
        with ``conn.poll(timeout)`` before the reply ``recv``.  A missed
        deadline means the worker is alive-but-stuck — it is killed on
        the spot (a late reply must never pair with a future request) and
        :class:`~repro.exceptions.ShardTimeoutError` is raised, folding
        the stuck worker into the crashed-worker partial-coverage path.
        ``None`` (default) keeps the legacy unbounded waits.
    shutdown_timeout:
        Bound on the graceful-close handshake and the exit join; a worker
        wedged mid-command falls through to a kill after this many
        seconds instead of hanging ``shutdown()`` (and with it ``close``)
        forever.
    """

    def __init__(
        self,
        spec: ShardSpec,
        start_method: str | None = None,
        request_timeout: float | None = None,
        shutdown_timeout: float = SHUTDOWN_TIMEOUT,
    ) -> None:
        self._init_mirror(spec, request_timeout)
        self.shutdown_timeout = float(shutdown_timeout)
        self._reap_lock = threading.Lock()
        ctx = mp.get_context(start_method or DEFAULT_START_METHOD)
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._process = ctx.Process(
            target=_shard_worker_main,
            args=(spec, child_conn),
            name=f"repro-shard-{spec.index}",
            daemon=True,
        )
        try:
            self._process.start()
        except BaseException:
            # A start() failure (e.g. the spec refuses to pickle under
            # spawn) must not leak the pipe fds.
            child_conn.close()
            self._reap()
            raise
        child_conn.close()
        # Ready handshake: surfaces child-side construction errors (bad
        # spec, unpicklable projection) eagerly, in the constructor.
        # Bounded by BOOT_TIMEOUT, not request_timeout: boot pays spawn
        # plus the numpy imports, so a steady-state deadline would
        # false-kill every worker at startup.
        # As in _request: ShardTimeoutError is an OSError, so its raise
        # must live outside the try that catches pipe failures.
        boot_timed_out = False
        try:
            if not self._conn.poll(BOOT_TIMEOUT):
                boot_timed_out = True
            else:
                status, payload = self._conn.recv()
        except (EOFError, OSError) as exc:
            self._reap()
            raise ShardUnavailableError(
                f"shard {self.index} worker process died during startup"
            ) from exc
        if boot_timed_out:
            self.kill()
            raise ShardTimeoutError(
                f"shard {self.index} worker did not complete the ready "
                f"handshake within {BOOT_TIMEOUT}s"
            )
        if status == "err":
            self._reap()
            raise payload
        self.alive = True

    def kill(self) -> None:
        """SIGKILL the worker — the crash-injection path.

        Deliberately un-graceful (no close command): models a worker
        death, so the parent-side books (``steps``) are all that remains,
        exactly as after a real crash.  Idempotent, and race-safe against
        a concurrent crash detection reaping the handle: the handle is
        captured locally and ``is_alive`` on an already-closed handle
        (``ValueError``) means someone else finished the job.
        """
        process = self._process
        if process is not None:
            try:
                if process.is_alive():
                    process.kill()
            except ValueError:  # handle closed under us; already reaped
                pass
        self._reap()

    def shutdown(self) -> None:
        """Gracefully stop the worker (close command, bounded join, reap).

        Idempotent, and safe after :meth:`kill` or a detected crash.  The
        close handshake and the exit join are both bounded by
        ``shutdown_timeout``: a worker wedged mid-command cannot answer
        the close command, so after the deadline the shutdown falls
        through to a kill instead of hanging forever (the bug class this
        PR removes from every blocking path).
        """
        if self.alive:
            try:
                self._conn.send(("close", None))
                # "ok" — worker is draining out.  poll() before recv():
                # a wedged worker never replies, and an unbounded recv
                # here is exactly the hang shutdown() must not have.
                if self._conn.poll(self.shutdown_timeout):
                    self._conn.recv()
            except (EOFError, OSError):
                pass
        process = self._process
        if process is not None:
            try:
                if process.is_alive():
                    process.join(timeout=self.shutdown_timeout)
                    if process.is_alive():  # wedged: fall through to kill
                        process.kill()
            except ValueError:  # pragma: no cover - concurrently reaped
                pass
        self._reap()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _request(self, command: str, payload):
        if not self.alive:
            raise ShardUnavailableError(
                f"shard {self.index} process worker is dead"
            )
        # The timeout raise lives OUTSIDE the try: ShardTimeoutError is a
        # TimeoutError is an OSError, so raising it inside would feed it
        # straight into the except clause below and launder the timeout
        # into a generic unavailability.
        timed_out = False
        try:
            self._conn.send((command, payload))
            if self.request_timeout is not None and not self._conn.poll(
                self.request_timeout
            ):
                timed_out = True
            else:
                status, result = self._conn.recv()
        except (EOFError, OSError) as exc:
            self._reap()
            raise ShardUnavailableError(
                f"shard {self.index} worker process died (command "
                f"{command!r}); merges degrade to partial coverage until "
                f"restart_shard({self.index})"
            ) from exc
        if timed_out:
            # Deadline missed: the worker is alive but stuck.  Kill it
            # *before* raising — if it were left running, its late reply
            # would still be queued in the pipe and would pair with the
            # *next* command's recv, silently corrupting the protocol.
            # Dead-and-refunded is the only safe state.
            self.kill()
            raise ShardTimeoutError(
                f"shard {self.index} worker missed the "
                f"{self.request_timeout}s deadline (command {command!r}); "
                f"worker killed, merges degrade to partial coverage until "
                f"restart_shard({self.index})"
            )
        if status == "err":
            raise result
        return result

    def _reap(self) -> None:
        """Mark dead and release OS resources (join + close pipe).

        Idempotent, and race-safe when a crash detection and an explicit
        ``kill()`` reap concurrently: the whole handle teardown is
        serialized under ``_reap_lock`` because
        ``multiprocessing.Process.close()`` itself is not thread-safe —
        two unsynchronized closers can both pass its popen check and the
        loser dies on ``del self._sentinel`` (AttributeError).  The
        remaining hazard is a handle closed by a path that does not take
        the lock (``ValueError`` from ``is_alive``), treated as already
        reaped; the AttributeError guard stays as a backstop for that
        same unlocked-closer interleaving inside ``close()``."""
        self.alive = False
        with self._reap_lock:
            process = self._process
            if process is not None:
                try:
                    if process.is_alive():
                        process.join(timeout=5.0)
                    if not process.is_alive():
                        process.close()
                        self._process = None
                except (
                    ValueError,
                    AttributeError,
                ):  # pragma: no cover - concurrently closed
                    self._process = None
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
