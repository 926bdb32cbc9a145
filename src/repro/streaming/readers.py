"""Read-side scaling: per-reader snapshots and pub-sub invalidation.

The serving front pays the differential-privacy cost of an estimate once,
at release time; after that, serving it to many concurrent readers is pure
post-processing and should scale with hardware.  This module is the
fan-out layer that makes that true in practice:

* :class:`~repro.streaming.serving.EstimateCache` (in ``serving.py``)
  publishes by **atomic reference swap**, so anonymous reads
  (``ShardedStream.current_estimate``) are single lock-free pointer loads
  with no shared-counter mutation.
* :class:`ReaderHandle` (from :meth:`EstimateHub.reader` /
  ``ShardedStream.reader()``) gives each reader a **private snapshot**
  with a version fast-path check: between refreshes a read costs one
  atomic version compare and returns the reader's own reference — no
  shared state is touched, so ``N`` readers contend on nothing.  Read
  statistics are kept per handle and aggregated **on demand**
  (:meth:`EstimateHub.read_stats`) instead of bumping a shared counter on
  the hot path.
* **Pub-sub invalidation** replaces polling: :meth:`EstimateHub.subscribe`
  registers a callback fired on every publish (exceptions are isolated
  per subscription), and ``wait_for_version(v, timeout)`` — built on the
  cache's :class:`threading.Condition` — parks a poller until the publish
  that satisfies it.

Thread-safety contract
----------------------
The hub is fully thread-safe.  A :class:`ReaderHandle` is **one reader's**
object: its snapshot swap is a single reference assignment (safe to share
by accident), but its read counters are plain unsynchronized ints — give
each reader thread its own handle (they are cheap) rather than sharing
one.  Subscriber callbacks run on the *publisher's* thread, after the new
entry is visible to readers; keep them short and never block on the
publisher from inside one.

Staleness guarantee
-------------------
A read through any path (anonymous, handle, waiter, subscriber) can never
observe an estimate older than the last completed publish at the moment
the reference was loaded, and a handle's snapshot version never
regresses: ``put`` rejects version decreases and equal-version payload
changes (:class:`~repro.exceptions.PublishConflictError`), so
``same version ⇒ same payload`` and the fast path is exact, not
heuristic.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable

import numpy as np

from .._validation import check_int
from ..exceptions import ServingError
from .metrics import ReadStats

__all__ = ["EstimateHub", "EstimateReads", "ReaderHandle", "Subscription"]


class Subscription:
    """One registered publish callback, with per-subscription accounting.

    Returned by :meth:`EstimateHub.subscribe`.  The callback is invoked as
    ``callback(entry)`` with the freshly published
    :class:`~repro.streaming.serving.ServedEstimate` on every publish, on
    the publisher's thread, *after* the entry is visible to readers (so a
    callback that triggers reads observes a cache at least as new as its
    argument).

    Exceptions raised by the callback are **isolated**: they are counted
    on :attr:`errors` (and the last one kept on :attr:`last_error`) but
    never propagate to the publisher or suppress other subscribers —
    one misbehaving subscriber cannot take down the serving front or
    starve its peers.
    """

    def __init__(self, hub: "EstimateHub", callback: Callable) -> None:
        self._hub = hub
        self.callback = callback
        self.calls = 0
        self.errors = 0
        self.last_error: BaseException | None = None
        self.active = True

    def _deliver(self, entry) -> None:
        if not self.active:
            return
        self.calls += 1
        try:
            self.callback(entry)
        except Exception as exc:  # isolation: see the class docstring
            self.errors += 1
            self.last_error = exc

    def unsubscribe(self) -> None:
        """Deactivate and deregister; idempotent."""
        self.active = False
        self._hub._drop_subscription(self)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.unsubscribe()


class _ReaderCounters:
    """A handle's mutable counters, shared with its GC finalizer.

    Lives separately from the handle so a ``weakref.finalize`` callback
    can fold the counts into the hub when an unclosed handle is garbage
    collected — capturing the handle itself would keep it alive forever.
    """

    __slots__ = ("reads", "snapshot_hits")

    def __init__(self) -> None:
        self.reads = 0
        self.snapshot_hits = 0


class ReaderHandle:
    """One reader's private view of the published estimate stream.

    Created by :meth:`EstimateHub.reader` (or ``ShardedStream.reader()``).
    Holds a snapshot of the last entry this reader observed; the read path
    is a **version fast-path check** — one atomic load of the cache's
    current entry, one int compare — and between refreshes it returns the
    reader's own snapshot reference without touching any shared mutable
    state.  Read counts are per-handle plain ints (no locks, no
    contention) and are aggregated on demand by
    :meth:`EstimateHub.read_stats`; the counts are folded into the hub's
    retired totals when the handle is closed **or garbage collected**, so
    a reader that forgets ``close()`` leaks neither the handle nor its
    statistics.

    One handle per reader thread (see the module docstring).  Usable as a
    context manager: ``with stream.reader() as handle: ...``.
    """

    def __init__(self, hub: "EstimateHub") -> None:
        self._hub = hub
        self._snapshot = None
        self._counts = _ReaderCounters()
        self._finalizer = weakref.finalize(self, hub._fold_counts, self._counts)
        self.closed = False

    @property
    def reads(self) -> int:
        """Reads answered through this handle."""
        return self._counts.reads

    @property
    def snapshot_hits(self) -> int:
        """Reads answered from the snapshot via the version fast path."""
        return self._counts.snapshot_hits

    def current(self):
        """The freshest published :class:`ServedEstimate` — lock-free.

        Raises
        ------
        NoEstimateError
            Before the first publish (``ShardedStream`` pre-publishes its
            solver's initial parameter, so its handles never see this; it
            surfaces on a bare hub/cache used standalone).
        ServingError
            If the handle was closed.
        """
        if self.closed:
            raise ServingError("this ReaderHandle is closed")
        entry = self._hub.cache.get()
        self._counts.reads += 1
        snapshot = self._snapshot
        if snapshot is not None and snapshot.version == entry.version:
            # Fast path: `put` guarantees same version ⇒ same payload, so
            # the reader's own reference is the current estimate.
            self._counts.snapshot_hits += 1
            return snapshot
        self._snapshot = entry
        return entry

    def theta(self) -> np.ndarray:
        """The current released parameter (read-only buffer)."""
        return self.current().theta

    @property
    def version(self) -> int:
        """Version of this reader's snapshot (−1 before its first read)."""
        snapshot = self._snapshot
        return -1 if snapshot is None else snapshot.version

    def wait_for_version(self, version: int, timeout: float | None = None):
        """Park until ``version`` (or newer) is published; return the entry.

        Counts as one read on this handle and advances the snapshot, so a
        subsequent :meth:`current` takes the fast path.  Raises
        :class:`~repro.exceptions.WaitTimeoutError` on timeout and
        :class:`~repro.exceptions.ServingError` if the hub closes while
        waiting.
        """
        if self.closed:
            raise ServingError("this ReaderHandle is closed")
        entry = self._hub.wait_for_version(version, timeout=timeout)
        self._counts.reads += 1
        if self._snapshot is not None and self._snapshot.version == entry.version:
            self._counts.snapshot_hits += 1
        else:
            self._snapshot = entry
        return entry

    def subscribe(self, callback: Callable) -> Subscription:
        """Register a publish callback on the hub (handle-scoped sugar)."""
        return self._hub.subscribe(callback)

    def stats(self) -> dict:
        """This handle's own counters (one reader's view, not the fleet's)."""
        return {
            "reads": self.reads,
            "snapshot_hits": self.snapshot_hits,
            "version": self.version,
            "closed": self.closed,
        }

    def close(self) -> None:
        """Retire the handle: fold its counts into the hub; idempotent.

        The fold runs exactly once per handle — ``weakref.finalize``
        guarantees close-then-GC never double-counts.
        """
        if self.closed:
            return
        self.closed = True
        self._snapshot = None
        self._finalizer()  # folds this handle's counts, exactly once
        self._hub._discard_handle(self)

    def __enter__(self) -> "ReaderHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class EstimateHub:
    """The publish/subscribe front over one :class:`EstimateCache`.

    The single publish path of a serving front: :meth:`publish` installs
    the new entry in the cache (atomic swap + monotonicity checks), wakes
    every ``wait_for_version`` waiter, and fires the subscriber callbacks
    — in that order, so by the time a subscriber (or woken waiter) runs,
    anonymous readers already see the new entry.

    Hands out :class:`ReaderHandle` objects via :meth:`reader` and
    aggregates their per-reader statistics on demand via
    :meth:`read_stats` — the replacement for the shared read counter the
    cache used to mutate under its hot-path lock.
    """

    def __init__(self, cache=None) -> None:
        if cache is None:
            from .serving import EstimateCache  # avoid a module-level cycle

            cache = EstimateCache()
        self.cache = cache
        # Guards the subscriber list and the handle registry — never taken
        # on the read hot path.
        self._registry_lock = threading.Lock()
        self._subscriptions: list[Subscription] = []
        # Weak so a handle dropped without close() cannot leak; its
        # finalizer folds the counts into the retired totals either way
        # (close() or GC), so the accounting stays exact.
        self._handles: "weakref.WeakSet[ReaderHandle]" = weakref.WeakSet()
        self._retired_reads = 0
        self._retired_hits = 0
        self._closed = False

    # -- publish side ---------------------------------------------------

    def publish(self, theta, version: int, timestep: int, covered_steps: int):
        """Publish through the cache, wake waiters, fire subscribers."""
        if self._closed:
            raise ServingError("EstimateHub is closed; nothing can publish")
        entry = self.cache.put(theta, version, timestep, covered_steps)
        with self._registry_lock:
            subscriptions = list(self._subscriptions)
        for subscription in subscriptions:
            subscription._deliver(entry)
        return entry

    def subscribe(self, callback: Callable) -> Subscription:
        """Register ``callback(entry)`` to fire on every publish."""
        if not callable(callback):
            raise ServingError("subscribe() needs a callable")
        subscription = Subscription(self, callback)
        with self._registry_lock:
            self._subscriptions.append(subscription)
        return subscription

    def _drop_subscription(self, subscription: Subscription) -> None:
        with self._registry_lock:
            if subscription in self._subscriptions:
                self._subscriptions.remove(subscription)

    # -- read side ------------------------------------------------------

    def reader(self) -> ReaderHandle:
        """A fresh per-reader handle (register it for stats aggregation)."""
        if self._closed:
            raise ServingError("EstimateHub is closed; no new readers")
        handle = ReaderHandle(self)
        with self._registry_lock:
            self._handles.add(handle)
        return handle

    def _fold_counts(self, counts: _ReaderCounters) -> None:
        """Fold one retired handle's counters into the totals.

        The target of every handle's ``weakref.finalize`` — runs exactly
        once per handle, on ``close()`` or at garbage collection,
        whichever comes first.
        """
        with self._registry_lock:
            self._retired_reads += counts.reads
            self._retired_hits += counts.snapshot_hits

    def _discard_handle(self, handle: ReaderHandle) -> None:
        with self._registry_lock:
            self._handles.discard(handle)

    def wait_for_version(self, version: int, timeout: float | None = None):
        """Block until ``version`` (or newer) is published; return the entry.

        Parks on the cache's condition variable (the same one ``put``
        notifies); :class:`~repro.exceptions.WaitTimeoutError` on timeout.
        A hub closed mid-wait wakes its waiters with a
        :class:`~repro.exceptions.ServingError` instead of leaving them
        parked for a publish that can never come.
        """
        version = check_int("version", version, minimum=0)
        return self.cache.wait_for_version(
            version, timeout=timeout, abort=self._abort_reason
        )

    def _abort_reason(self) -> str:
        """The cache-wait abort hook: non-empty once the hub is closed."""
        if self._closed:
            return "EstimateHub closed while waiting for a new estimate version"
        return ""

    def read_stats(self) -> ReadStats:
        """Aggregate fan-out statistics on demand — the stats entry point.

        Publisher-side numbers come from the cache's consistent
        :meth:`~repro.streaming.serving.EstimateCache.stats` snapshot;
        reader-side numbers sum the live handles' counters plus the
        retired totals.  Nothing here is maintained on the read hot path.
        """
        cache_stats = self.cache.stats()
        with self._registry_lock:
            handles = [h for h in self._handles if not h.closed]
            reads = self._retired_reads + sum(h.reads for h in handles)
            hits = self._retired_hits + sum(h.snapshot_hits for h in handles)
            readers = len(handles)
        return ReadStats(
            version=cache_stats["version"],
            writes=cache_stats["writes"],
            readers=readers,
            reads=reads,
            snapshot_hits=hits,
        )

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Refuse further publishes/readers and wake parked waiters.

        Waiters whose version never arrived are released with a
        :class:`~repro.exceptions.ServingError`.  The cache itself is
        untouched, so already-served entries remain readable (existing
        handles and anonymous reads keep working).  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        # Wake every parked waiter; their abort hook re-checks the flag.
        self.cache.wake_waiters()


class EstimateReads:
    """The read surface over one :class:`EstimateHub`.

    Written once and shared by every object that serves one estimate:
    :class:`~repro.streaming.serving.ShardedStream` and the per-tenant
    :class:`~repro.streaming.tenancy.TenantView`.  The owner holds the
    hub as ``_hub`` and its cache as ``cache`` (the cached reads load it
    directly: one pointer read).
    """

    _hub: EstimateHub

    def current_estimate(self) -> np.ndarray:
        """The cached parameter — one lock-free read-only pointer read.

        The anonymous shared read: thread-safe from any number of
        readers, touches no shared mutable state, keeps no statistics.
        Readers that want per-reader stats, the snapshot fast path, or
        blocking waits should hold a :meth:`reader` handle instead.
        """
        return self.cache.get().theta

    def current_served(self):
        """The cached estimate with version/coverage metadata (lock-free)."""
        return self.cache.get()

    def reader(self) -> ReaderHandle:
        """A per-reader fan-out handle (one per reader thread).

        Handles hold a private snapshot with a version fast-path check —
        between refreshes a read returns the reader's own reference
        without touching shared state — and keep per-reader read counts
        that :meth:`read_stats` aggregates on demand.  Usable as a
        context manager; ``close()`` (or stream close) retires it.
        """
        return self._hub.reader()

    def subscribe(self, callback: Callable) -> Subscription:
        """Fire ``callback(entry)`` on every publish (pub-sub invalidation).

        Callbacks run on the publishing thread after the new entry is
        visible to readers; exceptions are isolated per subscription
        (counted on ``Subscription.errors``, never propagated to the
        refresh path).  Returns the :class:`Subscription`; call its
        ``unsubscribe()`` to stop.
        """
        return self._hub.subscribe(callback)

    def wait_for_version(self, version: int, timeout: float | None = None):
        """Block until a solve with ``version`` (or newer) is published.

        Built on the cache's condition variable, woken by the publish
        that satisfies it (or by a close, with a
        :class:`~repro.exceptions.ServingError`).  Raises
        :class:`~repro.exceptions.WaitTimeoutError` on timeout.
        """
        return self._hub.wait_for_version(version, timeout=timeout)

    def read_stats(self) -> ReadStats:
        """One consistent snapshot of the read fan-out (aggregated on demand)."""
        return self._hub.read_stats()

    @property
    def estimate_version(self) -> int:
        """Number of completed solves published to the cache (lock-free)."""
        return self.cache.version
