"""Layer spans recorded from outside the program, around its entry points.

The tracer monkeypatches the public entry point of each serving layer
(see ``_layer_patches``) with a wrapper that records one span per call:
layer, start, end and the span that caused it.  Spans are appended to
flat arrays and kept in memory until the run ends; :meth:`Tracer.summary`
folds them into per-layer totals, self times and counts.

Causality is the calling thread's span stack.  The one exception is the
tcp transport: the shard runs on a listener thread of the same process,
so a shard span that opens on a thread with no open span while an RPC is
in flight is parented to that RPC.  The front serializes shard RPCs under
its lock, so at most one RPC is open at a time.
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import deque

import numpy as np

# Layer ids.
FRONT, FANOUT, STATISTIC, RELEASE, MERGE, WIRE, SOLVE, PGD, PROJECT, PUBLISH = range(10)
LAYERS = PUBLISH + 1


def _layer_patches():
    """``(owner, attribute, layer, flags)`` for every wrapped entry point.

    Flags: ``rpc`` marks a client-side shard RPC (the cross-thread parent
    of the shard spans it causes); ``adopt`` lets a root span on a
    listener thread take the open RPC as parent; ``block`` marks the
    entry of one routed block into the shard layer, which ends the
    block's front-side wait.
    """
    from repro.core.incremental_regression import PrivIncReg1
    from repro.erm.noisy_pgd import NoisyProjectedGradient
    from repro.geometry.balls import L2Ball
    from repro.privacy import tree
    from repro.streaming import tenancy
    from repro.streaming.readers import EstimateHub
    from repro.streaming.serving import shards, stream
    from repro.streaming.transport import ShardRpcClient

    ShardedStream = stream.ShardedStream
    MultiTenantStream = tenancy.MultiTenantStream
    return (
        (ShardedStream, "observe_batch", FRONT, ()),
        (ShardedStream, "flush", FRONT, ()),
        # The async worker's unit of front work (route + lock + ingest +
        # due refresh); in sync mode it nests inside observe_batch.
        (ShardedStream, "_process_block", FRONT, ()),
        (MultiTenantStream, "observe_batch", FRONT, ()),
        (MultiTenantStream, "flush", FRONT, ()),
        # The refresh fan-out: one merge serving k solves and publishes
        # (k = 1 on ShardedStream, k = tenants on MultiTenantStream).
        (ShardedStream, "_refresh", FANOUT, ()),
        (MultiTenantStream, "_refresh", FANOUT, ()),
        (shards.MomentShard, "ingest", STATISTIC, ("adopt", "block")),
        (shards.TenantShard, "ingest", STATISTIC, ("adopt", "block")),
        (tree.TreeMechanism, "advance_batch", RELEASE, ()),
        (tree.TreeMechanism, "advance_sum", RELEASE, ()),
        (stream, "merge_released", MERGE, ()),
        (tenancy, "merge_released", MERGE, ()),
        (ShardRpcClient, "ingest", WIRE, ("rpc", "block")),
        (ShardRpcClient, "released", WIRE, ("rpc",)),
        # The in-process merge hand-off (live mechanisms, zero-copy); on
        # tcp it runs listener-side inside the "released" RPC.
        (shards.MomentShard, "released", WIRE, ("adopt",)),
        (shards.TenantShard, "released", WIRE, ("adopt",)),
        (PrivIncReg1, "refresh_from_released", SOLVE, ()),
        (NoisyProjectedGradient, "run", PGD, ()),
        (L2Ball, "project", PROJECT, ()),
        (EstimateHub, "publish", PUBLISH, ()),
    )


def _payload_bytes(args, result) -> int:
    """Array bytes an RPC moves: the block sent, or the snapshots returned."""
    if args:
        return sum(a.nbytes for a in args if isinstance(a, np.ndarray))
    return sum(r.value.nbytes for r in result)


class Tracer:
    """In-memory span recorder; ``install()``/``uninstall()`` the wrappers."""

    def __init__(self) -> None:
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.rpc_bytes = 0
        self.rpc_count = 0
        #: Front entry times of blocks not yet handed to the shard layer.
        self.pending_blocks: deque = deque()
        self.block_waits: list[float] = []
        self._local = threading.local()
        self._open_rpc = -1
        #: Guards span allocation: the producer, the async worker and the
        #: tcp listener threads record concurrently.
        self._lock = threading.Lock()
        self._saved: list = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer: int, flags):
        tracer = self
        rpc = "rpc" in flags
        adopt = "adopt" in flags
        block = "block" in flags
        front_entry = fn.__name__ == "observe_batch"
        perf = time.perf_counter
        lock = self._lock

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif adopt:
                parent = tracer._open_rpc
            else:
                parent = -1
            now = perf()
            with lock:
                index = len(tracer.start)
                tracer.layer.append(layer)
                tracer.parent.append(parent)
                tracer.end.append(0.0)
                tracer.start.append(now)
            if front_entry:
                tracer.pending_blocks.append(now)
            elif block and stack and tracer.pending_blocks:
                tracer.block_waits.append(now - tracer.pending_blocks.popleft())
            stack.append(index)
            if rpc:
                tracer._open_rpc = index
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[index] = perf()
                stack.pop()
                if rpc:
                    tracer._open_rpc = -1
            if rpc:
                tracer.rpc_count += 1
                tracer.rpc_bytes += _payload_bytes(args[1:3], result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer entry point (idempotent per tracer)."""
        if self._saved:
            return
        self.pending_blocks.clear()
        for owner, name, layer, flags in _layer_patches():
            original = owner.__dict__[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer, flags))

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- analysis -------------------------------------------------------

    def summary(self, wall_s: float, windows) -> dict:
        """Per-layer totals over all spans recorded so far.

        ``windows`` are the measured ``(start, end)`` intervals; the share
        of them no root span covers is the unattributed fraction.
        """
        n = len(self.start)
        layer = np.frombuffer(self.layer, dtype=np.int8, count=n).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        duration = end - start
        has_parent = parent >= 0
        # Children of one span never overlap: same-thread calls are
        # sequential and the listener-side spans of an RPC are serialized
        # behind it, so covered time is the plain sum.
        child = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=n
        )
        self_time = duration - child[:n]
        total = np.bincount(layer, weights=duration, minlength=LAYERS)
        own = np.bincount(layer, weights=self_time, minlength=LAYERS)
        calls = np.bincount(layer, minlength=LAYERS)
        solves_fanned = int(
            np.isin(parent[layer == SOLVE], np.flatnonzero(layer == FANOUT)).sum()
        )
        covered = _union_length(start[~has_parent], end[~has_parent], windows)
        return {
            "total": total,
            "self": own,
            "calls": calls,
            "solves_fanned": solves_fanned,
            "unattributed_frac": max(0.0, 1.0 - covered / wall_s),
        }


def _union_length(starts, ends, windows) -> float:
    """Length of the union of ``[starts, ends]`` clipped to ``windows``."""
    covered = 0.0
    order = np.argsort(starts, kind="stable")
    starts, ends = starts[order], ends[order]
    for lo, hi in windows:
        mask = (ends > lo) & (starts < hi)
        cur_lo = cur_hi = None
        for s, e in zip(np.maximum(starts[mask], lo), np.minimum(ends[mask], hi)):
            if cur_hi is None or s > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = s, e
            elif e > cur_hi:
                cur_hi = e
        if cur_hi is not None:
            covered += cur_hi - cur_lo
    return covered
