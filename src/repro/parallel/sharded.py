"""Shared-memory sharded cache storage (the ``sharded-array`` backend).

The array engine already makes a cache refresh one ``gather`` and one
``scatter`` over a preallocated block; this module moves that block into
``multiprocessing.shared_memory`` and overlays a
:class:`~repro.parallel.plan.ShardPlan` on its row-space.  Semantics are
*identical* to the inner scheme — the only change is where the bytes
live — so a sharded store with any ``n_shards`` is bit-identical to its
unsharded sibling under a fixed seed (property-tested), and the plain
sequential refresh path works against it unchanged.  What the shared
storage buys is that :class:`~repro.parallel.pool.RefreshPool` worker
processes can gather/scatter the same rows with zero copying: each shard
is a contiguous row range, each batch slice touches exactly one shard,
and concurrent shard refreshes are write-disjoint by construction.  To
*see* that concurrency, trace a run (``repro train --trace-out``): each
worker's ``shard_task`` spans (:mod:`repro.obs.trace`) land on their own
pid row of the exported timeline, overlapping the trainer's gradient and
optimizer spans when ``--refresh-overlap`` is on.

Two inner schemes are supported; :func:`repro.core.nscaching.make_cache`
picks one from whether ``n_buckets`` is set:

* :class:`ShardedArrayCache` — one row per distinct key (unbounded);
* :class:`ShardedBucketedArrayCache` — ``n_buckets`` rows shared by
  hashing (§VI bounded memory), in which case the plan partitions the
  *bucket* row-space.

Shared-memory segments are owned by the creating process: call
:meth:`ShardedCacheStore.close` (or let the owning sampler/trainer close)
to release them; re-attaching an index also releases the previous blocks.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np

from repro.core.array_cache import ArrayNegativeCache
from repro.core.bucketed import BucketedArrayCache
from repro.data.keyindex import KeyIndex
from repro.parallel.plan import ShardPlan

__all__ = [
    "ShardedArrayCache",
    "ShardedBucketedArrayCache",
    "ShardedCacheStore",
    "SharedArrayBlock",
]


class SharedArrayBlock:
    """One ndarray backed by a ``multiprocessing.shared_memory`` segment.

    The creating process owns the segment and must :meth:`release` it;
    forked worker processes inherit the mapping and never unlink.
    """

    def __init__(self, shape: tuple[int, ...], dtype: object) -> None:
        nbytes = max(1, int(np.prod(shape)) * np.dtype(dtype).itemsize)
        self._shm: shared_memory.SharedMemory | None = shared_memory.SharedMemory(
            create=True, size=nbytes
        )
        self.array: np.ndarray | None = np.ndarray(
            shape, dtype=dtype, buffer=self._shm.buf
        )
        self.array.fill(0)

    def release(self) -> None:
        """Drop the array view, close the mapping and unlink the segment."""
        if self._shm is None:
            return
        self.array = None  # the buffer export must go before close()
        shm, self._shm = self._shm, None
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


class ShardedCacheStore:
    """Mixin: shared-memory allocation plus a shard plan over storage rows.

    Combined with :class:`~repro.core.array_cache.ArrayNegativeCache` or
    :class:`~repro.core.bucketed.BucketedArrayCache` below; the mixin only
    changes *where* storage lives (`_alloc`) and *how it is described*
    (shard plan, occupancy stats, worker layout) — never access semantics.
    """

    def __init__(
        self,
        size: int,
        n_entities: int,
        rng: np.random.Generator | int | None = None,
        *,
        n_shards: int = 1,
        **kwargs: object,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        super().__init__(size, n_entities, rng, **kwargs)  # type: ignore[call-arg]
        self.n_shards = int(n_shards)
        self.plan: ShardPlan | None = None
        self._blocks: list[SharedArrayBlock] = []

    # -- allocation -----------------------------------------------------------
    def _alloc(self, shape: tuple[int, ...], dtype: type) -> np.ndarray:
        block = SharedArrayBlock(shape, dtype)
        self._blocks.append(block)
        assert block.array is not None
        return block.array

    def attach_index(self, index: KeyIndex) -> None:
        """Bind the key→row map; allocate shared storage and plan shards."""
        self.close()  # re-attach replaces any previous segments
        super().attach_index(index)  # type: ignore[misc]
        assert self._ids is not None
        self.plan = ShardPlan(self._ids.shape[0], self.n_shards)

    def close(self) -> None:
        """Release the shared-memory segments (idempotent).

        After closing, gather/scatter raise until a new index is attached.
        """
        if not self._blocks:
            return
        self._ids = None
        self._live = None
        self._scores = None
        self.plan = None  # shard introspection now raises cleanly too
        blocks, self._blocks = self._blocks, []
        for block in blocks:
            block.release()

    # -- shard introspection ---------------------------------------------------
    def _require_plan(self) -> ShardPlan:
        if self.plan is None:
            raise RuntimeError(
                "sharded cache has no shard plan yet; call attach_index first"
            )
        return self.plan

    def shard_occupancy(self) -> np.ndarray:
        """Initialised (live) storage rows per shard; shape ``[n_shards]``."""
        plan = self._require_plan()
        assert self._live is not None
        return plan.occupancy_of(np.flatnonzero(self._live))

    def shard_load_factors(self) -> np.ndarray:
        """Live-row fraction per shard; shape ``[n_shards]``, in [0, 1].

        The numeric per-shard occupancy the obs layer records per epoch
        (the CLI's ``cache_stats`` strings are for humans); a skewed
        vector here means the shard plan is load-imbalanced for this key
        distribution.
        """
        plan = self._require_plan()
        sizes = plan.rows_per_shard().astype(np.float64)
        return self.shard_occupancy() / np.maximum(sizes, 1.0)

    def shard_key_ownership(self) -> np.ndarray:
        """Distinct cache keys whose storage row each shard owns.

        For the ``array`` scheme this equals the shard's row count; for
        the bucketed scheme it is the number of keys hashing into the
        shard's bucket range (collisions make it exceed the row count).
        """
        plan = self._require_plan()
        index = self._index
        assert index is not None
        all_rows = self.storage_rows(  # type: ignore[attr-defined]
            np.arange(index.n_keys, dtype=np.int64)
        )
        return plan.occupancy_of(all_rows)

    def worker_layout(self) -> dict[str, object]:
        """The pieces a refresh worker needs to view this store's rows."""
        self._require_plan()
        return {
            "ids": self._ids,
            "live": self._live,
            "scores": self._scores,
            "plan": self.plan,
            "size": self.size,  # type: ignore[attr-defined]
            "store_scores": self.store_scores,  # type: ignore[attr-defined]
        }


class ShardedArrayCache(ShardedCacheStore, ArrayNegativeCache):
    """Unbounded array scheme (one row per key) in shared memory."""

    def __repr__(self) -> str:
        n_keys = self._index.n_keys if self._index is not None else 0
        return (
            f"ShardedArrayCache(size={self.size}, n_keys={n_keys}, "
            f"n_shards={self.n_shards}, entries={self.n_entries})"
        )


class ShardedBucketedArrayCache(ShardedCacheStore, BucketedArrayCache):
    """Memory-bounded bucket scheme in shared memory; shards own buckets."""

    def __repr__(self) -> str:
        return (
            f"ShardedBucketedArrayCache(size={self.size}, "
            f"n_buckets={self.n_buckets}, n_shards={self.n_shards}, "
            f"entries={self.n_entries})"
        )
