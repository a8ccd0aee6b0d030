"""Sharded cache row-space and multiprocess epoch refresh.

The NSCaching refresh is the trainer's dominant cost and is
embarrassingly parallel once write ownership is made explicit: cache
storage rows are the unit of ownership, and batches touching disjoint
row ranges can refresh concurrently with zero locking.  This package
provides the three pieces:

* :class:`~repro.parallel.plan.ShardPlan` — partitions a storage
  row-space (key rows or bucket rows) into contiguous shard ranges and
  assigns each batch's touched rows to shards;
* :class:`~repro.parallel.sharded.ShardedCacheStore` — the
  ``sharded-array`` cache backend: the array engine's storage moved into
  ``multiprocessing.shared_memory`` with a shard plan overlaid,
  bit-identical to the unsharded engines under a seed;
* :class:`~repro.parallel.pool.RefreshPool` — persistent worker
  processes running the shared Alg. 3 refresh per shard against
  the shared storage, with deterministic per-``(mode, shard, epoch,
  batch)`` RNG streams and a bit-identical in-process fallback.

``NSCachingSampler(refresh_workers=..., cache_backend="sharded-array")``
wires them together; the CLI exposes ``--n-shards``/``--refresh-workers``.
"""

from repro.parallel.dirty import DirtyRowTracker
from repro.parallel.plan import ShardPlan
from repro.parallel.pool import RefreshPool, ShardResult, ShardTask, SyncReport
from repro.parallel.sharded import (
    ShardedArrayCache,
    ShardedBucketedArrayCache,
    ShardedCacheStore,
    SharedArrayBlock,
)

__all__ = [
    "DirtyRowTracker",
    "RefreshPool",
    "ShardPlan",
    "ShardResult",
    "ShardTask",
    "ShardedArrayCache",
    "ShardedBucketedArrayCache",
    "ShardedCacheStore",
    "SharedArrayBlock",
    "SyncReport",
]
