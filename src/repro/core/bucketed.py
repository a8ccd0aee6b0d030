"""Memory-bounded bucketed array cache — the paper's §VI hashing direction.

"When dealing with millions scale KG, memory of storing the cache becomes
a problem.  Using distributed computation or *hashing* will be pursued as
future works."  This engine maps cache keys onto a fixed number of
buckets: storage is ``int64[n_buckets, N1]`` (+ optional scores) no matter
how many distinct keys the training split has.  Colliding keys share one
entry, trading sampling precision for bounded memory (the extension
benchmark measures that trade-off).  Every access stays a single fancy
index because the key→bucket map is precomputed by a
:class:`~repro.data.keyindex.BucketIndex` (one vectorised
:func:`~repro.data.keyindex.stable_key_hash` pass at attach time).

Behaviour is exactly that of :class:`~repro.core.array_cache.ArrayNegativeCache`
over the bucket rows: a batch that writes two colliding keys is a batch
that repeats a row.  The bucket row-space is also what the sharded engine
splits: shards own disjoint bucket ranges regardless of the key
distribution.
"""

from __future__ import annotations

import numpy as np

from repro.core.array_cache import ArrayNegativeCache
from repro.data.keyindex import BucketIndex, KeyIndex

__all__ = ["BucketedArrayCache"]


class BucketedArrayCache(ArrayNegativeCache):
    """An :class:`ArrayNegativeCache` whose keys share ``n_buckets`` rows."""

    def __init__(
        self,
        size: int,
        n_entities: int,
        rng: np.random.Generator | int | None = None,
        *,
        n_buckets: int = 1024,
        store_scores: bool = False,
    ) -> None:
        if n_buckets <= 0:
            raise ValueError(f"n_buckets must be > 0, got {n_buckets}")
        super().__init__(size, n_entities, rng, store_scores=store_scores)
        self.n_buckets = int(n_buckets)
        self._buckets: BucketIndex | None = None

    # -- lifecycle -----------------------------------------------------------
    def _storage_rows(self, index: KeyIndex) -> int:
        # The memory bound: allocation is O(n_buckets * N1) independent of
        # the number of distinct keys.
        return self.n_buckets

    def attach_index(self, index: KeyIndex) -> None:
        """Bind the key→row map and hash every key to its bucket once."""
        self._buckets = BucketIndex(index, self.n_buckets)
        super().attach_index(index)

    def _bucket_rows(self, rows: np.ndarray) -> np.ndarray:
        self._require_index()
        assert self._buckets is not None
        return self._buckets.bucket_rows(np.asarray(rows, dtype=np.int64))

    def storage_rows(self, rows: np.ndarray) -> np.ndarray:
        """Bucket row per dense key row (colliding keys share a row)."""
        return self._bucket_rows(rows)

    # -- access (dense key rows in, bucket rows under the hood) ----------------
    def gather(self, rows: np.ndarray) -> np.ndarray:
        """Cached ids for dense key ``rows``, served from their buckets."""
        return super().gather(self._bucket_rows(rows))

    def gather_scores(self, rows: np.ndarray) -> np.ndarray:
        """Stored scores for dense key ``rows``' buckets."""
        if not self.store_scores:
            raise RuntimeError("cache was built with store_scores=False")
        return super().gather_scores(self._bucket_rows(rows))

    def scatter(
        self,
        rows: np.ndarray,
        ids: np.ndarray,
        scores: np.ndarray | None = None,
        *,
        changed: int | None = None,
    ) -> int:
        """Replace the buckets of dense key ``rows``; returns the CE count.

        Keys of one batch that collide into the same bucket follow the
        repeated-row semantics of the array engine: each write's CE is
        counted against the previous write and the last write wins —
        exactly as if the keys were written one at a time.
        A caller-derived ``changed`` hint is only valid when the *bucket*
        rows are unique, which is what callers must check via
        :meth:`storage_rows`.
        """
        return super().scatter(self._bucket_rows(rows), ids, scores, changed=changed)

    # -- key-addressed access (probing / callbacks) ----------------------------
    # Hashing serves *any* key, not just indexed ones.
    def get(self, key: tuple[int, int]) -> np.ndarray:
        """Cached ids for ``key``'s bucket (shared across colliding keys)."""
        self._require_index()
        assert self._buckets is not None
        row = np.array([self._buckets.bucket_of(key)], dtype=np.int64)
        return super().gather(row)[0]

    def scores(self, key: tuple[int, int]) -> np.ndarray:
        """Stored scores for ``key``'s bucket."""
        if not self.store_scores:
            raise RuntimeError("cache was built with store_scores=False")
        self._require_index()
        assert self._buckets is not None
        row = np.array([self._buckets.bucket_of(key)], dtype=np.int64)
        return super().gather_scores(row)[0]

    def __contains__(self, key: tuple[int, int]) -> bool:
        if self._buckets is None or self._live is None:
            return False
        return bool(self._live[self._buckets.bucket_of(key)])

    def keys(self) -> list[tuple[int, int]]:
        """Synthetic ``(bucket, 0)`` keys of all materialised buckets (real
        keys map many-to-one onto buckets)."""
        if self._live is None:
            return []
        return [(int(bucket), 0) for bucket in np.flatnonzero(self._live)]

    # -- collision / memory introspection --------------------------------------
    def _require_buckets(self) -> BucketIndex:
        # Collision stats need only the bucket index, not live storage —
        # they stay readable on a sharded store whose segments were
        # released.
        if self._buckets is None:
            raise RuntimeError(
                "BucketedArrayCache has no bucket index; call "
                "attach_index(KeyIndex) before bucket introspection"
            )
        return self._buckets

    def load_factor(self) -> float:
        """Mean indexed keys per bucket (``n_keys / n_buckets``)."""
        return self._require_buckets().load_factor()

    def n_colliding_keys(self) -> int:
        """Indexed keys sharing their bucket with at least one other key."""
        return self._require_buckets().n_colliding_keys()

    def memory_bound_bytes(self) -> int:
        """Worst-case memory if every bucket materialises (the §VI bound)."""
        per_entry = self.size * 8 * (2 if self.store_scores else 1)
        return self.n_buckets * per_entry

    def __repr__(self) -> str:
        n_keys = self._index.n_keys if self._index is not None else 0
        return (
            f"BucketedArrayCache(size={self.size}, n_buckets={self.n_buckets}, "
            f"n_keys={n_keys}, entries={self.n_entries}, "
            f"store_scores={self.store_scores})"
        )
