"""ShardedCacheStore ↔ unsharded engine bit-parity and lifecycle.

Sharding only changes where the storage bytes live (shared memory) and
how the row-space is described (the shard plan); gather/scatter/CE/RNG
semantics must be bit-identical to the unsharded inner scheme for any
``n_shards`` — including colliding bucket writes and co-stored scores.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.array_cache import ArrayNegativeCache
from repro.core.bucketed import BucketedArrayCache
from repro.core.nscaching import make_cache
from repro.data.keyindex import KeyIndex
from repro.parallel.sharded import (
    ShardedArrayCache,
    ShardedBucketedArrayCache,
    ShardedCacheStore,
)

N_KEYS = 6
N_ENTITIES = 30
ENTRY = 4
N_BUCKETS = 3  # < N_KEYS so bucket collisions are exercised


def _index() -> KeyIndex:
    return KeyIndex(
        np.arange(N_KEYS, dtype=np.int64),
        np.arange(N_KEYS, dtype=np.int64),
        N_KEYS,
    )


def _pair(inner, n_shards, store_scores=False):
    """(unsharded reference, sharded store) with identical seeds."""
    if inner == "array":
        reference = ArrayNegativeCache(
            ENTRY, N_ENTITIES, np.random.default_rng(99), store_scores=store_scores
        )
    else:
        reference = BucketedArrayCache(
            ENTRY,
            N_ENTITIES,
            np.random.default_rng(99),
            n_buckets=N_BUCKETS,
            store_scores=store_scores,
        )
    sharded = make_cache(
        "sharded-array",
        ENTRY,
        N_ENTITIES,
        np.random.default_rng(99),
        store_scores=store_scores,
        n_shards=n_shards,
        n_buckets=N_BUCKETS if inner == "bucketed-array" else None,
    )
    index = _index()
    reference.attach_index(index)
    sharded.attach_index(index)
    return reference, sharded


_ops = st.lists(
    st.tuples(
        st.sampled_from(["gather", "scatter"]),
        st.lists(st.integers(0, N_KEYS - 1), min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=12,
)


class TestShardedUnshardedParity:
    """The tentpole invariant: n_shards is storage layout, not semantics."""

    @given(
        ops=_ops,
        data_seed=st.integers(0, 2**16),
        n_shards=st.sampled_from([1, 2, 3, 5]),
        inner=st.sampled_from(["array", "bucketed-array"]),
        store_scores=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_entries_scores_and_ce(
        self, ops, data_seed, n_shards, inner, store_scores
    ):
        reference, sharded = _pair(inner, n_shards, store_scores)
        try:
            data_rng = np.random.default_rng(data_seed)
            for op, row_list in ops:
                rows = np.array(row_list, dtype=np.int64)
                if op == "gather":
                    np.testing.assert_array_equal(
                        reference.gather(rows), sharded.gather(rows)
                    )
                    if store_scores:
                        np.testing.assert_array_equal(
                            reference.gather_scores(rows),
                            sharded.gather_scores(rows),
                        )
                else:
                    ids = data_rng.integers(0, N_ENTITIES, size=(len(rows), ENTRY))
                    scores = data_rng.random((len(rows), ENTRY)) if store_scores else None
                    assert reference.scatter(rows, ids, scores) == sharded.scatter(
                        rows, ids, scores
                    )
            assert reference.changed_elements == sharded.changed_elements
            assert reference.initialised_entries == sharded.initialised_entries
            assert reference.n_entries == sharded.n_entries
            assert reference.memory_bytes() == sharded.memory_bytes()
            np.testing.assert_array_equal(
                reference.storage_rows(np.arange(N_KEYS)),
                sharded.storage_rows(np.arange(N_KEYS)),
            )
            for row in range(N_KEYS):
                key = (row, row)
                assert (key in reference) == (key in sharded)
                if key in reference:
                    np.testing.assert_array_equal(
                        reference.get(key), sharded.get(key)
                    )
        finally:
            sharded.close()


class TestShardPlanIntrospection:
    def test_plan_covers_storage_rows(self):
        _, sharded = _pair("array", 3)
        try:
            assert sharded.plan.n_rows == N_KEYS
            assert sharded.plan.n_shards == 3
            assert sharded.shard_key_ownership().sum() == N_KEYS
        finally:
            sharded.close()

    def test_bucketed_plan_partitions_buckets_not_keys(self):
        _, sharded = _pair("bucketed-array", 2)
        try:
            assert sharded.plan.n_rows == N_BUCKETS
            # Every key's bucket row falls in some shard; collisions mean
            # ownership counts keys, not rows.
            assert sharded.shard_key_ownership().sum() == N_KEYS
        finally:
            sharded.close()

    def test_shard_occupancy_tracks_live_rows(self):
        _, sharded = _pair("array", 2)
        try:
            assert sharded.shard_occupancy().sum() == 0
            sharded.gather(np.array([0, 5]))  # materialises two rows
            occupancy = sharded.shard_occupancy()
            assert occupancy.sum() == 2
            np.testing.assert_array_equal(occupancy, [1, 1])  # rows 0-2 / 3-5
        finally:
            sharded.close()


class TestLifecycle:
    def test_close_releases_and_blocks_access(self):
        _, sharded = _pair("array", 2)
        sharded.gather(np.array([0]))
        sharded.close()
        with pytest.raises(RuntimeError, match="no storage"):
            sharded.gather(np.array([0]))
        with pytest.raises(RuntimeError, match="no shard plan"):
            sharded.shard_occupancy()
        with pytest.raises(RuntimeError, match="no shard plan"):
            sharded.worker_layout()
        sharded.close()  # idempotent

    def test_reattach_replaces_segments(self):
        _, sharded = _pair("array", 2)
        try:
            sharded.gather(np.array([0]))
            sharded.attach_index(_index())
            assert sharded.n_entries == 0  # fresh storage
        finally:
            sharded.close()

    def test_make_cache_picks_the_sharded_class_from_n_buckets(self):
        store = make_cache("sharded-array", ENTRY, N_ENTITIES, 0, n_shards=2)
        assert isinstance(store, ShardedArrayCache)
        store.attach_index(_index())
        store.close()
        bucketed = make_cache(
            "sharded-array", ENTRY, N_ENTITIES, 0,
            n_shards=2, n_buckets=N_BUCKETS,
        )
        assert isinstance(bucketed, ShardedBucketedArrayCache)
        assert isinstance(bucketed, ShardedCacheStore)
        bucketed.attach_index(_index())
        bucketed.close()


class TestOptionValidation:
    """Bad option values fail early with ValueError (the CLI exit-2 path)."""

    @pytest.mark.parametrize(
        "options",
        (
            {"n_shards": 0},
            {"n_shards": -3},
            {"n_shards": 2.5},
            {"n_shards": True},
            {"n_buckets": 0},
            {"n_buckets": "many"},
        ),
    )
    def test_sharded_option_values_rejected(self, options):
        with pytest.raises(ValueError, match="n_shards|n_buckets"):
            make_cache("sharded-array", ENTRY, N_ENTITIES, 0, **options)

    @pytest.mark.parametrize("backend", ("sharded-array", "bucketed-array"))
    @pytest.mark.parametrize("n_buckets", (0, -1, "many"))
    def test_bucket_counts_rejected_before_allocation(self, backend, n_buckets):
        with pytest.raises(ValueError, match="n_buckets"):
            make_cache(backend, ENTRY, N_ENTITIES, 0, n_buckets=n_buckets)

    @pytest.mark.parametrize(
        "backend, options",
        (
            ("array", {"n_buckets": 8}),
            ("array", {"n_shards": 2}),
            ("bucketed-array", {"n_shards": 2}),
            ("dict", {}),
            ("hashed", {"n_buckets": 8}),
        ),
    )
    def test_option_for_another_engine_rejected(self, backend, options):
        with pytest.raises(ValueError, match="does not accept|must be one of"):
            make_cache(backend, ENTRY, N_ENTITIES, 0, **options)
