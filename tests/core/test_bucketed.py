"""Tests for the memory-bounded bucketed array cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.array_cache import ArrayNegativeCache
from repro.core.bucketed import BucketedArrayCache
from repro.core.nscaching import make_cache
from repro.data.keyindex import BucketIndex, KeyIndex


def _index(n_keys: int = 8, n_second: int = 100) -> KeyIndex:
    return KeyIndex(
        np.arange(n_keys, dtype=np.int64), np.arange(n_keys, dtype=np.int64), n_second
    )


def _cache(size=5, n_entities=50, seed=0, n_keys=8, n_second=100, n_buckets=4,
           **kwargs):
    cache = BucketedArrayCache(
        size, n_entities, np.random.default_rng(seed), n_buckets=n_buckets, **kwargs
    )
    cache.attach_index(_index(n_keys, n_second))
    return cache


class TestConstruction:
    def test_invalid_buckets_rejected(self):
        with pytest.raises(ValueError, match="n_buckets"):
            BucketedArrayCache(4, 100, n_buckets=0)

    def test_gather_before_attach_rejected(self):
        cache = BucketedArrayCache(5, 20, n_buckets=4)
        with pytest.raises(RuntimeError, match="attach_index"):
            cache.gather(np.array([0]))

    def test_introspection_requires_index(self):
        cache = BucketedArrayCache(4, 100, n_buckets=3)
        with pytest.raises(RuntimeError, match="attach_index"):
            cache.load_factor()
        with pytest.raises(RuntimeError, match="attach_index"):
            cache.n_colliding_keys()

    def test_make_cache_builds_engine_with_buckets(self):
        cache = make_cache("bucketed-array", 4, 20, 0, n_buckets=3)
        assert isinstance(cache, BucketedArrayCache)
        assert cache.size == 4 and cache.n_buckets == 3
        assert make_cache("bucketed-array", 4, 20, 0).n_buckets == 1024

    def test_make_cache_rejects_buckets_for_plain_engine(self):
        with pytest.raises(ValueError, match="does not accept n_buckets"):
            make_cache("array", 4, 20, 0, n_buckets=3)


class TestMemoryBound:
    def test_allocation_is_bucket_count_not_key_count(self):
        """The §VI bound: storage rows == n_buckets regardless of keys."""
        small = _cache(size=4, n_keys=6, n_buckets=16)
        large = _cache(size=4, n_keys=96, n_second=200, n_buckets=16)
        assert small.allocated_bytes() == large.allocated_bytes()
        # int64 ids [16, 4] + live bitmap [16].
        assert small.allocated_bytes() == 16 * 4 * 8 + 16

    def test_memory_bound_formula(self):
        cache = _cache(size=10, n_buckets=8)
        assert cache.memory_bound_bytes() == 8 * 10 * 8
        with_scores = _cache(size=10, n_buckets=8, store_scores=True)
        assert with_scores.memory_bound_bytes() == 2 * 8 * 10 * 8

    def test_entries_bounded_by_buckets(self):
        cache = _cache(n_keys=50, n_second=64, n_buckets=5)
        cache.gather(np.arange(50, dtype=np.int64))
        assert cache.n_entries <= 5


class TestCollisions:
    def test_colliding_rows_share_entry(self):
        cache = _cache(n_buckets=1)
        out = cache.gather(np.array([0, 5]))
        np.testing.assert_array_equal(out[0], out[1])
        assert cache.initialised_entries == 1

    def test_scatter_via_any_alias(self):
        cache = _cache(size=3, n_buckets=1)
        cache.scatter(np.array([0]), np.array([[1, 2, 3]]))
        np.testing.assert_array_equal(cache.gather(np.array([7]))[0], [1, 2, 3])

    def test_colliding_writes_count_ce_sequentially(self):
        """Two keys, one bucket: the second write's CE is counted against
        the first write's contents, and the last write wins."""
        cache = _cache(size=3, n_buckets=1)
        cache.scatter(np.array([0]), np.array([[1, 2, 3]]))
        cache.reset_counters()
        ids = np.array([[4, 5, 6], [4, 5, 7]])
        # write #1 vs {1,2,3}: 3 changed; write #2 vs {4,5,6}: 1 changed.
        assert cache.scatter(np.array([2, 6]), ids) == 4
        np.testing.assert_array_equal(cache.gather(np.array([0]))[0], [4, 5, 7])

    def test_introspection(self):
        cache = _cache(n_keys=12, n_buckets=1)
        assert cache.load_factor() == 12.0
        assert cache.n_colliding_keys() == 12
        assert "n_buckets=1" in repr(cache)


class TestKeyAddressed:
    def test_get_and_contains_hash_any_key(self):
        cache = _cache(n_buckets=1)
        assert (123, 456) not in cache  # nothing materialised yet
        entry = cache.get((0, 0))
        assert entry.shape == (5,)
        # Single bucket: every key, indexed or not, now hits it.
        assert (123, 456) in cache
        np.testing.assert_array_equal(cache.get((123, 456)), entry)

    def test_keys_are_bucket_keys(self):
        cache = _cache(n_buckets=1)
        cache.gather(np.array([3]))
        assert cache.keys() == [(0, 0)]


class TestScores:
    def test_scores_roundtrip_through_buckets(self):
        cache = _cache(size=3, n_buckets=2, store_scores=True)
        cache.scatter(
            np.array([0]), np.array([[1, 2, 3]]), np.array([[0.1, 0.2, 0.3]])
        )
        np.testing.assert_allclose(
            cache.gather_scores(np.array([0]))[0], [0.1, 0.2, 0.3]
        )

    def test_scores_by_any_colliding_key(self):
        """Key-addressed scores hash the key, indexed or not."""
        cache = _cache(size=2, n_buckets=1, store_scores=True)
        cache.scatter(np.array([3]), np.array([[5, 6]]), np.array([[0.5, 0.6]]))
        np.testing.assert_allclose(cache.scores((1, 2)), [0.5, 0.6])
        np.testing.assert_allclose(cache.scores((123, 456)), [0.5, 0.6])

    def test_scores_require_flag(self):
        cache = _cache(size=3, n_buckets=2)
        with pytest.raises(RuntimeError, match="store_scores"):
            cache.gather_scores(np.array([0]))
        with pytest.raises(RuntimeError, match="store_scores"):
            cache.scores((0, 0))


N_KEYS = 6
N_BUCKETS = 3  # < N_KEYS, so the op sequences exercise collisions
N_ENTITIES = 30
ENTRY = 4

# One operation = (op, rows): gather the rows, or scatter fresh ids there.
_ops = st.lists(
    st.tuples(
        st.sampled_from(["gather", "scatter"]),
        st.lists(st.integers(0, N_KEYS - 1), min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=12,
)


class TestBucketedIsArrayOverBucketRows:
    """The bucketed engine is the array engine over a key index remapped to
    bucket ids: same entries, CE, counters and memory for any op sequence."""

    @given(ops=_ops, data_seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_same_entries_ce_and_memory(self, ops, data_seed):
        index = _index(N_KEYS, N_KEYS)
        bucketed = BucketedArrayCache(
            ENTRY, N_ENTITIES, np.random.default_rng(99), n_buckets=N_BUCKETS
        )
        bucketed.attach_index(index)
        to_bucket = BucketIndex(index, N_BUCKETS).bucket_rows
        plain = ArrayNegativeCache(ENTRY, N_ENTITIES, np.random.default_rng(99))
        plain.attach_index(_index(N_BUCKETS, N_BUCKETS))  # one key per bucket
        data_rng = np.random.default_rng(data_seed)
        for op, row_list in ops:
            rows = np.array(row_list, dtype=np.int64)
            if op == "gather":
                np.testing.assert_array_equal(
                    bucketed.gather(rows), plain.gather(to_bucket(rows))
                )
            else:
                ids = data_rng.integers(0, N_ENTITIES, size=(len(rows), ENTRY))
                changed = plain.scatter(to_bucket(rows), ids)
                assert bucketed.scatter(rows, ids) == changed
        assert bucketed.changed_elements == plain.changed_elements
        assert bucketed.initialised_entries == plain.initialised_entries
        assert bucketed.memory_bytes() == plain.memory_bytes()
        assert bucketed.keys() == [(bucket, 0) for bucket, _ in plain.keys()]
        for row in range(N_KEYS):
            bucket = int(to_bucket(np.array([row]))[0])
            assert ((row, row) in bucketed) == ((bucket, bucket) in plain)
            if (row, row) in bucketed:
                np.testing.assert_array_equal(
                    bucketed.get((row, row)), plain.get((bucket, bucket))
                )

    def test_two_keys_one_bucket_share_and_ce(self):
        """The collision case, deterministically: two distinct keys landing
        in one bucket read each other's writes, and a batch writing both
        counts CE like two sequential writes."""
        index = _index(N_KEYS, N_KEYS)
        cache = BucketedArrayCache(
            ENTRY, N_ENTITIES, np.random.default_rng(99), n_buckets=N_BUCKETS
        )
        cache.attach_index(index)
        buckets = BucketIndex(index, N_BUCKETS).bucket_rows(np.arange(N_KEYS))
        first, second = next(
            np.flatnonzero(buckets == bucket)[:2]
            for bucket in range(N_BUCKETS)
            if np.count_nonzero(buckets == bucket) >= 2
        )
        ids = np.arange(ENTRY)[None, :]
        cache.scatter(np.array([first]), ids)
        np.testing.assert_array_equal(cache.get(index.key_of(second)), ids[0])
        batch = np.stack([ids[0] + 100, ids[0] + 200])
        assert cache.scatter(np.array([first, second]), batch) == 2 * ENTRY
        np.testing.assert_array_equal(cache.get(index.key_of(first)), batch[1])
