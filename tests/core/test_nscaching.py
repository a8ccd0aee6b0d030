"""Tests for the NSCaching sampler (Algorithms 2 and 3)."""

import numpy as np
import pytest

from repro.core.array_cache import ArrayNegativeCache
from repro.core.bucketed import BucketedArrayCache
from repro.core.nscaching import NSCachingSampler, refresh_rows
from repro.core.strategies import SampleStrategy, UpdateStrategy
from repro.models import make_model


@pytest.fixture
def bound_sampler(tiny_kg):
    model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
    sampler = NSCachingSampler(cache_size=6, candidate_size=6)
    sampler.bind(model, tiny_kg, rng=0)
    return sampler


class TestConstruction:
    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError, match="cache_size"):
            NSCachingSampler(cache_size=0)
        with pytest.raises(ValueError, match="cache_size"):
            NSCachingSampler(candidate_size=0)

    def test_negative_lazy_rejected(self):
        with pytest.raises(ValueError, match="lazy_epochs"):
            NSCachingSampler(lazy_epochs=-1)

    def test_sampling_before_bind_rejected(self, tiny_kg):
        sampler = NSCachingSampler()
        with pytest.raises(RuntimeError, match="must be bound"):
            sampler.sample(tiny_kg.train[:4])

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"cache_backend": "dict"}, "must be one of"),
            ({"cache_backend": "hashed", "n_buckets": 8}, "must be one of"),
            ({"n_buckets": 8}, "does not accept n_buckets"),
            ({"n_shards": 2}, "does not accept n_shards"),
            ({"cache_backend": "bucketed-array", "n_shards": 2},
             "does not accept n_shards"),
            ({"cache_backend": "bucketed-array", "n_buckets": 0}, ">= 1"),
            ({"cache_backend": "sharded-array", "n_shards": True}, "integer"),
        ],
    )
    def test_engine_options_validated_at_construction(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            NSCachingSampler(**kwargs)

    def test_sharded_class_follows_n_buckets(self, tiny_kg):
        from repro.parallel.sharded import (
            ShardedArrayCache,
            ShardedBucketedArrayCache,
        )

        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        for n_buckets, expected in ((None, ShardedArrayCache),
                                    (16, ShardedBucketedArrayCache)):
            sampler = NSCachingSampler(
                cache_backend="sharded-array", n_shards=2, n_buckets=n_buckets
            ).bind(model, tiny_kg, 0)
            try:
                assert type(sampler.head_cache) is expected
                assert sampler.head_cache.plan.n_shards == 2
            finally:
                sampler.close()

    def test_repr_mentions_paper_knobs(self):
        text = repr(NSCachingSampler(cache_size=50, candidate_size=70))
        assert "N1=50" in text and "N2=70" in text


class TestSampling:
    def test_negatives_differ_on_exactly_one_side(self, bound_sampler, tiny_kg):
        batch = tiny_kg.train[:32]
        negatives = bound_sampler.sample(batch)
        same_head = negatives[:, 0] == batch[:, 0]
        same_tail = negatives[:, 2] == batch[:, 2]
        np.testing.assert_array_equal(negatives[:, 1], batch[:, 1])
        # One side always retained (the other side may coincide by chance).
        assert np.all(same_head | same_tail)

    def test_sampled_entity_comes_from_cache(self, bound_sampler, tiny_kg):
        batch = tiny_kg.train[:8]
        negatives = bound_sampler.sample(batch)
        for pos, neg in zip(batch.tolist(), negatives.tolist()):
            h, r, t = pos
            if neg[0] != h:  # head was corrupted
                cached = bound_sampler.head_cache.get((r, t))
                assert neg[0] in cached
            elif neg[2] != t:  # tail was corrupted
                cached = bound_sampler.tail_cache.get((h, r))
                assert neg[2] in cached

    def test_cache_keys_follow_algorithm2(self, bound_sampler, tiny_kg):
        batch = tiny_kg.train[:4]
        bound_sampler.sample(batch)
        for h, r, t in batch.tolist():
            assert (r, t) in bound_sampler.head_cache
            assert (h, r) in bound_sampler.tail_cache


class TestUpdate:
    def test_update_raises_cache_scores(self, bound_sampler, tiny_kg):
        """After Alg. 3 refreshes, cached corruptions score higher than random."""
        model = bound_sampler.model
        batch = tiny_kg.train[:64]
        bound_sampler.sample(batch)
        for _ in range(5):
            bound_sampler.update(batch, batch)
        h, r, t = batch[0].tolist()
        cached_tails = bound_sampler.tail_cache.get((h, r))
        cached_scores = model.score(
            np.full(len(cached_tails), h),
            np.full(len(cached_tails), r),
            cached_tails,
        )
        random_tails = np.arange(tiny_kg.n_entities)
        random_scores = model.score(
            np.full(tiny_kg.n_entities, h),
            np.full(tiny_kg.n_entities, r),
            random_tails,
        )
        assert cached_scores.mean() > random_scores.mean()

    def test_update_counts_changed_elements(self, bound_sampler, tiny_kg):
        batch = tiny_kg.train[:16]
        bound_sampler.sample(batch)
        bound_sampler.update(batch, batch)
        assert bound_sampler.changed_elements() > 0

    def test_changed_elements_reset(self, bound_sampler, tiny_kg):
        batch = tiny_kg.train[:16]
        bound_sampler.sample(batch)
        bound_sampler.update(batch, batch)
        bound_sampler.changed_elements(reset=True)
        assert bound_sampler.changed_elements() == 0

    def test_lazy_update_skips_off_epochs(self, tiny_kg):
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        sampler = NSCachingSampler(cache_size=4, candidate_size=4, lazy_epochs=1)
        sampler.bind(model, tiny_kg, rng=0)
        batch = tiny_kg.train[:8]
        sampler.on_epoch_start(1)  # odd epoch -> skip with n=1
        sampler.sample(batch)
        sampler.update(batch, batch)
        assert sampler.changed_elements() == 0
        sampler.on_epoch_start(2)  # even epoch -> refresh
        sampler.update(batch, batch)
        assert sampler.changed_elements() > 0

    def test_lazy_init_draws_precede_fresh_candidates(self, tiny_kg):
        """A refresh of never-gathered rows initialises them first, then
        draws the fresh candidates: pre-gathering the rows changes nothing.
        (The trainer always samples before it refreshes, so trajectories
        alone never exercise this order.)"""
        samplers = []
        for pre_gather in (False, True):
            model = make_model(
                "TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0
            )
            sampler = NSCachingSampler(cache_size=4, candidate_size=4)
            sampler.bind(model, tiny_kg, rng=0)
            batch = tiny_kg.train[:16]
            rows = sampler.precompute_rows(batch)
            if pre_gather:
                sampler.head_cache.gather(rows.head)
            sampler.update(batch, batch, rows, modes=("head",))
            samplers.append(sampler.head_cache.gather(rows.head))
        np.testing.assert_array_equal(*samplers)

    def test_update_before_sample_is_safe(self, bound_sampler, tiny_kg):
        batch = tiny_kg.train[:4]
        bound_sampler.update(batch, batch)  # initialises entries on demand
        assert bound_sampler.head_cache.n_entries > 0


class TestUpdateModes:
    @pytest.mark.parametrize("bad", ["relation", "tails", "both", ""])
    def test_unknown_mode_rejected(self, bound_sampler, tiny_kg, bad):
        batch = tiny_kg.train[:4]
        with pytest.raises(ValueError, match="mode"):
            bound_sampler.update(batch, batch, modes=(bad,))

    def test_unknown_mode_rejected_even_on_lazy_epochs(self, tiny_kg):
        """Validation runs before the lazy skip: a typo'd mode may not hide
        until the next refresh epoch (and may never fall through to a
        silent tail refresh)."""
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        sampler = NSCachingSampler(cache_size=4, candidate_size=4, lazy_epochs=3)
        sampler.bind(model, tiny_kg, rng=0)
        sampler.on_epoch_start(1)  # this epoch would be lazily skipped
        batch = tiny_kg.train[:4]
        with pytest.raises(ValueError, match="mode"):
            sampler.update(batch, batch, modes=("relation",))
        assert sampler.changed_elements() == 0  # nothing was refreshed

    def test_single_mode_refreshes_only_that_cache(self, bound_sampler, tiny_kg):
        batch = tiny_kg.train[:8]
        bound_sampler.update(batch, batch, modes=("head",))
        assert bound_sampler.head_cache.changed_elements > 0
        assert bound_sampler.tail_cache.changed_elements == 0
        assert bound_sampler.tail_cache.n_entries == 0


class TestRefresh:
    def test_array_engine_by_default_and_in_repr(self, bound_sampler):
        assert type(bound_sampler.head_cache) is ArrayNegativeCache
        assert "backend=array" in repr(bound_sampler)

    def test_union_buffer_reused_across_batches(self, bound_sampler, tiny_kg):
        batch = tiny_kg.train[:16]
        bound_sampler.update(batch, batch)
        buffer = bound_sampler._union
        assert buffer is not None
        assert buffer.shape == (16, 12)  # N1 + N2 = 6 + 6
        bound_sampler.update(tiny_kg.train[16:32], tiny_kg.train[16:32])
        assert bound_sampler._union is buffer  # no reallocation

    def test_union_buffer_grows_for_larger_batches(self, bound_sampler, tiny_kg):
        bound_sampler.update(tiny_kg.train[:8], tiny_kg.train[:8])
        bound_sampler.update(tiny_kg.train[:32], tiny_kg.train[:32])
        assert bound_sampler._union.shape[0] >= 32


class TestStrategyVariants:
    @pytest.mark.parametrize("strategy", list(SampleStrategy))
    def test_all_sampling_strategies_run(self, tiny_kg, strategy):
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        sampler = NSCachingSampler(
            cache_size=4, candidate_size=4, sample_strategy=strategy
        )
        sampler.bind(model, tiny_kg, rng=0)
        batch = tiny_kg.train[:8]
        negatives = sampler.sample(batch)
        sampler.update(batch, negatives)
        assert negatives.shape == batch.shape

    @pytest.mark.parametrize("strategy", list(UpdateStrategy))
    def test_all_update_strategies_run(self, tiny_kg, strategy):
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        sampler = NSCachingSampler(
            cache_size=4, candidate_size=4, update_strategy=strategy
        )
        sampler.bind(model, tiny_kg, rng=0)
        batch = tiny_kg.train[:8]
        negatives = sampler.sample(batch)
        sampler.update(batch, negatives)
        assert sampler.changed_elements() >= 0

    def test_score_storing_only_when_needed(self, tiny_kg):
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        uniform = NSCachingSampler(sample_strategy="uniform").bind(model, tiny_kg, 0)
        importance = NSCachingSampler(sample_strategy="importance").bind(
            model, tiny_kg, 0
        )
        assert not uniform.head_cache.store_scores
        assert importance.head_cache.store_scores


class TestRefreshRows:
    """The shared Alg. 3 refresh, called directly as the pool workers do."""

    def _setup(self, tiny_kg, store_scores=False):
        model = make_model("DistMult", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        sampler = NSCachingSampler(
            cache_size=4, candidate_size=3,
            sample_strategy="importance" if store_scores else "uniform",
        ).bind(model, tiny_kg, 0)
        batch = tiny_kg.train[:16]
        rows = sampler.precompute_rows(batch).tail
        unique = np.unique(rows, return_index=True)[1]  # one write per row
        return model, sampler.tail_cache, batch[unique], rows[unique]

    def test_returns_ce_and_fills_the_callers_buffer(self, tiny_kg):
        model, cache, batch, rows = self._setup(tiny_kg)
        before = cache.gather(rows)
        union = np.full((len(rows), 7), -1, dtype=np.int64)
        ce = refresh_rows(
            cache, rows, cache.storage_rows(rows), batch[:, 0], batch[:, 1],
            "tail", model, n_entities=tiny_kg.n_entities, candidate_size=3,
            update_strategy=UpdateStrategy.IMPORTANCE,
            rng=np.random.default_rng(1), union=union,
        )
        np.testing.assert_array_equal(union[:, :4], before)
        assert union[:, 4:].min() >= 0
        assert ce == cache.changed_elements
        after = cache.gather(rows)
        # Survivors come from the union of each row's entry and draws.
        for row_union, row_after in zip(union, after):
            assert set(row_after.tolist()) <= set(row_union.tolist())

    def test_co_stored_scores_are_the_survivors_scores(self, tiny_kg):
        model, cache, batch, rows = self._setup(tiny_kg, store_scores=True)
        refresh_rows(
            cache, rows, cache.storage_rows(rows), batch[:, 0], batch[:, 1],
            "tail", model, n_entities=tiny_kg.n_entities, candidate_size=3,
            update_strategy=UpdateStrategy.TOP, rng=np.random.default_rng(1),
        )
        ids, scores = cache.gather(rows), cache.gather_scores(rows)
        expected = model.score_candidates(batch[:, 0], batch[:, 1], ids, "tail")
        np.testing.assert_allclose(scores, expected, rtol=1e-12)


class TestNonFiniteScores:
    """A diverged model must not silently refill the caches."""

    def test_nan_scores_raise_naming_mode_and_count(self, bound_sampler, tiny_kg):
        batch = tiny_kg.train[:8]
        bound_sampler.model.params["entity"][:] = np.nan
        rows = bound_sampler.precompute_rows(batch).head
        before = bound_sampler.head_cache.gather(rows)
        with pytest.raises(ValueError, match=r"head cache refresh: 96 of 96 "):
            bound_sampler.update(batch, batch)
        np.testing.assert_array_equal(bound_sampler.head_cache.gather(rows), before)
        assert bound_sampler.changed_elements() == 0

    def test_partial_inf_scores_counted(self, bound_sampler, tiny_kg):
        batch = tiny_kg.train[:8]
        bound_sampler.model.params["entity"][int(batch[0, 0])] = np.inf
        with pytest.raises(ValueError, match="tail cache refresh: .* non-finite"):
            bound_sampler.update(batch, batch, modes=("tail",))


class TestBucketedIntegration:
    def test_bucketed_cache_bounds_entries(self, tiny_kg):
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        sampler = NSCachingSampler(
            cache_size=4, candidate_size=4, cache_backend="bucketed-array",
            n_buckets=7,
        )
        sampler.bind(model, tiny_kg, rng=0)
        assert isinstance(sampler.head_cache, BucketedArrayCache)
        for start in range(0, len(tiny_kg.train), 32):
            batch = tiny_kg.train[start : start + 32]
            sampler.update(batch, sampler.sample(batch))
        assert sampler.head_cache.n_entries <= 7
        assert sampler.tail_cache.n_entries <= 7

    def test_no_parameters_added(self, bound_sampler):
        """Table I: NSCaching adds no trainable parameters."""
        assert not hasattr(bound_sampler, "generator")
