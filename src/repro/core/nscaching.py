"""NSCaching — the paper's contribution (Algorithms 2 and 3).

For every positive triple ``(h, r, t)`` the sampler keeps a head cache
``H[(r, t)]`` and a tail cache ``T[(h, r)]`` of ``N1`` entity ids each:

* **sample** (Alg. 2 steps 5-7): index both caches, draw one candidate
  head and one candidate tail (uniformly by default — §III-B1), then keep
  either the head- or the tail-corruption via the Bernoulli coin;
* **update** (Alg. 2 step 8 / Alg. 3): union each cache entry with ``N2``
  fresh uniform entities, score all ``N1 + N2`` corruptions with the
  *current* model, and resample ``N1`` survivors without replacement with
  probability ``softmax(score)`` (importance sampling — §III-B2).

Exploration/exploitation: larger ``N1`` = more exploitation (more stored
hard negatives), larger ``N2`` = more exploration (faster refresh).  The
cache update may be applied lazily every ``lazy_epochs + 1`` epochs,
dividing its cost by ``n + 1`` (Table I).

Hot-loop layout: at :meth:`bind` time the distinct cache keys of the
training split are enumerated once into a
:class:`~repro.data.keyindex.TripleKeyIndex`, and both caches are
:class:`~repro.core.array_cache.ArrayNegativeCache` engines addressed by
dense row indices.  A batch access is then one vectorised ``gather`` and a
refresh one ``scatter`` — no per-triple Python tuples or loops.  The
trainer can precompute the row indices of the whole split once
(:meth:`precompute_rows`) and pass per-batch slices in.  ``cache_backend``
picks the engine's storage: ``array`` (one row per key), ``bucketed-array``
(§VI bounded memory: keys hash onto ``n_buckets`` shared rows) or
``sharded-array`` (either scheme in shared memory, split into ``n_shards``
for the parallel refresh).

The refresh itself (Alg. 3) is one function, :func:`refresh_rows`, shared
by the sequential path and the refresh pool's workers: the candidate union
is assembled in one block, scored in one shot through the model's
:meth:`~repro.models.base.KGEModel.score_candidates` kernel, and the
top-``N1`` survivors go straight from ``argpartition`` into the cache
``scatter``.  Committed golden trajectories
(``tests/goldens/engine_goldens.npz``) pin its results under a seed.

With ``refresh_workers >= 2`` (and the ``sharded-array`` backend) the
refresh instead runs on a :class:`~repro.parallel.pool.RefreshPool`:
each batch is split by the cache's shard plan and every touched shard's
slice is refreshed by a worker process against shared-memory storage,
drawing from its own ``(seed, mode, shard, epoch, batch)`` stream —
deterministic and worker-count-independent, though a different (equally
valid) trajectory than the sequential single-stream path.

Batching note: the paper updates caches triple-by-triple; this
implementation vectorises over the batch.  When two rows of one batch share
a cache key, both read the same pre-batch entry and the later write wins —
an O(1/|S|) -probability event that only delays one refresh.

No trainable parameters are added, and the KG embedding model trains with
plain gradient descent from scratch — the two properties Table I
contrasts with IGAN/KBGAN.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # runtime imports stay lazy to keep repro.parallel optional
    from repro.parallel.pool import RefreshPool, ShardResult, ShardTask, SyncReport

import numpy as np

from repro.core.array_cache import ArrayNegativeCache
from repro.core.bucketed import BucketedArrayCache
from repro.core.strategies import (
    SampleStrategy,
    UpdateStrategy,
    sample_from_cache,
    select_cache_survivors,
    selection_changed_elements,
)
from repro.data.dataset import KGDataset
from repro.data.keyindex import TripleKeyIndex
from repro.data.triples import HEAD, REL, TAIL
from repro.models.base import CANDIDATE_MODES, KGEModel
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer, span
from repro.optim.base import DirtyMark
from repro.sampling.base import NegativeSampler

__all__ = [
    "BatchRows",
    "CACHE_ENGINES",
    "NSCachingSampler",
    "check_cache_engine",
    "make_cache",
    "refresh_rows",
]

#: The cache storage schemes ``cache_backend`` selects between.
CACHE_ENGINES: tuple[str, ...] = ("array", "bucketed-array", "sharded-array")

def check_cache_engine(
    backend: str, n_buckets: int | None = None, n_shards: int | None = None
) -> None:
    """Raise ``ValueError`` for an unknown engine or a bad option for it.

    ``n_buckets`` applies to ``bucketed-array`` and ``sharded-array`` (which
    then shards the bucket scheme), ``n_shards`` only to ``sharded-array``;
    both must be integers >= 1.  Called at sampler construction, so a bad
    ``--n-buckets``/``--n-shards`` fails before any data is loaded.
    """
    if backend not in CACHE_ENGINES:
        raise ValueError(
            f"cache_backend must be one of {CACHE_ENGINES}, got {backend!r}"
        )
    for name, value, backends in (
        ("n_buckets", n_buckets, ("bucketed-array", "sharded-array")),
        ("n_shards", n_shards, ("sharded-array",)),
    ):
        if value is None:
            continue
        if backend not in backends:
            raise ValueError(
                f"cache backend {backend!r} does not accept {name}; "
                f"it applies to {' / '.join(backends)}"
            )
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {int(value)}")


def make_cache(
    backend: str,
    size: int,
    n_entities: int,
    rng: np.random.Generator | int | None = None,
    *,
    store_scores: bool = False,
    n_buckets: int | None = None,
    n_shards: int | None = None,
) -> ArrayNegativeCache:
    """The cache engine ``backend`` names, with its options checked.

    ``sharded-array`` shards the bucket scheme when ``n_buckets`` is given
    and the one-row-per-key scheme otherwise; ``bucketed-array`` defaults
    to 1024 buckets.
    """
    check_cache_engine(backend, n_buckets, n_shards)
    if backend == "sharded-array":
        from repro.parallel.sharded import (
            ShardedArrayCache,
            ShardedBucketedArrayCache,
        )

        shards = 1 if n_shards is None else int(n_shards)
        if n_buckets is None:
            return ShardedArrayCache(
                size, n_entities, rng, n_shards=shards, store_scores=store_scores
            )
        return ShardedBucketedArrayCache(
            size, n_entities, rng, n_shards=shards,
            n_buckets=int(n_buckets), store_scores=store_scores,
        )
    if backend == "bucketed-array":
        return BucketedArrayCache(
            size, n_entities, rng, store_scores=store_scores,
            n_buckets=1024 if n_buckets is None else int(n_buckets),
        )
    return ArrayNegativeCache(size, n_entities, rng, store_scores=store_scores)


def refresh_rows(
    cache: ArrayNegativeCache,
    rows: np.ndarray,
    storage_rows: np.ndarray,
    anchors: np.ndarray,
    relations: np.ndarray,
    mode: str,
    model: KGEModel,
    *,
    n_entities: int,
    candidate_size: int,
    update_strategy: UpdateStrategy,
    rng: np.random.Generator,
    union: np.ndarray | None = None,
    tracer: Tracer | None = None,
) -> int:
    """Algorithm 3 for one cache side, vectorised over ``rows``; returns CE.

    The cached entries and ``candidate_size`` fresh uniform draws land in
    one ``[B, N1+N2]`` union block (``union``, a caller-owned buffer, or a
    new one), the block is scored once through ``model.score_candidates``
    (the corruptions of ``(anchor, relation)`` on the ``mode`` side), and
    the ``N1`` survivors go from the selection straight into the cache
    ``scatter``, with the CE count derived from the selection's column
    structure where that is exact.  ``storage_rows`` are ``rows`` as the
    cache stores them (:meth:`~ArrayNegativeCache.storage_rows`).

    Non-finite candidate scores raise ``ValueError`` before anything is
    written: softmax selection over NaN/inf picks arbitrary ids.

    With a ``tracer`` the scoring call is recorded as the
    ``score_candidates`` phase span (args: ``mode``, ``rows``).

    Both the sequential refresh and the refresh pool's workers run this
    function; ``select_cache_survivors`` and ``selection_changed_elements``
    are looked up in this module at call time.
    """
    n1 = cache.size
    if union is None:
        union = np.empty((len(rows), n1 + candidate_size), dtype=np.int64)
    union[:, :n1] = cache.gather(rows)
    union[:, n1:] = rng.integers(
        0, n_entities, size=(len(rows), candidate_size), dtype=np.int64
    )
    with span(tracer, "score_candidates", "train", {"mode": mode, "rows": len(rows)}):
        scores = model.score_candidates(anchors, relations, union, mode)
    finite = np.isfinite(scores)
    if not finite.all():
        raise ValueError(
            f"{mode} cache refresh: {finite.size - int(np.count_nonzero(finite))} "
            f"of {finite.size} candidate scores are non-finite (diverged "
            "parameters?); refusing to refresh the cache from them"
        )
    selection = select_cache_survivors(
        union, scores, n1, update_strategy, rng,
        return_scores=cache.store_scores, return_selection=True,
    )
    changed = selection_changed_elements(selection, storage_rows, n1)
    return cache.scatter(rows, selection.ids, selection.scores, changed=changed)


class _RefreshMetrics:
    """Pre-resolved instrument handles for the sampler's hot paths.

    Built once when a :class:`~repro.obs.registry.MetricsRegistry` is
    attached, so a refresh pays a handful of attribute adds — never a
    registry lookup.  The refresh counters carry a ``mode`` label
    (head/tail cache).  Timings are not counted here: they are spans.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        def per_mode(name: str, help: str) -> dict[str, object]:
            return {
                mode: registry.counter(name, help, labels={"mode": mode})
                for mode in CANDIDATE_MODES
            }

        self.batches = per_mode(
            "cache_refresh_batches_total", "cache refresh calls (Alg. 3 batches)"
        )
        self.rows = per_mode(
            "cache_refresh_rows_total", "cache entries refreshed"
        )
        self.candidates = per_mode(
            "cache_refresh_candidates_total",
            "candidate entities scored during refreshes (rows * (N1+N2))",
        )
        self.changed = per_mode(
            "cache_changed_elements_total",
            "cache elements replaced by refreshes (the CE / churn metric)",
        )
        self.sync_bytes = registry.counter(
            "param_sync_bytes_total",
            "parameter bytes published into the refresh pool's shared blocks",
        )
        self.sync_rows = registry.counter(
            "param_sync_rows_total",
            "parameter rows published into the refresh pool's shared blocks",
        )
        self.sync_full_tables = registry.counter(
            "param_sync_full_tables_total",
            "parameter tables that took the full-copy sync path",
        )
        self.sync_dirty_fraction = registry.gauge(
            "param_sync_dirty_fraction",
            "fraction of full parameter bytes the most recent sync shipped",
        )


class BatchRows(NamedTuple):
    """Per-triple cache-row indices: head cache (r,t) and tail cache (h,r)."""

    head: np.ndarray
    tail: np.ndarray

    def take(self, indices: np.ndarray) -> "BatchRows":
        """Rows for a subset of the indexed triples."""
        return BatchRows(self.head[indices], self.tail[indices])


class NSCachingSampler(NegativeSampler):
    """Cache-based negative sampling (Algorithm 2)."""

    name = "NSCaching"

    def __init__(
        self,
        *,
        cache_size: int = 50,
        candidate_size: int = 50,
        sample_strategy: SampleStrategy | str = SampleStrategy.UNIFORM,
        update_strategy: UpdateStrategy | str = UpdateStrategy.IMPORTANCE,
        lazy_epochs: int = 0,
        bernoulli: bool = True,
        cache_backend: str = "array",
        n_buckets: int | None = None,
        n_shards: int | None = None,
        refresh_workers: int = 1,
        refresh_processes: bool = True,
        refresh_period: int = 1,
        refresh_overlap: bool = False,
        dirty_sync: bool = True,
    ) -> None:
        """
        Parameters
        ----------
        cache_size:
            ``N1``, entities kept per cache entry (paper default 50).
        candidate_size:
            ``N2``, fresh uniform candidates per refresh (paper default 50).
        sample_strategy:
            Step 6 strategy; the paper selects ``uniform`` (Fig. 6a).
        update_strategy:
            Alg. 3 strategy; the paper selects ``importance`` (Fig. 6b).
        lazy_epochs:
            ``n`` — skip cache refreshes except every ``n+1``-th epoch.
        bernoulli:
            Use the relation-aware head/tail coin (paper §IV-B1).
        cache_backend:
            The cache engine's storage, one of :data:`CACHE_ENGINES`:
            ``"array"`` (one row per key, default), ``"bucketed-array"``
            (the §VI memory bound: keys hash onto ``n_buckets`` shared
            rows) or ``"sharded-array"`` (shared memory split into
            ``n_shards``, required by ``refresh_workers > 1``).  With one
            refresh worker the sharded engine trains bit-identically to
            its unsharded scheme under a fixed seed.
        n_buckets:
            Bucket rows for ``bucketed-array`` (default 1024), or for
            ``sharded-array``, which then shards the bucket scheme.
            Cache memory becomes ``O(n_buckets * N1)``.
        n_shards:
            Shards of the ``sharded-array`` row-space (default 1).
        refresh_workers:
            ``>= 2`` runs cache refreshes on a
            :class:`~repro.parallel.pool.RefreshPool` of that many worker
            processes (requires ``cache_backend="sharded-array"``).  Each
            shard's slice draws from its own ``(seed, mode, shard, epoch,
            batch)`` stream, so results are deterministic and independent
            of the worker count — but a *different* (equally valid)
            trajectory than the sequential single-stream path.  The
            default ``1`` keeps the sequential refresh, bit-identical to
            the ``array`` backend under a fixed seed.
        refresh_processes:
            ``False`` makes the parallel refresh run its shard tasks
            inline in this process (the deterministic fallback) instead
            of forking workers — bit-identical to process execution; used
            by the parity tests and on platforms without ``fork``.
        refresh_period:
            ``k`` — refresh the caches only every ``k``-th batch of an
            epoch (default 1 = every batch).  The lazy *within-epoch*
            schedule of the journal follow-up (arXiv 2010.14227),
            orthogonal to ``lazy_epochs`` (which skips whole epochs):
            divides the refresh *and* parameter-sync cost by ``k`` while
            caches go at most ``k - 1`` batches stale.  The per-epoch
            batch counter still advances on skipped batches, so the
            parallel task streams stay aligned across periods.
        refresh_overlap:
            Overlap the parallel refresh with the training step: the
            batch's shard tasks are *dispatched* against a pre-step
            parameter snapshot (double-buffered in the pool) and the
            results collected at the start of the next batch — Alg. 3
            only needs pre-step parameters, so the refresh runs for free
            behind the gradients/optimizer phases.  Results stay
            bit-identical to the synchronous parallel path.  Requires
            ``refresh_workers >= 2``.
        dirty_sync:
            Allow delta-based parameter publishes to the pool: the
            trainer reports optimizer-touched rows and each sync ships
            only those slices (bit-identical to the full copy, which
            remains the first-sync / fallback path).  ``False`` pins the
            full copy for A/B benchmarking.
        """
        super().__init__(bernoulli=bernoulli)
        if cache_size <= 0 or candidate_size <= 0:
            raise ValueError(
                f"cache_size and candidate_size must be > 0, got "
                f"({cache_size}, {candidate_size})"
            )
        if lazy_epochs < 0:
            raise ValueError(f"lazy_epochs must be >= 0, got {lazy_epochs}")
        if refresh_workers < 1:
            raise ValueError(f"refresh_workers must be >= 1, got {refresh_workers}")
        check_cache_engine(cache_backend, n_buckets, n_shards)
        if refresh_workers > 1 and cache_backend != "sharded-array":
            raise ValueError(
                "refresh_workers > 1 requires cache_backend='sharded-array' "
                "(worker processes need shared-memory storage and a shard "
                f"plan); got backend {cache_backend!r}"
            )
        if refresh_period < 1:
            raise ValueError(
                f"refresh_period must be >= 1, got {refresh_period}"
            )
        if refresh_overlap and refresh_workers < 2:
            raise ValueError(
                "refresh_overlap requires refresh_workers >= 2 (the overlap "
                "dispatch/collect pipeline only exists on the pooled path)"
            )
        self.cache_size = int(cache_size)
        self.candidate_size = int(candidate_size)
        self.sample_strategy = SampleStrategy(sample_strategy)
        self.update_strategy = UpdateStrategy(update_strategy)
        self.lazy_epochs = int(lazy_epochs)
        self.cache_backend = cache_backend
        self.n_buckets = n_buckets
        self.n_shards = n_shards
        self.refresh_workers = int(refresh_workers)
        self.refresh_processes = bool(refresh_processes)
        self.refresh_period = int(refresh_period)
        self.refresh_overlap = bool(refresh_overlap)
        self.dirty_sync = bool(dirty_sync)
        self.key_index: TripleKeyIndex | None = None
        self.head_cache: ArrayNegativeCache | None = None
        self.tail_cache: ArrayNegativeCache | None = None
        #: Span tracer attached by :meth:`instrument` (``None`` = the exact
        #: seed code path).
        self.tracer: Tracer | None = None
        #: Metrics registry attached by :meth:`instrument`.
        self.metrics: MetricsRegistry | None = None
        self._mh: _RefreshMetrics | None = None  # pre-resolved handles
        self._union: np.ndarray | None = None  # sequential candidate buffer
        self._pool: RefreshPool | None = None  # created on first parallel update
        self._pool_seed: int | None = None
        self._epoch_batch = 0  # per-epoch update counter for task streams
        #: Modes of the in-flight overlapped dispatch (None = nothing pending).
        self._pending_modes: tuple[str, ...] | None = None

    # -- lifecycle ------------------------------------------------------------
    def _make_cache(self, n_entities: int, store_scores: bool) -> ArrayNegativeCache:
        return make_cache(
            self.cache_backend,
            self.cache_size,
            n_entities,
            self.rng,
            store_scores=store_scores,
            n_buckets=self.n_buckets,
            n_shards=self.n_shards,
        )

    def bind(
        self,
        model: KGEModel,
        dataset: KGDataset,
        rng: np.random.Generator | int | None = None,
    ) -> "NSCachingSampler":
        """Index the train split's cache keys and create both caches.

        Scores are co-stored only when the sampling strategy needs them
        (the paper's extra-memory note for IS/top sampling).
        """
        super().bind(model, dataset, rng)
        self.close()  # rebinding replaces caches; release pool/shared memory
        self.key_index = TripleKeyIndex.from_triples(
            dataset.train, dataset.n_entities, dataset.n_relations
        )
        store_scores = self.sample_strategy is not SampleStrategy.UNIFORM
        self.head_cache = self._make_cache(dataset.n_entities, store_scores)
        self.tail_cache = self._make_cache(dataset.n_entities, store_scores)
        self.head_cache.attach_index(self.key_index.head)
        self.tail_cache.attach_index(self.key_index.tail)
        if self.refresh_workers > 1:
            # One draw reserved for the pool's task streams.  Taken only in
            # parallel mode, so the 1-worker stream stays bit-identical to
            # the plain array backend's.
            self._pool_seed = int(self.rng.integers(0, 2**63 - 1))
        return self

    def close(self) -> None:
        """Stop the refresh pool and release shared-memory cache storage.

        Idempotent; the sampler can be re-bound afterwards.  The trainer
        and CLI call this when training finishes.  An overlapped refresh
        still in flight is collected (so its counter deltas are not
        lost) before the pool shuts down; a failed/dead pool is closed
        regardless.
        """
        try:
            self.collect_refreshes()
        except RuntimeError:
            pass  # dead workers: shutdown proceeds regardless
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        for cache in (self.head_cache, self.tail_cache):
            if cache is not None:
                cache.close()

    def on_epoch_start(self, epoch: int) -> None:
        """Epoch notification; also restarts the per-epoch batch counter."""
        super().on_epoch_start(epoch)
        self._epoch_batch = 0

    # -- observability --------------------------------------------------------
    def instrument(
        self, tracer: Tracer | None, metrics: MetricsRegistry | None
    ) -> None:
        """Attach a span tracer and a metrics registry (``None`` detaches).

        With a tracer, refreshes record the trainer's nested phases —
        ``score_candidates`` (sequential scoring), ``parallel_refresh``
        (pooled dispatch+wait) and ``refresh_overlap`` (collecting an
        overlapped refresh) — and the refresh pool ships its workers'
        ``shard_task``/``queue_wait`` spans back into it.  Attach before
        the first parallel update(): workers inherit tracing at fork.
        With a registry, every refresh reports batches/rows/candidates/
        changed-elements per cache side and the pool its parameter
        syncs, through handles resolved once here.  With neither the hot
        paths take the exact seed code path — training stays
        bit-identical (bench X8/X11 pin the instrumented overhead < 3%).
        """
        self.tracer = tracer
        self.metrics = metrics
        self._mh = None if metrics is None else _RefreshMetrics(metrics)

    # -- row resolution -----------------------------------------------------------
    def precompute_rows(self, triples: np.ndarray) -> BatchRows:
        """Cache rows for every triple; compute once, slice per batch.

        The trainer calls this for the whole training split up front and
        passes per-batch slices to :meth:`sample`/:meth:`update`, removing
        key resolution from the epoch loop entirely.
        """
        self._require_bound()
        assert self.key_index is not None
        triples = np.asarray(triples, dtype=np.int64)
        return BatchRows(
            head=self.key_index.head_rows(triples),
            tail=self.key_index.tail_rows(triples),
        )

    def _resolve_rows(self, batch: np.ndarray, rows: BatchRows | None) -> BatchRows:
        if rows is not None:
            return rows
        return self.precompute_rows(batch)

    # -- Alg. 2 steps 5-7 ---------------------------------------------------------
    def sample(self, batch: np.ndarray, rows: BatchRows | None = None) -> np.ndarray:
        """Draw one negative per positive from the caches (Alg. 2 steps 5-7).

        ``batch`` must come from the training split the sampler was bound
        to: cache storage is preallocated per distinct train-split key, so
        a triple whose ``(r, t)`` / ``(h, r)`` pair never occurs in train
        raises ``KeyError``.
        """
        self._require_bound()
        assert self.head_cache is not None and self.tail_cache is not None
        self.collect_refreshes()  # caches must be settled before gathering
        batch = np.asarray(batch, dtype=np.int64)
        rows = self._resolve_rows(batch, rows)

        head_ids = self.head_cache.gather(rows.head)  # [B, N1]
        tail_ids = self.tail_cache.gather(rows.tail)

        need_scores = self.sample_strategy is not SampleStrategy.UNIFORM
        head_scores = self.head_cache.gather_scores(rows.head) if need_scores else None
        tail_scores = self.tail_cache.gather_scores(rows.tail) if need_scores else None

        sampled_heads = sample_from_cache(
            head_ids, head_scores, self.sample_strategy, self.rng
        )
        sampled_tails = sample_from_cache(
            tail_ids, tail_scores, self.sample_strategy, self.rng
        )

        negatives = batch.copy()
        head_mask = self.choose_head_corruption(batch[:, REL])
        negatives[head_mask, HEAD] = sampled_heads[head_mask]
        negatives[~head_mask, TAIL] = sampled_tails[~head_mask]
        return negatives

    # -- Alg. 3 --------------------------------------------------------------------
    def update(
        self,
        batch: np.ndarray,
        negatives: np.ndarray,
        rows: BatchRows | None = None,
        *,
        modes: tuple[str, ...] = CANDIDATE_MODES,
    ) -> None:
        """Refresh the caches for the batch's keys (Alg. 3), unless lazy.

        As with :meth:`sample`, ``batch`` must be train-split triples.
        ``modes`` selects which caches to refresh (``"head"`` = the
        head-corruption cache keyed by ``(r, t)``, ``"tail"`` = the
        tail-corruption cache keyed by ``(h, r)``; default both).  An
        unknown mode raises ``ValueError`` up front — even on lazily
        skipped epochs — instead of silently refreshing the tail cache.

        Two lazy schedules gate the refresh: ``lazy_epochs`` skips whole
        epochs (paper Table I) and ``refresh_period`` skips within an
        epoch (every ``k``-th batch refreshes).  Skipped calls still
        advance the per-epoch batch counter, keeping the parallel task
        streams aligned regardless of the schedule.
        """
        for mode in modes:
            if mode not in CANDIDATE_MODES:
                raise ValueError(
                    f"unknown corruption mode {mode!r}; expected one of "
                    f"{CANDIDATE_MODES}"
                )
        batch_index = self._epoch_batch
        self._epoch_batch += 1
        if self.epoch % (self.lazy_epochs + 1) != 0:
            return  # lazy update: skip this epoch entirely
        if batch_index % self.refresh_period != 0:
            return  # lazy within-epoch schedule: not this batch's turn
        self._require_bound()
        batch = np.asarray(batch, dtype=np.int64)
        rows = self._resolve_rows(batch, rows)
        if self.refresh_workers > 1:
            self._parallel_refresh(batch, rows, modes, batch_index)
            return
        for mode in modes:
            self._refresh_side(batch, rows.head if mode == "head" else rows.tail, mode)

    def _union_buffer(self, n_rows: int) -> np.ndarray:
        """Persistent ``[B, N1+N2]`` block the sequential refresh fills."""
        width = self.cache_size + self.candidate_size
        if self._union is None or self._union.shape[0] < n_rows:
            self._union = np.empty((n_rows, width), dtype=np.int64)
        return self._union[:n_rows]

    def _refresh_side(self, batch: np.ndarray, rows: np.ndarray, mode: str) -> None:
        """Run Algorithm 3 for one cache on the sampler's own stream."""
        assert self.head_cache is not None and self.tail_cache is not None
        cache = self.head_cache if mode == "head" else self.tail_cache
        ce = refresh_rows(
            cache,
            rows,
            cache.storage_rows(rows),
            batch[:, TAIL] if mode == "head" else batch[:, HEAD],
            batch[:, REL],
            mode,
            self.model,
            n_entities=self.dataset.n_entities,
            candidate_size=self.candidate_size,
            update_strategy=self.update_strategy,
            rng=self.rng,
            union=self._union_buffer(len(batch)),
            tracer=self.tracer,
        )
        if self._mh is not None:
            self._observe_refresh(mode, len(batch), ce)

    def _observe_refresh(self, mode: str, n_rows: int, changed: int) -> None:
        """Fold one refreshed side into the attached registry's counters."""
        h = self._mh
        assert h is not None
        h.batches[mode].inc()
        h.rows[mode].inc(n_rows)
        h.candidates[mode].inc(n_rows * (self.cache_size + self.candidate_size))
        h.changed[mode].inc(changed)

    # -- parallel refresh (repro.parallel) -----------------------------------------
    def _ensure_pool(self) -> RefreshPool:
        """Create (and lazily start) the refresh pool on first parallel use."""
        if self._pool is None:
            from repro.parallel.pool import RefreshPool
            from repro.parallel.sharded import ShardedCacheStore

            assert self.head_cache is not None and self.tail_cache is not None
            caches = {"head": self.head_cache, "tail": self.tail_cache}
            for mode, cache in caches.items():
                if not isinstance(cache, ShardedCacheStore):
                    raise RuntimeError(
                        f"parallel refresh needs sharded caches, got "
                        f"{type(cache).__name__} for the {mode} side"
                    )
            assert self._pool_seed is not None
            self._pool = RefreshPool(
                self.model,
                caches,
                n_entities=self.dataset.n_entities,
                candidate_size=self.candidate_size,
                update_strategy=self.update_strategy,
                seed=self._pool_seed,
                n_workers=self.refresh_workers,
                use_processes=self.refresh_processes,
                double_buffer=self.refresh_overlap,
                dirty_sync=self.dirty_sync,
                trace=self.tracer is not None,
            ).start()
        return self._pool

    def dirty_mark(self) -> DirtyMark | None:
        """:meth:`mark_dirty_params` when refreshes run on a pool, else None."""
        return self.mark_dirty_params if self.refresh_workers > 1 else None

    def mark_dirty_params(self, name: str, rows: np.ndarray) -> None:
        """Report that ``model.params[name][rows]`` changed (dirty sync).

        The trainer wires this to the optimizer's ``dirty_mark`` hook (and
        reports the post-step normalisation's rows), so the pool's next
        parameter publish ships only the touched slices.  A no-op until
        the pool exists — the first sync is a full copy regardless.
        """
        if self._pool is not None:
            self._pool.mark_dirty(name, rows)

    def collect_refreshes(self) -> None:
        """Fold in an overlapped refresh dispatched by a previous update().

        The collect half of the overlap pipeline: blocks until the
        in-flight batch's workers finish (usually they already have — the
        gradient/optimizer step ran in between) and folds their counter
        deltas into the stores, recorded as the ``refresh_overlap`` phase.
        A no-op when nothing is pending, so the trainer and the sampler's
        own cache-reading paths can call it unconditionally.
        """
        pool = self._pool
        if pool is None or not pool.inflight:
            return
        with span(self.tracer, "refresh_overlap", "train"):
            try:
                results = pool.collect()
            finally:
                modes, self._pending_modes = self._pending_modes, None
            self._fold_results(results, modes or CANDIDATE_MODES)

    def _build_tasks(
        self,
        batch: np.ndarray,
        rows: BatchRows,
        modes: tuple[str, ...],
        batch_index: int,
    ) -> list[ShardTask]:
        """One ShardTask per (mode, touched shard) of this batch."""
        from repro.parallel.pool import ShardTask

        tasks: list[ShardTask] = []
        for mode in modes:
            cache = self.head_cache if mode == "head" else self.tail_cache
            assert cache is not None
            side_rows = rows.head if mode == "head" else rows.tail
            storage_rows = cache.storage_rows(side_rows)
            anchors = batch[:, TAIL] if mode == "head" else batch[:, HEAD]
            relations = batch[:, REL]
            for shard, positions in cache.plan.split(storage_rows):
                tasks.append(
                    ShardTask(
                        mode=mode,
                        shard=shard,
                        epoch=self.epoch,
                        batch=batch_index,
                        anchors=anchors[positions],
                        relations=relations[positions],
                        rows=storage_rows[positions],
                    )
                )
        return tasks

    def _parallel_refresh(
        self,
        batch: np.ndarray,
        rows: BatchRows,
        modes: tuple[str, ...],
        batch_index: int,
    ) -> None:
        """Refresh via the worker pool: one task per (mode, touched shard).

        Workers run :func:`refresh_rows` against the shared storage and
        report CE / initialisation deltas, which are folded back into the
        stores' counters so ``changed_elements()`` and Figure 8 stay
        backend-agnostic.  With :attr:`refresh_overlap` only the dispatch
        half runs here — the tasks execute against the pre-step parameter
        snapshot while the trainer computes the step, and
        :meth:`collect_refreshes` folds the results in later.  The
        dispatch+wait is recorded as the ``parallel_refresh`` phase.
        """
        pool = self._ensure_pool()
        self.collect_refreshes()  # at most one batch in flight
        with span(self.tracer, "parallel_refresh", "train", {"batch": batch_index}):
            tasks = self._build_tasks(batch, rows, modes, batch_index)
            if self.refresh_overlap:
                if pool.dispatch(tasks):
                    self._pending_modes = modes
                results = None
            else:
                results = pool.refresh(tasks)
        if tasks and self._mh is not None and pool.last_sync is not None:
            self._observe_sync(pool.last_sync)
        if results is not None:
            self._fold_results(results, modes)

    def _observe_sync(self, report: SyncReport) -> None:
        """Fold one parameter publish's SyncReport into the registry."""
        h = self._mh
        assert h is not None
        h.sync_bytes.inc(report.bytes_copied)
        h.sync_rows.inc(report.rows_copied)
        h.sync_full_tables.inc(report.full_tables)
        h.sync_dirty_fraction.set(report.dirty_fraction)

    def _fold_results(
        self, results: list[ShardResult], modes: tuple[str, ...]
    ) -> None:
        """Fold completed shard results into store counters and metrics."""
        h = self._mh
        tracer = self.tracer
        for result in results:
            cache = self.head_cache if result.mode == "head" else self.tail_cache
            assert cache is not None
            cache.changed_elements += result.changed
            cache.initialised_entries += result.initialised
            if tracer is not None and result.spans:
                # The cross-process merge: worker spans rode the result
                # queue; fold them into the parent's timeline.
                tracer.ingest(result.spans)
            if h is not None:
                h.rows[result.mode].inc(result.n_rows)
                h.candidates[result.mode].inc(
                    result.n_rows * (self.cache_size + self.candidate_size)
                )
                h.changed[result.mode].inc(result.changed)
        if h is not None:
            for mode in modes:
                h.batches[mode].inc()

    # -- introspection ---------------------------------------------------------------
    def cache_memory_bytes(self) -> int:
        """Combined footprint of both caches."""
        assert self.head_cache is not None and self.tail_cache is not None
        return self.head_cache.memory_bytes() + self.tail_cache.memory_bytes()

    def cache_stats(self) -> dict[str, object]:
        """Cache introspection: key counts, memory, bucket collisions.

        Always present: the backend name, per-side distinct key counts,
        the materialised ``memory_bytes``, the preallocated
        ``allocated_bytes`` (``O(n_buckets * N1)`` for the bucketed scheme,
        independent of the key count) and the per-side live fraction.  The
        bucketed scheme adds the per-side load factor and number of
        colliding keys; the sharded engine its per-shard occupancy.
        """
        from repro.parallel.sharded import ShardedCacheStore

        self._require_bound()
        assert self.key_index is not None
        assert self.head_cache is not None and self.tail_cache is not None
        stats: dict[str, object] = {
            "backend": self.cache_backend,
            "head_keys": self.key_index.head.n_keys,
            "tail_keys": self.key_index.tail.n_keys,
            "memory_bytes": self.cache_memory_bytes(),
            "allocated_bytes": (
                self.head_cache.allocated_bytes() + self.tail_cache.allocated_bytes()
            ),
        }
        for side, cache in (("head", self.head_cache), ("tail", self.tail_cache)):
            stats[f"{side}_live_fraction"] = cache.live_fraction()
            if isinstance(cache, BucketedArrayCache):
                stats[f"{side}_load_factor"] = cache.load_factor()
                stats[f"{side}_n_colliding_keys"] = cache.n_colliding_keys()
            # Sharded stores: per-shard occupancy (live rows) and key
            # ownership, compacted to `a/b/c` strings for the CLI table.
            # After close() the plan is gone — skip rather than crash.
            if isinstance(cache, ShardedCacheStore) and cache.plan is not None:
                stats[f"{side}_shards"] = cache.plan.n_shards
                stats[f"{side}_shard_live_rows"] = "/".join(
                    str(int(n)) for n in cache.shard_occupancy()
                )
                stats[f"{side}_shard_keys"] = "/".join(
                    str(int(n)) for n in cache.shard_key_ownership()
                )
        if self.refresh_period != 1:
            stats["refresh_period"] = self.refresh_period
        if self.refresh_workers > 1:
            stats["refresh_workers"] = self.refresh_workers
            stats["refresh_overlap"] = self.refresh_overlap
            stats["dirty_sync"] = self.dirty_sync
            if self._pool is not None:
                stats["refresh_mode"] = (
                    "processes" if self._pool.using_processes else "inline"
                )
                if self._pool.last_sync is not None:
                    stats["last_sync_bytes"] = self._pool.last_sync.bytes_copied
                    stats["last_sync_dirty_fraction"] = round(
                        self._pool.last_sync.dirty_fraction, 6
                    )
        return stats

    def changed_elements(self, reset: bool = False) -> int:
        """CE metric: cache elements replaced since the last reset (Fig. 8)."""
        assert self.head_cache is not None and self.tail_cache is not None
        self.collect_refreshes()  # fold any in-flight deltas first
        total = self.head_cache.changed_elements + self.tail_cache.changed_elements
        if reset:
            self.head_cache.reset_counters()
            self.tail_cache.reset_counters()
        return total

    def __repr__(self) -> str:
        workers = (
            f", refresh_workers={self.refresh_workers}"
            f"{', overlap' if self.refresh_overlap else ''}"
            f"{'' if self.dirty_sync else ', full-sync'}"
            if self.refresh_workers > 1
            else ""
        )
        period = (
            f", refresh_period={self.refresh_period}"
            if self.refresh_period != 1
            else ""
        )
        return (
            f"NSCachingSampler(N1={self.cache_size}, N2={self.candidate_size}, "
            f"sample={self.sample_strategy.value}, update={self.update_strategy.value}, "
            f"lazy={self.lazy_epochs}, backend={self.cache_backend}"
            f"{workers}{period})"
        )
