"""The paper's contribution: cache-based negative sampling.

* :mod:`repro.core.array_cache` — the cache engine: head/tail negative
  caches (ids only, §III-B3) as one preallocated, fully vectorised block
  addressed by dense key rows;
* :mod:`repro.core.bucketed` — the same engine over ``n_buckets`` shared
  rows (§VI memory bound: keys hash onto buckets);
* :mod:`repro.core.strategies` — sample-from-cache and update-cache
  strategies with the exploration/exploitation trade-offs of Figure 6;
* :mod:`repro.core.nscaching` — :class:`NSCachingSampler`, Algorithms 2-3,
  with the one Alg. 3 refresh (:func:`refresh_rows`) and the engine
  chooser (:func:`make_cache`);
* :mod:`repro.core.stats` — RR / NZL / CE instrumentation (Figures 7-8).

The shared-memory ``sharded-array`` engine lives in :mod:`repro.parallel`.
"""

from repro.core.array_cache import ArrayNegativeCache, multiset_overlap_rows
from repro.core.bucketed import BucketedArrayCache
from repro.core.nscaching import (
    CACHE_ENGINES,
    NSCachingSampler,
    make_cache,
    refresh_rows,
)
from repro.core.stats import EpochSeries, NegativeTracker
from repro.core.strategies import (
    SampleStrategy,
    UpdateStrategy,
    duplicate_mask,
    sample_from_cache,
    select_cache_survivors,
)

__all__ = [
    "ArrayNegativeCache",
    "BucketedArrayCache",
    "CACHE_ENGINES",
    "EpochSeries",
    "NSCachingSampler",
    "NegativeTracker",
    "SampleStrategy",
    "UpdateStrategy",
    "duplicate_mask",
    "make_cache",
    "multiset_overlap_rows",
    "refresh_rows",
    "sample_from_cache",
    "select_cache_survivors",
]
