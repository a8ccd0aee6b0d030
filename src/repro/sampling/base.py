"""The negative-sampler interface (Algorithm 1, step 5).

A sampler is *bound* to a model and dataset by the trainer, then asked for
one negative triple per positive in every mini-batch.  After the batch's
scores are available the trainer calls :meth:`NegativeSampler.update`, which
is where stateful samplers (NSCaching's cache refresh, KBGAN/IGAN generator
training) do their work.

Besides ``sample``/``update`` the trainer drives a sampler only through
the *trainer hooks* below, whose defaults suit a stateless sampler.

All samplers share the Bernoulli head-vs-tail coin of Wang et al. (2014):
the corrupted side is chosen per relation with probability
``tph / (tph + hpt)`` (paper §IV-B1 applies this to KBGAN and NSCaching as
well as the Bernoulli baseline).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.data.dataset import KGDataset
from repro.data.relations import bernoulli_head_probabilities
from repro.data.triples import HEAD, REL, TAIL
from repro.models.base import KGEModel
from repro.optim.base import DirtyMark
from repro.utils.rng import ensure_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import MetricsRegistry
    from repro.obs.trace import Tracer

__all__ = ["NegativeSampler", "SampleRows"]


class SampleRows(Protocol):
    """Per-triple rows a sampler precomputes for a whole split."""

    def take(self, indices: np.ndarray) -> "SampleRows": ...


class NegativeSampler(ABC):
    """Base class for negative sampling strategies."""

    #: Human-readable name used in reports.
    name: str = "base"

    def __init__(self, *, bernoulli: bool = True) -> None:
        self.bernoulli = bool(bernoulli)
        self.model: KGEModel | None = None
        self.dataset: KGDataset | None = None
        self.rng: np.random.Generator = ensure_rng(None)
        self._head_prob: np.ndarray | None = None
        self.epoch = 0

    # -- lifecycle ------------------------------------------------------------
    def bind(
        self,
        model: KGEModel,
        dataset: KGDataset,
        rng: np.random.Generator | int | None = None,
    ) -> "NegativeSampler":
        """Attach the sampler to a model and dataset; returns self.

        Subclasses extend this to build their own state (caches, generator
        models) and must call ``super().bind(...)`` first.
        """
        self.model = model
        self.dataset = dataset
        self.rng = ensure_rng(rng)
        if self.bernoulli:
            self._head_prob = bernoulli_head_probabilities(
                dataset.train, dataset.n_relations
            )
        else:
            self._head_prob = np.full(dataset.n_relations, 0.5)
        return self

    def _require_bound(self) -> None:
        if self.model is None or self.dataset is None:
            raise RuntimeError(
                f"{type(self).__name__} must be bound to a model and dataset "
                "before sampling (call .bind(model, dataset, rng))"
            )

    # -- head-vs-tail coin -----------------------------------------------------
    def choose_head_corruption(self, relations: np.ndarray) -> np.ndarray:
        """Boolean mask: True where the *head* should be corrupted."""
        assert self._head_prob is not None
        probs = self._head_prob[np.asarray(relations, dtype=np.int64)]
        return self.rng.random(len(probs)) < probs

    # -- main API ---------------------------------------------------------------
    @abstractmethod
    def sample(self, batch: np.ndarray, rows: object = None) -> np.ndarray:
        """Return one negative triple per positive; shape ``[B, 3]``.

        ``rows`` carries optional precomputed per-triple cache-row indices
        (see :meth:`repro.core.nscaching.NSCachingSampler.precompute_rows`);
        stateless samplers ignore it.
        """

    def update(
        self, batch: np.ndarray, negatives: np.ndarray, rows: object = None
    ) -> None:
        """Post-sampling hook (cache refresh / generator training).

        Called by the trainer once per batch, after :meth:`sample` but
        before the embedding update, mirroring Algorithm 2 (step 8 precedes
        step 9).  Default: no-op.  ``rows`` is as in :meth:`sample`.
        """

    def on_epoch_start(self, epoch: int) -> None:
        """Epoch notification (lazy cache updates key off this)."""
        self.epoch = int(epoch)

    # -- trainer hooks -----------------------------------------------------------
    def instrument(
        self, tracer: Tracer | None, metrics: MetricsRegistry | None
    ) -> None:
        """Attach the trainer's span tracer and metrics registry (``None``
        detaches); called after :meth:`bind`, before the first update."""

    def precompute_rows(self, triples: np.ndarray) -> SampleRows | None:
        """Rows for every triple, sliced per batch into ``rows`` (``None``:
        the sampler takes no rows)."""
        return None

    def collect_refreshes(self) -> None:
        """Finish work an earlier :meth:`update` left in flight."""

    def dirty_mark(self) -> DirtyMark | None:
        """The optimiser's ``dirty_mark(name, rows)`` callback (``None``:
        the sampler keeps no parameter copy to sync)."""
        return None

    def changed_elements(self, reset: bool = False) -> int | None:
        """Cache elements replaced since the last reset (Fig. 8); ``None``
        for samplers without a cache."""
        return None

    def cache_stats(self) -> dict[str, object]:
        """Cache introspection for the ``--profile`` report."""
        return {}

    def close(self) -> None:
        """Release held resources (idempotent)."""

    # -- shared corruption helper -----------------------------------------------
    def _corrupt_with(self, batch: np.ndarray, replacements: np.ndarray) -> np.ndarray:
        """Replace head or tail of each row with ``replacements`` per the coin."""
        batch = np.asarray(batch, dtype=np.int64)
        negatives = batch.copy()
        head_mask = self.choose_head_corruption(batch[:, REL])
        negatives[head_mask, HEAD] = replacements[head_mask]
        negatives[~head_mask, TAIL] = replacements[~head_mask]
        return negatives

    def __repr__(self) -> str:
        return f"{type(self).__name__}(bernoulli={self.bernoulli})"
