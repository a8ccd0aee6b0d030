"""Golden training trajectories for the NSCaching cache engine.

Reference behaviour of the cache engine lives here as committed golden
fingerprints (``engine_goldens.npz``) rather than as parallel reference
implementations.  Each config trains a small model on the ``tiny_kg``
graph of ``tests/conftest.py`` and records:

* per-epoch losses and per-epoch CE (changed cache elements);
* the final model parameters;
* both caches' state: which dense key rows are live, the ids stored for
  every live key and, when scores are co-stored, their scores.

The file also pins a table of ``stable_key_hash`` values, the hash the
memory-bounded bucket scheme maps cache keys with.

The committed goldens were first generated while the engine still had
reference implementations, and each config was checked bit for bit
against them: a per-key dict store (dict buckets for bucketed configs)
and a step-by-step unfused refresh; pooled configs against their
overlapped/synchronous twin and against forked workers; the hash table
against a scalar pure-Python hash.  Before writing, the generator still
checks what the engine itself can: every pooled config against its
overlapped/synchronous twin and against forked worker processes.

Run from the repository root to regenerate the goldens (only when a
trajectory change is intended — see CONTRIBUTING.md)::

    PYTHONPATH=src python tests/goldens/generate_goldens.py

``tests/goldens/test_goldens.py`` replays every config and compares.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.nscaching import NSCachingSampler
from repro.data.dataset import KGDataset
from repro.data.keyindex import stable_key_hash
from repro.data.synthetic import SyntheticKGConfig, generate_kg
from repro.models import MODEL_REGISTRY, make_model
from repro.train.config import TrainConfig
from repro.train.trainer import Trainer

GOLDEN_PATH = Path(__file__).with_name("engine_goldens.npz")

#: Training settings shared by every config (kept small: the whole replay
#: must stay within a few seconds).
DIM = 6
CACHE_SIZE = 4
CANDIDATE_SIZE = 4
EPOCHS = 3
BATCH_SIZE = 64
LEARNING_RATE = 0.05

#: ``n_buckets`` for the bucketed configs: well below the ~200 distinct
#: keys per side of ``tiny_kg``, so keys collide.
N_BUCKETS = 16

#: Keys of the pinned ``stable_key_hash`` table.
HASH_KEYS = np.array(
    [[0, 0], [0, 1], [1, 0], [5, 3], [79, 5], [123456, 789],
     [2**31 - 1, 2**31 - 1], [2**40, 7], [-1, 0], [3, -7]],
    dtype=np.int64,
)


def tiny_kg() -> KGDataset:
    """The ``tiny_kg`` fixture's graph (the replay asserts they agree)."""
    config = SyntheticKGConfig(
        name="tiny",
        n_entities=80,
        n_relations=6,
        latent_dim=8,
        triples_per_relation=60,
        diagonal_fraction=0.3,
        range_fraction=0.5,
    )
    return generate_kg(config, rng=0).dataset


def _config(name: str, model: str, **sampler: Any) -> dict[str, Any]:
    return {"name": name, "model": model, "sampler": sampler}


def _configs() -> list[dict[str, Any]]:
    configs = [
        _config(f"array-{model}", model, cache_backend="array")
        for model in sorted(MODEL_REGISTRY)
    ]
    for model in ("TransE", "DistMult"):
        configs += [
            _config(f"bucketed-{model}", model,
                    cache_backend="bucketed-array", n_buckets=N_BUCKETS),
            _config(f"sharded1-{model}", model,
                    cache_backend="sharded-array", n_shards=3),
            _config(f"pooled2-{model}", model,
                    cache_backend="sharded-array", n_shards=2,
                    refresh_workers=2, refresh_processes=False),
            _config(f"overlap2-{model}", model,
                    cache_backend="sharded-array", n_shards=2,
                    refresh_workers=2, refresh_processes=False,
                    refresh_overlap=True),
        ]
    configs += [
        _config("pooled2-bucketed-TransE", "TransE",
                cache_backend="sharded-array", n_shards=2, n_buckets=N_BUCKETS,
                refresh_workers=2, refresh_processes=False),
        _config("importance-TransE", "TransE",
                cache_backend="array", sample_strategy="importance"),
        _config("period2-TransE", "TransE",
                cache_backend="array", refresh_period=2),
    ]
    return configs


CONFIGS: list[dict[str, Any]] = _configs()


def _cache_state(cache: Any, index: Any, prefix: str) -> dict[str, np.ndarray]:
    rows = np.arange(index.n_keys, dtype=np.int64)
    live = np.array([index.key_of(int(row)) in cache for row in rows], dtype=bool)
    state = {f"{prefix}_live": live, f"{prefix}_ids": cache.gather(rows[live])}
    if cache.store_scores:
        state[f"{prefix}_scores"] = cache.gather_scores(rows[live])
    return state


def run_config(
    config: dict[str, Any],
    dataset: KGDataset,
    trainer_kwargs: dict[str, Any] | None = None,
    **overrides: Any,
) -> dict[str, np.ndarray]:
    """Train one config; return its fingerprint arrays (unprefixed).

    ``trainer_kwargs`` pass through to :class:`Trainer` (instrumentation
    options, which must leave the fingerprint unchanged); ``overrides``
    replace sampler options.
    """
    model = make_model(
        config["model"], dataset.n_entities, dataset.n_relations, DIM, rng=0
    )
    kwargs = {**config["sampler"], **overrides}
    sampler = NSCachingSampler(
        cache_size=CACHE_SIZE, candidate_size=CANDIDATE_SIZE, **kwargs
    )
    trainer = Trainer(
        model,
        dataset,
        sampler,
        TrainConfig(
            epochs=EPOCHS, batch_size=BATCH_SIZE,
            learning_rate=LEARNING_RATE, seed=0,
        ),
        **(trainer_kwargs or {}),
    )
    try:
        history = trainer.run()
        record = {
            "loss": np.asarray(history["loss"].values, dtype=np.float64),
            "ce": np.asarray(history["cache_changes"].values).astype(np.int64),
        }
        for name, param in model.params.items():
            record[f"param_{name}"] = np.array(param, dtype=np.float64)
        assert sampler.key_index is not None
        record.update(_cache_state(sampler.head_cache, sampler.key_index.head, "head"))
        record.update(_cache_state(sampler.tail_cache, sampler.key_index.tail, "tail"))
    finally:
        trainer.close()
    return record


def _assert_same(name: str, label: str, got: dict, expected: dict) -> None:
    assert got.keys() == expected.keys(), (name, label, got.keys(), expected.keys())
    for key in expected:
        if not np.array_equal(got[key], expected[key]):
            raise AssertionError(f"{name}: {label} differs on {key!r}")


def _twin_runs(config: dict[str, Any]) -> list[tuple[str, dict[str, Any]]]:
    """(label, sampler overrides) of runs that must equal ``config``'s."""
    sampler = config["sampler"]
    if sampler.get("refresh_workers", 1) == 1:
        return []
    overlap = sampler.get("refresh_overlap", False)
    return [
        ("synchronous" if overlap else "overlapped", {"refresh_overlap": not overlap}),
        ("forked workers", {"refresh_processes": True}),
    ]


def build_goldens() -> dict[str, np.ndarray]:
    dataset = tiny_kg()
    arrays: dict[str, np.ndarray] = {}
    for config in CONFIGS:
        record = run_config(config, dataset)
        for label, overrides in _twin_runs(config):
            _assert_same(
                config["name"], label, run_config(config, dataset, **overrides), record
            )
        for key, value in record.items():
            arrays[f"{config['name']}/{key}"] = value
    arrays["stable_key_hash/keys"] = HASH_KEYS
    arrays["stable_key_hash/values"] = stable_key_hash(HASH_KEYS[:, 0], HASH_KEYS[:, 1])
    return arrays


def main() -> int:
    arrays = build_goldens()
    np.savez_compressed(GOLDEN_PATH, **arrays)
    size = GOLDEN_PATH.stat().st_size
    print(f"wrote {len(CONFIGS)} configs to {GOLDEN_PATH} ({size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
