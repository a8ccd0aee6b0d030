"""Trainer observability: registry wiring, run log, phase partitioning."""

import numpy as np
import pytest

from repro.core.nscaching import NSCachingSampler
from repro.models import make_model
from repro.obs.registry import MetricsRegistry
from repro.obs.runlog import epoch_records, read_run_log
from repro.train.config import TrainConfig
from repro.train.trainer import Trainer


def _model(tiny_kg):
    return make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)


def _trainer(tiny_kg, *, sampler=None, epochs=2, **kwargs):
    return Trainer(
        _model(tiny_kg),
        tiny_kg,
        sampler or NSCachingSampler(cache_size=4, candidate_size=4),
        TrainConfig(epochs=epochs, batch_size=64, seed=0),
        **kwargs,
    )


class TestRegistryWiring:
    def test_trainer_mirrors_epoch_aggregates(self, tiny_kg):
        registry = MetricsRegistry()
        trainer = _trainer(tiny_kg, metrics=registry)
        trainer.run()
        assert registry.value("train_epochs_total") == 2.0
        assert registry.value("train_samples_total") == 2 * len(tiny_kg.train)
        assert registry.value("train_loss") == pytest.approx(
            trainer.history.last("loss")
        )
        assert registry.value("train_samples_per_sec") > 0

    def test_phase_seconds_mirrored_as_cumulative_counters(self, tiny_kg):
        registry = MetricsRegistry()
        trainer = _trainer(tiny_kg, metrics=registry)
        trainer.run()
        partition = trainer.phase_seconds()
        for phase, seconds in partition.items():
            assert registry.value(
                "train_phase_seconds_total", labels={"phase": phase}
            ) == pytest.approx(seconds)

    def test_sampler_reports_refresh_counters(self, tiny_kg):
        registry = MetricsRegistry()
        trainer = _trainer(tiny_kg, metrics=registry)
        trainer.run()
        for mode in ("head", "tail"):
            labels = {"mode": mode}
            batches = registry.value("cache_refresh_batches_total", labels=labels)
            rows = registry.value("cache_refresh_rows_total", labels=labels)
            candidates = registry.value(
                "cache_refresh_candidates_total", labels=labels
            )
            assert batches > 0
            assert rows == 2 * len(tiny_kg.train)  # every triple, every epoch
            assert candidates == rows * (4 + 4)  # N1 + N2

    def test_churn_counter_agrees_with_history(self, tiny_kg):
        registry = MetricsRegistry()
        trainer = _trainer(tiny_kg, metrics=registry)
        trainer.run()
        total_churn = sum(
            registry.value("cache_changed_elements_total", labels={"mode": mode})
            for mode in ("head", "tail")
        )
        history_churn = sum(trainer.history["cache_changes"].values)
        assert total_churn == history_churn

    def test_profile_report_stays_empty_without_profile_flag(self, tiny_kg):
        trainer = _trainer(tiny_kg, metrics=MetricsRegistry())
        trainer.run()
        assert trainer.profile_report() == {}
        # ... but the partition is live (spans ran for the registry).
        assert sum(trainer.phase_seconds().values()) > 0

    def test_instrument_none_clears_handles(self, tiny_kg):
        sampler = NSCachingSampler(cache_size=4, candidate_size=4)
        trainer = _trainer(tiny_kg, sampler=sampler, metrics=MetricsRegistry())
        assert sampler.metrics is trainer.metrics
        assert sampler.tracer is trainer.tracer
        sampler.instrument(None, None)
        assert sampler.metrics is None
        assert sampler.tracer is None
        assert sampler._mh is None


class TestSamplerHooks:
    def test_profile_or_metrics_tracer_keeps_no_ring(self, tiny_kg, tmp_path):
        for kwargs in (
            {"profile": True},
            {"metrics": MetricsRegistry()},
            {"metrics_out": str(tmp_path / "run.jsonl")},
        ):
            trainer = _trainer(tiny_kg, epochs=1, **kwargs)
            trainer.run()
            assert trainer.tracer is not None and trainer.tracer.capacity == 0
            assert trainer.sampler.tracer is trainer.tracer
            assert trainer.tracer.records() == []
            assert trainer.phase_seconds()["sample"] > 0
            trainer.close()
        traced = _trainer(tiny_kg, trace_out=str(tmp_path / "trace.jsonl"))
        assert traced.tracer.capacity > 0
        traced.close()

    def test_dirty_mark_only_for_pooled_refresh(self, tiny_kg):
        from repro.sampling import BernoulliSampler

        assert BernoulliSampler().dirty_mark() is None
        sequential = _trainer(tiny_kg)
        assert sequential._dirty_mark is None
        sequential.close()
        pooled = _trainer(
            tiny_kg,
            sampler=NSCachingSampler(
                cache_size=4, candidate_size=4, cache_backend="sharded-array",
                n_shards=2, refresh_workers=2, refresh_processes=False,
            ),
        )
        assert pooled._dirty_mark == pooled.sampler.mark_dirty_params
        pooled.close()

    def test_stateless_sampler_hook_defaults(self, tiny_kg):
        from repro.sampling import BernoulliSampler

        sampler = BernoulliSampler()
        sampler.instrument(None, MetricsRegistry())
        assert sampler.precompute_rows(tiny_kg.train) is None
        assert sampler.changed_elements(reset=True) is None
        assert sampler.cache_stats() == {}
        sampler.collect_refreshes()
        sampler.close()


class TestBitIdentical:
    def test_instrumented_run_matches_uninstrumented(self, tiny_kg):
        """Attaching a registry must not perturb the training trajectory."""
        plain = _trainer(tiny_kg)
        plain.run()
        instrumented = _trainer(tiny_kg, metrics=MetricsRegistry())
        instrumented.run()
        for name, param in plain.model.params.items():
            np.testing.assert_array_equal(
                param, instrumented.model.params[name], err_msg=name
            )
        assert plain.history["loss"].values == instrumented.history["loss"].values


class TestRunLog:
    def test_metrics_out_writes_valid_records(self, tiny_kg, tmp_path):
        path = tmp_path / "run.jsonl"
        trainer = _trainer(tiny_kg, metrics_out=str(path))
        trainer.run()
        trainer.close()
        records = read_run_log(path)  # validates every record
        assert [r["type"] for r in records] == [
            "run_meta", "epoch", "epoch", "run_end",
        ]
        meta = records[0]
        assert meta["model"] == "TransE"
        assert meta["sampler"] == "NSCaching"
        assert meta["config"]["epochs"] == 2

    def test_epoch_records_carry_cache_health(self, tiny_kg, tmp_path):
        path = tmp_path / "run.jsonl"
        trainer = _trainer(tiny_kg, metrics_out=str(path))
        trainer.run()
        trainer.close()
        epochs = epoch_records(read_run_log(path))
        for record, churn in zip(
            epochs, trainer.history["cache_changes"].values
        ):
            cache = record["cache"]
            assert cache["churn"] == churn
            # Both cache sides refresh every triple's row each epoch.
            assert cache["refreshed_rows"] == 2 * len(tiny_kg.train)
            assert 0.0 <= cache["survivor_fraction"] <= 1.0
            assert sum(record["phase_seconds"].values()) <= record[
                "epoch_seconds"
            ] * 1.05 + 1e-6

    def test_run_log_without_cache_sampler_has_no_cache_block(
        self, tiny_kg, tmp_path
    ):
        from repro.sampling import BernoulliSampler

        path = tmp_path / "run.jsonl"
        trainer = _trainer(tiny_kg, sampler=BernoulliSampler(), metrics_out=str(path))
        trainer.run()
        trainer.close()
        epochs = epoch_records(read_run_log(path))
        assert epochs and all("cache" not in r for r in epochs)

    def test_continued_run_keeps_logging(self, tiny_kg, tmp_path):
        """A second run() on the same trainer appends its records: only
        Trainer.close() ends the run log."""
        path = tmp_path / "run.jsonl"
        trainer = _trainer(tiny_kg, metrics_out=str(path))
        trainer.run(1)
        trainer.run(1)
        trainer.close()
        records = read_run_log(path)
        assert [r["type"] for r in records] == [
            "run_meta", "epoch", "run_end", "run_meta", "epoch", "run_end",
        ]
        assert [r["epoch"] for r in epoch_records(records)] == [0, 1]
        assert records[-1]["epochs"] == 2

    def test_close_without_run_leaves_partial_but_valid_log(
        self, tiny_kg, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        trainer = _trainer(tiny_kg, metrics_out=str(path))
        trainer.run(1)
        trainer.close()  # run() already ended: run_end is present
        records = read_run_log(path)
        assert records[-1]["type"] == "run_end"
        assert records[-1]["epochs"] == 1


class TestParallelRefreshObservability:
    def _parallel_trainer(self, tiny_kg, path=None, **kwargs):
        sampler = NSCachingSampler(
            cache_size=4,
            candidate_size=4,
            cache_backend="sharded-array",
            n_shards=2,
            refresh_workers=2,
            refresh_processes=False,  # inline: deterministic, fork-free
        )
        return _trainer(
            tiny_kg,
            sampler=sampler,
            metrics_out=str(path) if path is not None else None,
            **kwargs,
        )

    def test_partition_invariant_with_parallel_refresh(self, tiny_kg):
        """Phases stay disjoint and sum to the hot-loop wall time when the
        pooled refresh adds its dispatch+wait phase."""
        trainer = self._parallel_trainer(tiny_kg, profile=True, epochs=3)
        try:
            trainer.run()
            report = trainer.profile_report()
            assert report["parallel_refresh"] > 0
            # Inline pool execution: the nested scoring runs inside the
            # pool's parallel_refresh span (workers record no
            # score_candidates), so cache_update is carved down by it.
            assert report["score_candidates"] == 0.0
            totals = trainer.tracer.totals()
            assert report["cache_update"] == pytest.approx(
                totals[("cache_update", ())].seconds
                - totals[("parallel_refresh", ())].seconds
            )
            total, wall = sum(report.values()), trainer.train_seconds
            assert total <= wall
            assert total >= 0.5 * wall, (report, wall)
        finally:
            trainer.close()

    def test_run_log_carries_per_shard_timings(self, tiny_kg, tmp_path):
        path = tmp_path / "run.jsonl"
        trainer = self._parallel_trainer(tiny_kg, path=path)
        try:
            trainer.run()
        finally:
            trainer.close()
        epochs = epoch_records(read_run_log(path))
        shards = epochs[0]["refresh_shards"]
        assert set(shards) == {"head:0", "head:1", "tail:0", "tail:1"}
        for entry in shards.values():
            assert entry["tasks"] > 0
            assert entry["seconds"] > 0
            assert entry["queue_wait_seconds"] >= 0

    def test_registry_tracks_pooled_refresh(self, tiny_kg):
        registry = MetricsRegistry()
        trainer = self._parallel_trainer(tiny_kg, metrics=registry)
        try:
            trainer.run()
        finally:
            trainer.close()
        # The per-shard series mirror the worker spans' aggregate.
        totals = trainer.tracer.totals()
        for mode in ("head", "tail"):
            for shard in (0, 1):
                labels = {"mode": mode, "shard": shard}
                task = totals[("shard_task", (("mode", mode), ("shard", str(shard))))]
                wait = totals[("queue_wait", (("mode", mode), ("shard", str(shard))))]
                assert task.calls > 0
                assert registry.value("refresh_tasks_total", labels=labels) == task.calls
                assert registry.value(
                    "refresh_task_seconds_total", labels=labels
                ) == task.seconds
                assert registry.value(
                    "refresh_queue_wait_seconds_total", labels=labels
                ) == wait.seconds

    def test_registry_tracks_param_syncs(self, tiny_kg):
        """Every pooled refresh publishes parameters; the sync counters
        must account for the shipped bytes/rows and the dirty fraction."""
        registry = MetricsRegistry()
        trainer = self._parallel_trainer(tiny_kg, metrics=registry)
        try:
            trainer.run()
        finally:
            trainer.close()
        assert registry.value("param_sync_bytes_total") > 0
        assert registry.value("param_sync_rows_total") > 0
        assert registry.value("param_sync_full_tables_total") > 0
        assert 0.0 < registry.value("param_sync_dirty_fraction") <= 1.0

    def test_registry_tracks_overlap_wait(self, tiny_kg):
        sampler = NSCachingSampler(
            cache_size=4,
            candidate_size=4,
            cache_backend="sharded-array",
            n_shards=2,
            refresh_workers=2,
            refresh_processes=False,
            refresh_overlap=True,
        )
        registry = MetricsRegistry()
        trainer = _trainer(tiny_kg, sampler=sampler, metrics=registry)
        try:
            trainer.run()
        finally:
            trainer.close()
        # Inline overlap runs the tasks at dispatch, so the collect wait
        # is pure bookkeeping — but it must be counted as the
        # refresh_overlap phase, and the sync counters must flow exactly
        # as in the synchronous pooled mode.
        overlap = registry.value(
            "train_phase_seconds_total", labels={"phase": "refresh_overlap"}
        )
        assert overlap > 0
        assert overlap == trainer.phase_seconds()["refresh_overlap"]
        assert registry.value("param_sync_bytes_total") > 0
