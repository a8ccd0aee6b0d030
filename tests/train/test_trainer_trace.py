"""Trainer tracing: bit-identity contract, span coverage, worker merge."""

import numpy as np
import pytest

from repro.core.nscaching import NSCachingSampler
from repro.models import make_model
from repro.obs.runlog import read_run_log
from repro.obs.trace import (
    Tracer,
    chrome_trace,
    read_trace,
    span_totals,
    validate_chrome_trace,
)
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


def _parallel_sampler(**kwargs):
    return NSCachingSampler(
        cache_size=4,
        candidate_size=4,
        cache_backend="sharded-array",
        n_shards=2,
        refresh_workers=2,
        refresh_processes=False,  # inline: deterministic, fork-free
        **kwargs,
    )


def _assert_run_end_matches_trace(run_log, trace):
    """run_end.phase_seconds equals the trace file's per-phase self time."""
    run_end = read_run_log(run_log)[-1]
    assert run_end["type"] == "run_end"
    totals = span_totals(read_trace(trace))
    for phase in Trainer.PROFILE_PHASES:
        row = totals.get((phase, ()))
        expected = row.self_seconds if row is not None else 0.0
        assert run_end["phase_seconds"][phase] == pytest.approx(expected, abs=1e-5)


def _params(trainer):
    return {k: v.copy() for k, v in trainer.model.params.items()}


class TestBitIdentity:
    """Tracing disabled executes the exact seed path; enabled changes
    nothing about the numbers — only observes them."""

    def test_traced_run_bit_identical_to_untraced(self, tiny_kg, tmp_path):
        baseline = _trainer(tiny_kg)
        baseline.run()
        expected = _params(baseline)
        baseline.close()

        traced = _trainer(tiny_kg, trace_out=str(tmp_path / "trace.jsonl"))
        traced.run()
        for key, value in _params(traced).items():
            np.testing.assert_array_equal(value, expected[key])
        traced.close()

    def test_traced_parallel_run_bit_identical(self, tiny_kg, tmp_path):
        baseline = _trainer(tiny_kg, sampler=_parallel_sampler())
        try:
            baseline.run()
            expected = _params(baseline)
        finally:
            baseline.close()

        traced = _trainer(
            tiny_kg,
            sampler=_parallel_sampler(),
            trace_out=str(tmp_path / "trace.jsonl"),
        )
        try:
            traced.run()
            for key, value in _params(traced).items():
                np.testing.assert_array_equal(value, expected[key])
        finally:
            traced.close()

    def test_no_tracer_by_default(self, tiny_kg):
        trainer = _trainer(tiny_kg)
        assert trainer.tracer is None
        assert trainer.sampler.tracer is None
        trainer.close()


class TestSequentialTrace:
    def test_phase_and_epoch_spans_recorded(self, tiny_kg, tmp_path):
        path = tmp_path / "trace.jsonl"
        trainer = _trainer(tiny_kg, trace_out=str(path))
        trainer.run()
        trainer.close()
        records = read_trace(path)
        names = {(r["cat"], r["name"]) for r in records}
        for expected in (
            ("train", "epoch"),
            ("train", "sample"),
            ("train", "score"),
            ("train", "gradients"),
            ("train", "optimizer"),
            ("train", "cache_update"),
            ("train", "score_candidates"),
        ):
            assert expected in names, f"missing span {expected}"
        epochs = [r for r in records if r["name"] == "epoch"]
        assert [r["args"]["epoch"] for r in epochs] == [0, 1]

    def test_trainer_attaches_tracer_to_sampler(self, tiny_kg):
        tracer = Tracer()
        trainer = _trainer(tiny_kg, tracer=tracer)
        assert trainer.sampler.tracer is tracer
        trainer.close()

    def test_profile_reads_the_attached_tracer(self, tiny_kg):
        tracer = Tracer()
        trainer = _trainer(tiny_kg, tracer=tracer, profile=True)
        trainer.run()
        # One probe: the profile table is the tracer's phase aggregate.
        assert trainer.tracer is tracer
        report = trainer.profile_report()
        assert report["gradients"] > 0
        assert report["gradients"] == tracer.self_seconds("gradients")
        assert any(r["name"] == "gradients" for r in tracer.records())
        trainer.close()

    def test_close_flushes_trace_of_aborted_run(self, tiny_kg, tmp_path):
        path = tmp_path / "trace.jsonl"
        trainer = _trainer(tiny_kg, trace_out=str(path))
        trainer.run(1)  # "abort" after one epoch: close() must still write
        trainer.close()
        assert any(r["name"] == "epoch" for r in read_trace(path))

    def test_run_end_phase_seconds_match_trace_file(self, tiny_kg, tmp_path):
        run_log, trace = tmp_path / "run.jsonl", tmp_path / "trace.jsonl"
        trainer = _trainer(
            tiny_kg, metrics_out=str(run_log), trace_out=str(trace), profile=True
        )
        trainer.run()
        trainer.close()
        _assert_run_end_matches_trace(run_log, trace)

    def test_spans_validate_as_chrome_trace(self, tiny_kg, tmp_path):
        path = tmp_path / "trace.jsonl"
        trainer = _trainer(tiny_kg, trace_out=str(path))
        trainer.run()
        trainer.close()
        validate_chrome_trace(chrome_trace(read_trace(path)))


class TestParallelTrace:
    """The cross-process merge, on the deterministic inline pool."""

    def test_worker_spans_ship_back_through_results(self, tiny_kg, tmp_path):
        path = tmp_path / "trace.jsonl"
        trainer = _trainer(
            tiny_kg, sampler=_parallel_sampler(), trace_out=str(path)
        )
        try:
            trainer.run()
        finally:
            trainer.close()
        records = read_trace(path)
        shard_tasks = [
            r for r in records
            if r["cat"] == "refresh_worker" and r["name"] == "shard_task"
        ]
        assert shard_tasks, "no worker shard_task spans shipped back"
        for record in shard_tasks:
            assert record["args"]["mode"] in ("head", "tail")
            assert record["args"]["rows"] >= 0
            assert "shard" in record["args"]
        # The parallel_refresh phase span marks where the trainer handed off.
        assert any(
            r["cat"] == "train" and r["name"] == "parallel_refresh"
            for r in records
        )

    def test_queue_wait_spans_recorded_when_stamped(self, tiny_kg, tmp_path):
        path = tmp_path / "trace.jsonl"
        trainer = _trainer(
            tiny_kg, sampler=_parallel_sampler(), trace_out=str(path)
        )
        try:
            trainer.run()
        finally:
            trainer.close()
        waits = [r for r in read_trace(path) if r["name"] == "queue_wait"]
        assert waits, "no queue_wait spans"
        assert all(r["cat"] == "refresh_worker" for r in waits)
        assert all(r["dur"] >= 0 for r in waits)

    def test_merged_timeline_exports_to_chrome(self, tiny_kg, tmp_path):
        path = tmp_path / "trace.jsonl"
        trainer = _trainer(
            tiny_kg, sampler=_parallel_sampler(), trace_out=str(path)
        )
        try:
            trainer.run()
        finally:
            trainer.close()
        exported = chrome_trace(read_trace(path))
        validate_chrome_trace(exported)
        cats = {event["cat"] for event in exported["traceEvents"]}
        assert {"train", "refresh_worker"} <= cats


    def test_close_writes_in_flight_batch_of_aborted_overlap_run(
        self, tiny_kg, tmp_path
    ):
        """An aborted overlapped run leaves one refresh in flight; close()
        collects it (ingesting its worker spans) before writing the trace."""
        path = tmp_path / "trace.jsonl"
        trainer = _trainer(
            tiny_kg,
            sampler=_parallel_sampler(refresh_overlap=True),
            trace_out=str(path),
        )
        step, steps = trainer.optimizer.step, []

        def failing_step(*args, **kwargs):
            steps.append(1)
            if len(steps) == 2:
                raise RuntimeError("abort")
            return step(*args, **kwargs)

        trainer.optimizer.step = failing_step
        with pytest.raises(RuntimeError, match="abort"):
            trainer.run()
        trainer.close()
        in_file = [r for r in read_trace(path) if r["name"] == "shard_task"]
        in_ring = [r for r in trainer.tracer.records() if r["name"] == "shard_task"]
        assert len(in_file) == len(in_ring)
        assert {r["args"]["batch"] for r in in_file} == {0, 1}


class TestSamplerTracing:
    def test_sequential_refresh_span_args(self, tiny_kg):
        tracer = Tracer()
        trainer = _trainer(tiny_kg, tracer=tracer)
        trainer.run(1)
        sides = [
            r for r in tracer.records() if r["name"] == "score_candidates"
        ]
        assert sides
        modes = {r["args"]["mode"] for r in sides}
        assert modes == {"head", "tail"}
        assert all(r["args"]["rows"] > 0 for r in sides)
        trainer.close()

    def test_pool_inherits_trace_flag(self, tiny_kg):
        tracer = Tracer()
        trainer = _trainer(
            tiny_kg, sampler=_parallel_sampler(), tracer=tracer
        )
        try:
            trainer.run(1)
            assert trainer.sampler._pool is not None
            assert trainer.sampler._pool.trace is True
        finally:
            trainer.close()

    def test_untraced_pool_ships_no_spans(self, tiny_kg):
        trainer = _trainer(tiny_kg, sampler=_parallel_sampler())
        try:
            trainer.run(1)
            assert trainer.sampler._pool.trace is False
        finally:
            trainer.close()


class TestForkedWorkerTrace:
    """One real multi-process run: spans arrive from foreign pids."""

    def test_forked_workers_ship_spans_with_own_pid(self, tiny_kg, tmp_path):
        import os

        path = tmp_path / "trace.jsonl"
        sampler = NSCachingSampler(
            cache_size=4,
            candidate_size=4,
            cache_backend="sharded-array",
            n_shards=2,
            refresh_workers=2,
            refresh_processes=True,
        )
        trainer = _trainer(tiny_kg, sampler=sampler, trace_out=str(path))
        try:
            trainer.run(1)
        finally:
            trainer.close()
        records = read_trace(path)
        worker_pids = {
            r["pid"] for r in records if r["cat"] == "refresh_worker"
        }
        assert worker_pids, "no worker spans shipped back"
        assert os.getpid() not in worker_pids

    def test_overlapped_run_end_matches_trace_file(self, tiny_kg, tmp_path):
        run_log, trace = tmp_path / "run.jsonl", tmp_path / "trace.jsonl"
        sampler = NSCachingSampler(
            cache_size=4,
            candidate_size=4,
            cache_backend="sharded-array",
            n_shards=2,
            refresh_workers=2,
            refresh_overlap=True,
        )
        trainer = _trainer(
            tiny_kg, sampler=sampler, metrics_out=str(run_log), trace_out=str(trace)
        )
        try:
            trainer.run()
        finally:
            trainer.close()
        _assert_run_end_matches_trace(run_log, trace)
        assert read_run_log(run_log)[-1]["phase_seconds"]["refresh_overlap"] > 0
