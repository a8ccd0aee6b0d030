"""Workload specs and the pipeline every workload runs.

Each workload is one user journey through the public API, so every
end-to-end metric is measured on every workload:

1. set up (``load_benchmark``, ``build_model``, ``build_sampler``,
   ``Trainer``);
2. train a fixed number of epochs with ``EvalCallback(num_negatives=...)``
   scoring sampled valid MRR after every epoch (fixed draw seed);
3. full filtered test ``evaluate``;
4. after the first repetition of steps 1-3, ``save_model`` and serve the
   checkpoint with ``repro serve``.  After every repetition one client runs
   a closed-loop slice, then an open-loop slice; steps 1-3 repeat while
   another such round fits in ``--seconds``, and rounds of one slice plus
   one more full and sampled evaluation fill the rest.  Every figure is
   thus a median over the whole run, not one stretch of it.  A seeded
   sample of HTTP answers is checked against an in-process
   ``PredictionEngine``.

The epoch count is fixed, not timed, so the training seed fixes the whole
trajectory (and ``test_mrr``): that is what lets repetitions, and the
traced run, be checked against each other bit for bit.

Every gated timing is CPU time: ``time.process_time()`` of this process
for set-up, training and evaluation (single-threaded BLAS, sequential
refresh, so on an idle host it equals wall time), and the server process's
user + system time for its start-up and per answered query.  On a shared
host, wall time also counts the time other tenants hold the CPU, which
varies from run to run by more than any bound the benchmark may set; CPU
time leaves that out (paravirtual steal time included).  Wall-clock
figures (epoch seconds, ``serve_qps``, open-loop latency percentiles) are
kept in the result record, not gated.
"""

from __future__ import annotations

import contextlib
import gc
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro import PredictionEngine, TrainConfig, Trainer, evaluate, load_benchmark, save_model
from repro.bench import build_model, build_sampler
from repro.train.callbacks import EvalCallback

from serving import ServerProcess, ServeRun, closed_loop, open_loop, query_stream
from tracing import SpanRecorder

__all__ = ["SPECS", "Spec", "run_pipeline", "summarize", "train_once"]

#: Fewest training repetitions per run, whatever the budget.
MIN_REPEATS = 2
#: Fewest serve slices per run, whatever the budget.
MIN_SLICES = 4
#: Server start-ups per run; the median joins ``setup_s``.
SERVER_STARTS = 3
#: Sampled-eval negatives and its fixed draw seed.
EVAL_NEGATIVES = 100
EVAL_DRAW_SEED = 0
#: HTTP answers compared with engine-direct answers per run.
CHECKED_ANSWERS = 40
#: Seconds of one closed-loop slice.  Long enough that the server's CPU
#: time, read in 10 ms clock ticks, is known to about 1% per slice.
CLOSED_SLICE_S = 1.5
#: Requests of one open-loop slice.
OPEN_SLICE = 60
#: Unmeasured requests that bring the server's LRU to its steady state.
WARMUP_REQUESTS = 2000
#: Offered rate of the open loop, requests/s: far below closed-loop
#: throughput, so the percentiles measure service time, not a queue.
OPEN_RATE = 100.0


@dataclass(frozen=True)
class Spec:
    """One workload: data, model, sampler, schedule, gates and traffic."""

    name: str
    dataset: str
    scale: float
    model: str
    dim: int
    sampler: str
    sampler_kwargs: tuple[tuple[str, Any], ...]
    epochs: int
    learning_rate: float
    margin: float
    l2_weight: float
    #: Sampled valid MRR the run must reach (``time_to_target_cpu_s``).
    target_mrr: float
    #: Lowest acceptable full filtered test MRR (a correctness gate).
    test_mrr_floor: float
    #: Seeds the graph, the model and the trainer.  Pinned per workload,
    #: not taken from ``--seed``: the training trajectory (epochs to the
    #: target, ``test_mrr``) then only moves when the program changes it,
    #: and ``time_to_target_cpu_s`` measures the program, not the draw.
    train_seed: int = 0


_TRANSD = dict(dataset="FB15K237", scale=1.0, model="TransD", dim=32,
               learning_rate=0.01, margin=2.0, l2_weight=0.0,
               target_mrr=0.15, test_mrr_floor=0.02)

SPECS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="transd-nscaching",
            sampler="NSCaching",
            sampler_kwargs=(("cache_size", 50), ("candidate_size", 50),
                            ("cache_backend", "array"), ("refresh_workers", 1)),
            epochs=6,
            **_TRANSD,
        ),
        Spec(
            name="transd-bernoulli",
            sampler="Bernoulli",
            sampler_kwargs=(),
            epochs=10,
            **_TRANSD,
        ),
        # Sized so scoring, not HTTP transport, is most of a cache miss:
        # 7200 entities at dim 256.
        Spec(
            name="serve-topk",
            dataset="FB15K237",
            scale=8.0,
            model="DistMult",
            dim=256,
            sampler="Bernoulli",
            sampler_kwargs=(),
            epochs=2,
            learning_rate=0.01,
            margin=2.0,
            l2_weight=0.0,
            target_mrr=0.10,
            test_mrr_floor=0.005,
        ),
    )
}


def _span(rec: SpanRecorder | None, name: str) -> contextlib.AbstractContextManager:
    """``rec.span(name)`` when tracing, else a no-op context."""
    return rec.span(name) if rec is not None else contextlib.nullcontext()


def _setup(spec: Spec, rec: SpanRecorder | None,
           callbacks: list[object]) -> tuple[Any, Trainer, float]:
    """One set-up: data, model, sampler, trainer (sampler bind included);
    returns its CPU seconds last."""
    started = time.process_time()
    with _span(rec, "data.load"):
        dataset = load_benchmark(spec.dataset, seed=spec.train_seed, scale=spec.scale)
    model = build_model(spec.model, dataset, dim=spec.dim, seed=spec.train_seed)
    sampler = build_sampler(spec.sampler, **dict(spec.sampler_kwargs))
    config = TrainConfig(epochs=spec.epochs, seed=spec.train_seed,
                         learning_rate=spec.learning_rate, margin=spec.margin,
                         l2_weight=spec.l2_weight)
    if rec is not None:
        _patch_training(rec, model, sampler)
    trainer = Trainer(model, dataset, sampler, config, callbacks=callbacks)
    elapsed = time.process_time() - started
    if rec is not None:
        _patch_trainer(rec, trainer)
    return dataset, trainer, elapsed


def _patch_training(rec: SpanRecorder, model: Any, sampler: Any) -> None:
    """Shims that must be in place before the trainer binds the sampler."""
    for attr in ("score_candidates", "score_triples", "grad_triples", "normalize"):
        rec.patch(model, attr, f"models.{attr}")
    for attr in ("score_all_tails", "score_all_heads"):
        rec.patch(model, attr, "models.score_all")
    rec.patch(sampler, "bind", "sampling.bind")
    rec.patch(sampler, "sample", "sampling.sample")
    rec.patch(sampler, "update", "sampling.update")
    import repro.core.nscaching as nscaching  # looked up per call there

    rec.patch(nscaching, "select_cache_survivors", "core.select")
    rec.patch(
        nscaching, "selection_changed_elements", "core.ce_shortcut",
        counter=lambda result: "core.ce_shortcut.hits" if result is not None else None,
    )


def _patch_trainer(rec: SpanRecorder, trainer: Trainer) -> None:
    """Shims on objects the trainer (or the sampler's bind) created."""
    rec.patch(trainer.optimizer, "step", "optim.step")
    for side in ("head_cache", "tail_cache"):
        cache = getattr(trainer.sampler, side, None)
        if cache is not None:
            rec.patch(cache, "gather", "core.cache.gather")
            rec.patch(cache, "scatter", "core.cache.scatter")


def _time_to_target(mrr: list[float], clock: list[float], target: float
                    ) -> tuple[float | None, float | None]:
    """(fractional epochs, training CPU seconds) until sampled MRR reaches ``target``.

    Linear interpolation between the last evaluation below the target and
    the first at or above it, on the epoch axis and on the training clock
    read at each evaluation; ``(None, None)`` when the run never gets there.
    """
    for k, value in enumerate(mrr):
        if value >= target:
            if k == 0:
                return 1.0, clock[0]
            share = (target - mrr[k - 1]) / (value - mrr[k - 1])
            return k + share, clock[k - 1] + share * (clock[k] - clock[k - 1])
    return None, None


def _quantile(values: list[float], q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def train_once(spec: Spec, rec: SpanRecorder | None) -> dict[str, Any]:
    """One set-up, training run and full test evaluation.

    Each epoch's CPU time runs from the end of the previous epoch's
    sampled evaluation to the start of its own, so it holds everything the
    trainer does for that epoch and nothing the evaluation does.
    """
    round_started = time.perf_counter()
    callback = EvalCallback("valid", every=1, num_negatives=EVAL_NEGATIVES,
                            seed=EVAL_DRAW_SEED)
    dataset, trainer, setup_s = _setup(spec, rec, [callback])
    epoch_cpu: list[float] = []
    eval_sampled: list[float] = []
    on_epoch_end = callback.on_epoch_end
    resumed = 0.0

    def timed_eval(*args: Any) -> None:
        nonlocal resumed
        started = time.process_time()
        epoch_cpu.append(started - resumed)
        with _span(rec, "eval.sampled"):
            on_epoch_end(*args)
        resumed = time.process_time()
        eval_sampled.append(resumed - started)

    callback.on_epoch_end = timed_eval  # type: ignore[method-assign]
    try:
        with _span(rec, "train"):
            resumed = time.process_time()
            trainer.run()
    finally:
        trainer.close()
    started = time.process_time()
    with _span(rec, "eval.full"):
        test = evaluate(trainer.model, dataset, "test")
    eval_full_cpu_s = time.process_time() - started

    return {
        "dataset": dataset,
        "model": trainer.model,
        "setup_s": setup_s,
        "losses": list(trainer.history["loss"].values),
        "epoch_cpu_s": epoch_cpu,
        "epoch_seconds": list(trainer.history["epoch_seconds"].values),
        "train_seconds": trainer.train_seconds,
        "valid_mrr": list(callback.series["mrr"].values),
        "eval_times": list(callback.times),
        "test_mrr": float(test["mrr"]),
        "eval_full_cpu_s": eval_full_cpu_s,
        "eval_sampled": eval_sampled,
        "cache_changes": float(sum(trainer.history["cache_changes"].values)),
        "round_s": time.perf_counter() - round_started,
    }


def summarize(spec: Spec, reps: list[dict[str, Any]],
              extra_full: Sequence[float] = (),
              extra_sampled: Sequence[float] = ()) -> dict[str, Any]:
    """Steps 1-3 over repetitions that follow one trajectory.

    Repetitions share a pinned seed and must reproduce one trajectory
    exactly.  The first of several is a warm-up and is not timed: it runs
    about 30% slower while the process's memory arenas grow.  Each epoch
    is charged its median CPU time over the timed repetitions; the
    training clock, throughput and ``time_to_target_cpu_s`` are rebuilt
    from those per-epoch times.  Set-up and the evaluations are medians
    too; ``extra_full`` / ``extra_sampled`` are further timings of the
    same evaluations made after training.
    """
    first = reps[0]
    timed = reps[1:] or reps
    epoch_s = [statistics.median(r["epoch_cpu_s"][e] for r in timed)
               for e in range(spec.epochs)]
    clock = np.cumsum(epoch_s).tolist()
    epochs, seconds = _time_to_target(first["valid_mrr"], clock, spec.target_mrr)
    eval_s = [s for r in timed for s in r["eval_sampled"]] + list(extra_sampled)
    eval_full = [r["eval_full_cpu_s"] for r in timed] + list(extra_full)
    return {
        **first,
        "setup_train_s": statistics.median(r["setup_s"] for r in timed),
        "epochs_to_target": epochs,
        "time_to_target_cpu_s": seconds,
        "train_cpu_s": clock[-1],
        "train_triples_per_cpu_s": len(first["dataset"].train) * spec.epochs / clock[-1],
        "eval_full_cpu_s": statistics.median(eval_full),
        "eval_sampled_cpu_s": statistics.median(eval_s),
        "deterministic": all(r["losses"] == first["losses"]
                             and r["test_mrr"] == first["test_mrr"] for r in reps),
        "epoch_cpu_s": [r["epoch_cpu_s"] for r in reps],
        "epoch_seconds": [r["epoch_seconds"] for r in reps],
        "clock_train_cpu_s": [sum(r["epoch_cpu_s"]) for r in reps],
        "repeats": len(reps),
    }


class ServeSession:
    """Step 4: one ``repro serve`` process, loaded in slices across the run."""

    def __init__(self, spec: Spec, seed: int, trained: dict[str, Any],
                 workdir: Path, root: Path) -> None:
        self.dataset = trained["dataset"]
        self.checkpoint = save_model(trained["model"], workdir / "model.npz")
        self.rng = np.random.default_rng([seed, 7])
        self.seed = seed
        # Queries come from the held-out triples, so their popularity is the
        # graph's own (the generator's entity popularity skew).
        self.held_out = np.concatenate([self.dataset.valid, self.dataset.test])
        self.warm_stream = query_stream(self.held_out, WARMUP_REQUESTS, self.rng)
        self.closed: list[ServeRun] = []
        self.closed_stream: list[dict[str, int]] = []
        self.opened: list[ServeRun] = []
        #: Server CPU milliseconds per answered closed-loop query, per slice.
        self.cpu_ms_per_query: list[float] = []
        self.startups: list[float] = []
        self.startups_cpu: list[float] = []
        self.server: ServerProcess | None = None
        try:
            for attempt in range(SERVER_STARTS):
                self.server = ServerProcess(root, self.checkpoint, spec.dataset,
                                            spec.scale, spec.train_seed,
                                            workdir / "serve.log")
                self.startups.append(self.server.startup_s)
                self.startups_cpu.append(self.server.startup_cpu_s)
                if attempt + 1 < SERVER_STARTS:
                    self.server.stop()
            self.conn = self.server.connect()
            # Unmeasured: fill the server's LRU to its steady hit ratio.
            self.warm = closed_loop(self.conn, self.warm_stream, float("inf"), 0)
        except BaseException:
            self.close()
            raise

    def measure_slice(self) -> None:
        """One closed-loop slice, then one open-loop slice."""
        # The closed loop stops on time; its stream only has to outlast it.
        closed_stream = query_stream(self.held_out, int(CLOSED_SLICE_S * 10_000),
                                     self.rng)
        open_stream = query_stream(self.held_out, OPEN_SLICE, self.rng)
        # The client's own collector pauses would be charged to the server.
        gc.collect()
        gc.disable()
        try:
            cpu_before = self.server.cpu_seconds()
            closed = closed_loop(self.conn, closed_stream, CLOSED_SLICE_S,
                                 CHECKED_ANSWERS * 5 if not self.closed else 0)
            server_cpu = self.server.cpu_seconds() - cpu_before
            self.opened.append(open_loop(self.conn, open_stream, OPEN_RATE))
        finally:
            gc.enable()
        self.cpu_ms_per_query.append(server_cpu * 1e3 / closed.sent)
        self.closed.append(closed)
        self.closed_stream += closed_stream[:closed.sent]

    def close(self) -> None:
        """Drop the connection and stop the server."""
        if self.server is not None:
            if hasattr(self, "conn"):
                self.conn.close()
            self.server.stop()
            self.server = None

    def results(self) -> dict[str, Any]:
        """Serve metrics, and HTTP answers checked against the engine."""
        engine = PredictionEngine.from_checkpoint(self.checkpoint, self.dataset)
        answers = self.closed[0].answers
        picks = np.random.default_rng([self.seed, 8]).choice(
            len(answers), size=min(CHECKED_ANSWERS, len(answers)), replace=False)
        mismatches = 0
        for i in picks:
            query, answer = answers[int(i)]
            if engine.predict([query])[0]["entities"] != answer["entities"]:
                mismatches += 1
        latencies = [x for run in self.opened for x in run.latencies_ms]
        lateness = [x for run in self.opened for x in run.lateness_ms]
        return {
            "setup_serve_s": statistics.median(self.startups_cpu),
            "setup_serve_wall_s": statistics.median(self.startups),
            "serve_slices": len(self.closed),
            "closed_sent": sum(run.sent for run in self.closed),
            "closed_non_200": self.warm.non_200 + sum(run.non_200 for run in self.closed),
            "warmup_requests": self.warm.sent,
            "closed_elapsed_s": sum(run.elapsed_s for run in self.closed),
            "open_sent": sum(run.sent for run in self.opened),
            "open_non_200": sum(run.non_200 for run in self.opened),
            "warm_stream": self.warm_stream,
            "closed_stream": self.closed_stream,
            "checkpoint": self.checkpoint,
            "checked_answers": len(picks),
            "answer_mismatches": mismatches,
            "serve_cpu_ms_per_query": statistics.median(self.cpu_ms_per_query),
            "serve_qps": statistics.median(run.sent / run.elapsed_s
                                           for run in self.closed),
            "serve_p50_ms": _quantile(latencies, 0.50),
            "latency_samples": len(latencies),
            "generator_lag_ms": _quantile(lateness, 0.99),
            "latency_quantiles_ms": {q: _quantile(latencies, q)
                                     for q in (0.5, 0.9, 0.95, 0.99, 0.999)},
        }


def peak_rss_mb() -> float:
    """The larger peak RSS of this (training) process and the server."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def run_pipeline(spec: Spec, seed: int, seconds: float, workdir: Path,
                 root: Path) -> dict[str, Any]:
    """The whole untraced journey; returns every measurement and gate.

    Training repetitions, each followed by a serve slice, run while another
    such round fits in ``seconds``; the rest of ``seconds`` goes to rounds
    of one serve slice and one more full and sampled evaluation of the
    trained model, so every serve and evaluation figure is a median over
    the whole run.
    """
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    started = time.perf_counter()
    reps = [train_once(spec, None)]
    session = ServeSession(spec, seed, reps[0], workdir, root)
    try:
        while True:
            slice_started = time.perf_counter()
            session.measure_slice()
            # The next round's cost, without the one-off server set-up.
            round_s = time.perf_counter() - slice_started + reps[-1]["round_s"]
            elapsed = time.perf_counter() - started
            if len(reps) >= MIN_REPEATS and elapsed + round_s > seconds:
                break
            rep = train_once(spec, None)
            del rep["model"], rep["dataset"]  # only the first is served
            reps.append(rep)
        model, dataset = reps[0]["model"], reps[0]["dataset"]
        extra_full: list[float] = []
        extra_sampled: list[float] = []
        filler_s = 0.0
        while (len(session.closed) < MIN_SLICES
               or time.perf_counter() - started + filler_s <= seconds):
            round_started = time.perf_counter()
            session.measure_slice()
            eval_started = time.process_time()
            evaluate(model, dataset, "test")
            extra_full.append(time.process_time() - eval_started)
            eval_started = time.process_time()
            evaluate(model, dataset, "valid", mode="sampled",
                     num_negatives=EVAL_NEGATIVES, seed=EVAL_DRAW_SEED)
            extra_sampled.append(time.process_time() - eval_started)
            filler_s = time.perf_counter() - round_started
    finally:
        session.close()
    trained = summarize(spec, reps, extra_full, extra_sampled)
    served = session.results()
    out = {**trained, **served}
    out["setup_s"] = trained["setup_train_s"] + served["setup_serve_s"]
    out["peak_rss_mb"] = peak_rss_mb()
    out["gates"] = gates(spec, out)
    return out


def gates(spec: Spec, out: dict[str, Any]) -> dict[str, bool]:
    """Correctness gates; every one must hold for ``correct: true``."""
    return {
        "finite_loss": all(math.isfinite(x) for x in out["losses"]),
        "deterministic_repeats": out["deterministic"],
        "test_mrr_floor": out["test_mrr"] >= spec.test_mrr_floor,
        "http_matches_engine": out["answer_mismatches"] == 0
        and out["checked_answers"] > 0,
    }
