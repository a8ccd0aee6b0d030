"""The repository benchmark: one workload per call, or every workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload transd-nscaching --seed 0 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0   # every workload,
                                                       # then the paper claim

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same pipeline untraced, then again with timing
shims around the program's public methods, and reports per-layer metrics,
the tracing overhead and whether the traced trajectory matched the
untraced one bit for bit.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Every run
also writes a result record under ``.perfbench/results/``, stamped with
the host fingerprint, the source revision and the seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
# Client, server and trainer share a 2-CPU host; BLAS worker threads would
# contend with them, so both processes run single-threaded BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
OUT = ROOT / ".perfbench"

#: Training seed of the paper-claim line's held-out repetition.
HELD_OUT_TRAIN_SEED = 1000


def _declared(kind: str) -> dict[str, str]:
    """Metric name -> unit of one ``BENCHMARK.json`` table, in its order."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in declared[kind]}


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_revision() -> str | None:
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def host_fingerprint() -> dict[str, Any]:
    """Host, interpreter, NumPy/BLAS build and source revision."""
    import numpy as np

    blas: dict[str, Any] = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {key: deps.get(key, {}) for key in ("blas", "lapack")}
    except (TypeError, KeyError):  # NumPy builds without dict-mode config
        pass
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "git_revision": _git_revision(),
        "source_digest": _source_digest(),
    }


# -- measuring -----------------------------------------------------------------
def _outcome(out: dict[str, Any], gates: dict[str, bool],
             metrics: dict[str, float]) -> dict[str, Any]:
    """The contract's result: gates, operations attempted and failed."""
    return {
        "correct": all(gates.values()),
        # The training run to the target, plus every HTTP request sent.
        "attempted": 1 + out["warmup_requests"] + out["closed_sent"] + out["open_sent"],
        "failed": int(out["time_to_target_cpu_s"] is None)
        + out["closed_non_200"] + out["open_non_200"],
        "metrics": metrics,
    }


def end_to_end(spec: Any, seed: int, seconds: float) -> tuple[dict[str, Any], dict]:
    """Run the untraced pipeline; returns (result, record details)."""
    from workloads import OPEN_RATE, run_pipeline

    workdir = OUT / "work" / f"{spec.name}-{seed}"
    try:
        out = run_pipeline(spec, seed, seconds, workdir, ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = _outcome(out, out["gates"], {})
    missed_target = out["time_to_target_cpu_s"] is None
    if missed_target:  # report the whole run as a lower bound; counted failed
        out["time_to_target_cpu_s"] = out["train_cpu_s"]
    result["metrics"] = {name: float(out[name]) for name in _declared("end_to_end")}
    details = {
        "gates": out["gates"],
        "train_seed": spec.train_seed,
        "target_mrr": spec.target_mrr,
        "missed_target": missed_target,
        "valid_mrr": out["valid_mrr"],
        "epochs_to_target": out["epochs_to_target"],
        "losses": out["losses"],
        "training_repeats": out["repeats"],
        "epoch_cpu_s": out["epoch_cpu_s"],
        "epoch_seconds": out["epoch_seconds"],
        "clock_train_cpu_s": out["clock_train_cpu_s"],
        "setup_train_cpu_s": out["setup_train_s"],
        "setup_serve_cpu_s": out["setup_serve_s"],
        "setup_serve_wall_s": out["setup_serve_wall_s"],
        "serve_qps": out["serve_qps"],
        "serve_slices": out["serve_slices"],
        "closed_loop_requests": out["closed_sent"],
        "open_rate": OPEN_RATE,
        "latency_samples": out["latency_samples"],
        "latency_quantiles_ms": out["latency_quantiles_ms"],
        "generator_lag_p99_ms": out["generator_lag_ms"],
        "checked_answers": out["checked_answers"],
    }
    return result, details


def per_layer(spec: Any, seed: int, seconds: float) -> tuple[dict[str, Any], dict]:
    """Untraced reference, then the traced run; per-layer metrics + parity."""
    from repro import PredictionEngine
    from tracing import SpanRecorder
    from workloads import run_pipeline, summarize, train_once

    workdir = OUT / "work" / f"{spec.name}-{seed}"
    rec = SpanRecorder()
    try:
        base = run_pipeline(spec, seed, seconds, workdir, ROOT)
        try:
            traced = summarize(spec, [train_once(spec, rec)])
        finally:
            rec.restore()
        stream = base["closed_stream"]

        def warmed_engine() -> Any:
            engine = PredictionEngine.from_checkpoint(base["checkpoint"], base["dataset"])
            for query in base["warm_stream"]:  # the LRU state HTTP saw
                engine.predict([query])
            engine.cache.reset_counters()
            return engine

        # Engine-direct replay of the closed-loop stream, first with no shims
        # (for the HTTP comparison), then traced for the serve layers.
        engine = warmed_engine()
        started = time.perf_counter()
        for query in stream:
            engine.predict([query])
        direct_s = time.perf_counter() - started
        engine = warmed_engine()
        try:
            rec.patch(engine, "predict", "serve.predict")
            rec.patch(engine.scorer, "top_tails", "serve.topk")
            rec.patch(engine.scorer, "top_heads", "serve.topk")
            rec.patch(engine.scorer.model, "score_all_tails", "models.score_all")
            rec.patch(engine.scorer.model, "score_all_heads", "models.score_all")
            rec.patch(engine.cache, "put", "serve.cache.put")
            with rec.span("serve"):
                for query in stream:
                    engine.predict([query])
        finally:
            rec.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rec.write(OUT / "traces" / f"{spec.name}-seed{seed}.json")

    everything = rec.totals()
    train = rec.totals(under="train", outside="eval.")

    def busy(table: dict, name: str) -> float:
        return float(table.get(name, {}).get("busy_s", 0.0))

    def calls(table: dict, name: str) -> float:
        return float(table.get(name, {}).get("calls", 0))

    ce_calls = calls(train, "core.ce_shortcut")
    cache = engine.cache.stats()
    lookups = cache["hits"] + cache["misses"]
    fraction = traced["epochs_to_target"]
    metrics = {
        "data.load.busy_s": busy(everything, "data.load"),
        "sampling.bind.busy_s": busy(everything, "sampling.bind"),
        "sampling.sample.calls": calls(train, "sampling.sample"),
        "sampling.sample.busy_s": busy(train, "sampling.sample"),
        "sampling.update.calls": calls(train, "sampling.update"),
        "sampling.update.busy_s": busy(train, "sampling.update"),
        "sampling.update.self_s": float(
            train.get("sampling.update", {}).get("self_s", 0.0)),
        "core.cache.gather.busy_s": busy(train, "core.cache.gather"),
        "core.cache.scatter.busy_s": busy(train, "core.cache.scatter"),
        "core.select.busy_s": busy(train, "core.select"),
        "core.ce_shortcut.busy_s": busy(train, "core.ce_shortcut"),
        "core.ce_shortcut.hit_ratio": (
            rec.counts.get("core.ce_shortcut.hits", 0) / ce_calls if ce_calls else 0.0),
        "core.cache.changed_elements": traced["cache_changes"],
        "models.score_candidates.calls": calls(train, "models.score_candidates"),
        "models.score_candidates.busy_s": busy(train, "models.score_candidates"),
        "models.score_triples.busy_s": busy(train, "models.score_triples"),
        "models.grad_triples.busy_s": busy(train, "models.grad_triples"),
        "models.normalize.busy_s": busy(train, "models.normalize"),
        "models.score_all.busy_s": busy(everything, "models.score_all"),
        "optim.step.calls": calls(train, "optim.step"),
        "optim.step.busy_s": busy(train, "optim.step"),
        "eval.full.busy_s": busy(everything, "eval.full"),
        "eval.sampled.busy_s": busy(everything, "eval.sampled"),
        "train.epochs_to_target": float(
            math.ceil(fraction) if fraction is not None else spec.epochs + 1),
        "train.refresh_share": busy(train, "sampling.update") / traced["train_seconds"],
        "serve.predict.busy_s": busy(everything, "serve.predict"),
        "serve.topk.busy_s": busy(everything, "serve.topk"),
        "serve.cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "serve.cache.puts": calls(everything, "serve.cache.put"),
        "serve.http.busy_s": base["closed_elapsed_s"] - direct_s,
        "serve.generator_lag_ms": base["generator_lag_ms"],
        # One traced repetition against a typical (median) untraced one.
        "trace.overhead_ratio": traced["train_cpu_s"]
        / statistics.median(base["clock_train_cpu_s"]) - 1.0,
    }
    parity = {
        "losses_bit_identical": traced["losses"] == base["losses"],
        "test_mrr_bit_identical": traced["test_mrr"] == base["test_mrr"],
    }
    gates = {**base["gates"], **parity}
    result = _outcome(base, gates, metrics)
    details = {
        "gates": gates,
        "train_cpu_s_untraced": base["train_cpu_s"],
        "train_cpu_s_traced": traced["train_cpu_s"],
        "engine_direct_s": direct_s,
        "http_closed_loop_s": base["closed_elapsed_s"],
        "replayed_queries": len(stream),
        "spans": len(rec.spans),
    }
    return result, details


def run_one(name: str, seed: int, seconds: float, trace: bool,
            specs: dict | None = None) -> dict[str, Any]:
    """Measure one workload, print its report, write its record."""
    from workloads import SPECS

    spec = (specs or SPECS)[name]
    measure = per_layer if trace else end_to_end
    result, details = measure(spec, seed, seconds)
    units = _declared("per_layer" if trace else "end_to_end")
    result["metrics"] = {key: {"value": value, "unit": units[key]}
                         for key, value in result["metrics"].items()}
    print(f"== {name}  seed={seed}  train_seed={spec.train_seed}  trace={int(trace)}")
    for key, metric in result["metrics"].items():
        print(f"  {key:32s} {metric['value']:14.6g} {metric['unit']}")
    if not trace:
        tails = details["latency_quantiles_ms"]
        print(f"  (wall clock, not gated: serve_qps {details['serve_qps']:.1f} over "
              f"{details['closed_loop_requests']} closed-loop requests; open-loop "
              f"latency over {details['latency_samples']} requests at "
              f"{details['open_rate']:g}/s: p50 {tails[0.5]:.3f} ms, "
              f"p95 {tails[0.95]:.3f} ms, p99 {tails[0.99]:.3f} ms)")
    print(f"  correct={result['correct']}  failed={result['failed']}"
          f"/{result['attempted']}  gates={details['gates']}")
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host_fingerprint(),
        **result,
        "details": details,
    }
    path = OUT / "results" / (f"{name}-train{spec.train_seed}-seed{seed}"
                              f"-trace{int(trace)}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, default=str))
    return result


def paper_claim(results: dict[int, dict[str, dict]]) -> None:
    """NSCaching vs Bernoulli time to target, with both values and bases."""
    for train_seed, by_name in results.items():
        nsc = by_name["transd-nscaching"]["metrics"]["time_to_target_cpu_s"]["value"]
        ber = by_name["transd-bernoulli"]["metrics"]["time_to_target_cpu_s"]["value"]
        print(f"paper claim (training seed {train_seed}): time_to_target_cpu_s "
              f"NSCaching {nsc:.3f} s, Bernoulli {ber:.3f} s; "
              f"NSCaching/Bernoulli = {nsc / ber:.3f} (base: Bernoulli), "
              f"Bernoulli/NSCaching = {ber / nsc:.3f} (base: NSCaching)")


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Every workload, each in its own process (so peak RSS is its own),
    then both training workloads again on a training seed never used
    while the benchmark was tuned, and the paper-claim line."""
    plan = [(name, 0) for name in names] + [
        (name, HELD_OUT_TRAIN_SEED) for name in ("transd-nscaching", "transd-bernoulli")]
    results: dict[int, dict[str, dict]] = {}
    ok = True
    for name, train_seed in plan:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace), "--train-seed", str(train_seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        if result is None:
            print(f"error: workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return 2
        results.setdefault(train_seed, {})[name] = result
        ok = ok and result["correct"] and result["failed"] == 0
    if not args.trace:
        paper_claim(results)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--train-seed", type=int, default=None,
                        help="override the workload's pinned training seed")
    args = parser.parse_args(argv)
    # A terminated run unwinds like an error, so it stops its server too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import SPECS

    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all":
        return run_all(args, list(SPECS))
    if args.workload not in SPECS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(SPECS)} or 'all'")
    specs = SPECS
    if args.train_seed is not None:
        specs = {**SPECS, args.workload: replace(SPECS[args.workload],
                                                 train_seed=args.train_seed)}
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), specs)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
