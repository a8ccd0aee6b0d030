"""Small-size self-test of the benchmark's output schema and metric names.

Runs every workload shrunk to a tiny graph, a two-epoch schedule and a
one-second serve phase, once untraced and once traced, and checks that
each result has exactly the contract's keys and exactly the metric names
and units ``BENCHMARK.json`` declares.  It checks the shape of the output,
not the program's speed or quality.  Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace

import run


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    sys.path.insert(0, str(run.ROOT / "src"))
    from workloads import SPECS

    if sorted(SPECS) != sorted(w["name"] for w in declared["workloads"]):
        problems.append("workload names differ between BENCHMARK.json and workloads.py")
    small = {name: replace(spec, scale=0.1, dim=16, epochs=2)
             for name, spec in SPECS.items()}
    for name in small:
        for trace in (False, True):
            result = run.run_one(name, seed=99, seconds=1.0, trace=trace, specs=small)
            kind = "per_layer" if trace else "end_to_end"
            units = {m["name"]: m["unit"] for m in declared[kind]}
            where = f"{name} trace={int(trace)}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(result)}")
            if set(result["metrics"]) != set(units):
                problems.append(f"{where}: metric names differ from BENCHMARK.json {kind}")
            if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
                    and isinstance(result["failed"], int)):
                problems.append(f"{where}: attempted/failed must be whole numbers")
            for metric, entry in result["metrics"].items():
                value = entry["value"]
                if set(entry) != {"value", "unit"} or entry["unit"] != units.get(metric):
                    problems.append(f"{where}: {metric} is not {{value, unit}} "
                                    "with the declared unit")
                if not (isinstance(value, float) and math.isfinite(value)):
                    problems.append(f"{where}: {metric}={value!r} is not a finite number")
            json.loads(json.dumps(result))  # the printed line must round-trip
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
