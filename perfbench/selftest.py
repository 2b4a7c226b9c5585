"""Self-test of the benchmark: every workload once, at a tiny size.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Checks that an untraced and a traced run of each workload print every metric
of BENCHMARK.json with its unit, and that a planted wrong reference value
raises error_rate and clears ``correct``. Exits 1 and lists the problems if
any check fails.
"""
from __future__ import annotations

import json
import sys

import run  # first: it caps the BLAS threads before NumPy loads


def printed_problems(result: dict, names: list[dict]) -> list[str]:
    line = json.loads(json.dumps(run.render(result, names)))
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"} or line["attempted"] < 1:
        problems.append(f"malformed result line {sorted(line)}")
    for m in names:
        got = line["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"] or not isinstance(got.get("value"), float):
            problems.append(f"{m['name']}: printed as {got!r}, want a number in {m['unit']}")
    return problems


def main() -> int:
    run.load_library()
    import workloads

    bench = run.spec()
    problems: list[str] = []
    rates = {}
    for name in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.measure(name, seed=1, seconds=0.0, trace=trace, size="tiny")
            problems += [f"{name} trace={int(trace)}: {p}" for p in printed_problems(result, bench[key])]
            if not trace:
                problems += [f"{name}: {k} is {v}" for k, v in result["metrics"].items() if not v > 0]
                rates[name] = result["error_rate"]
        print(f"{name}: error_rate {rates[name]:.4f}", flush=True)

    surface = workloads.SURFACES["sphere"]
    exact = surface["willmore"]
    surface["willmore"] = 1.5 * exact  # planted: a wrong closed-form energy
    try:
        planted = run.measure("global-monotonicity", seed=1, seconds=0.0, trace=False, size="tiny")
    finally:
        surface["willmore"] = exact
    print(f"global-monotonicity with a planted wrong reference: error_rate {planted['error_rate']:.4f}, "
          f"correct={planted['correct']}")
    if not planted["error_rate"] > rates["global-monotonicity"] or planted["correct"]:
        problems.append("a planted wrong reference did not raise error_rate and clear correct")

    for p in problems:
        print("PROBLEM", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
