"""Compare two benchmark results, such as a parent commit's and a change's.

Usage: python3 perfbench/compare.py BEFORE.json AFTER.json

The arguments are details files written to ``.perfbench_out/`` by
``run.py``. Prints each end-to-end metric of both and the relative change.
Results made with different kernel backends, NumPy or Python versions are
not comparable: the comparison is then marked unresolved.
"""
from __future__ import annotations

import json
import sys

IDENTITY = ("backend", "numpy", "python", "trace")


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    before, after = (load(path) for path in argv)
    pb, pa = before["provenance"], after["provenance"]
    if pb["workload"] != pa["workload"]:
        print(f"different workloads: {pb['workload']} vs {pa['workload']}", file=sys.stderr)
        return 2
    differ = [k for k in IDENTITY if pb[k] != pa[k]]
    status = "unresolved (" + ", ".join(f"{k} {pb[k]} vs {pa[k]}" for k in differ) + ")" if differ else "comparable"
    print(f"{pb['workload']}: seeds {pb['seed']} vs {pa['seed']}, {status}")
    for name, old in before["metrics"].items():
        new = after["metrics"][name]
        print(f"  {name:<12} {old:12.4f} -> {new:12.4f}  {100.0 * (new - old) / old:+7.1f}%")
    print(f"  {'error_rate':<12} {before['error_rate']:12.4f} -> {after['error_rate']:12.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
