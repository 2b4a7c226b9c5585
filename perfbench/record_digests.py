"""Record the report digests that ``reports.digest_changed`` compares against.

Usage (from the root of a checkout): python3 perfbench/record_digests.py

Runs one batch of every workload and writes ``baseline_digests.json`` next to
this file with the digests of every report whose inputs do not depend on the
seed, and the provenance of the run. Record again only after a deliberate
change to the reports, such as a new summation order in the kernel.
"""
from __future__ import annotations

import json
import sys

import run  # first: it caps the BLAS threads before NumPy loads


def main() -> int:
    run.load_library()
    import workloads

    digests = {}
    for name in workloads.WORKLOADS:
        result = run.measure(name, seed=1, seconds=0.0, trace=False)
        for key, seen in result["digests"].items():
            if "/seed" not in key:
                if len(seen) != 1:
                    print(f"{key}: differs between batches", file=sys.stderr)
                    return 1
                digests[key] = seen[0]
    p = result["provenance"]
    doc = {"provenance": {"backend": p["backend"], "numpy": p["numpy"], "python": p["python"]},
           "digests": digests}
    with open(run.BASELINE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {run.BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
