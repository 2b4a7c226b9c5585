"""Compare the output digests of two benchmark runs.

``perfbench/run.py`` writes a details file per run to ``.perfbench_out/``
(``<workload>-seed<N>-trace<T>.json``); its ``digests`` map holds, per key,
the sorted list of the sha256 digests the run's batches produced. Given the
details files of two runs (say, of a parent and of a change), this prints
every key whose digests differ or that only one file has, then
"K of N keys moved", N counting the keys of both files::

    python tools/digest_diff.py BEFORE AFTER

It exits 0 when no key moved, 1 when some did, and 2 when a file cannot be
read or holds no ``digests`` map.
"""
from __future__ import annotations

import json
import sys


def digests(path: str) -> dict:
    """The ``digests`` map of the details file ``path``."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("digests"), dict):
        raise ValueError(f"{path!r} holds no 'digests' map")
    return doc["digests"]


def moved(before: dict, after: dict) -> list[str]:
    """The keys whose digests differ, or that only one map has, in sorted order."""
    return sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/digest_diff.py BEFORE AFTER", file=sys.stderr)
        return 2
    try:
        before, after = map(digests, argv)
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"digest_diff: {exc}", file=sys.stderr)
        return 2
    keys = moved(before, after)
    for k in keys:
        print(f"{k}: {before.get(k, 'absent')} -> {after.get(k, 'absent')}")
    print(f"{len(keys)} of {len(before.keys() | after.keys())} keys moved")
    return 1 if keys else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
