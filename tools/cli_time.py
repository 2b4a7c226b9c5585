"""Time one CLI command from two ``src/`` trees in alternating pairs.

    python tools/cli_time.py PARENT_SRC CHANGE_SRC [--pairs N] -- generate sphere --level 4 -o s4.json

Each pair runs ``python -m varifold_lab.cli ARGS`` once from each tree (the parent first in
even pairs, the change first in odd ones) in the current directory, with the caller's
environment minus the four BLAS thread variables and ``VARIFOLD_LAB_THREADS``, and with
``PYTHONPATH`` set to the tree. Both sides must exit with the same code, 0 or 1. The script
prints each side's median wall time and in how many pairs the change was faster, then the
interpreter floors measured the same way: ``python -S -c pass``, ``python -c pass``, and
``python -c "import numpy"`` with the BLAS variables at 1 (capped) and unset (uncapped), in
alternating pairs. It imports nothing from the package.
"""
from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def base_env() -> dict:
    """The caller's environment without any thread cap."""
    return {k: v for k, v in os.environ.items() if k not in (*BLAS_VARS, "VARIFOLD_LAB_THREADS")}


def wall_ms(argv: list[str], env: dict) -> tuple[float, int, str]:
    """Wall time of one child process in ms, its exit code and its stderr."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    return (time.perf_counter() - t0) * 1e3, proc.returncode, proc.stderr


def pairs(first: tuple[list[str], dict], second: tuple[list[str], dict], n: int) -> tuple[list, list]:
    """Wall times of ``n`` alternating pairs of two runs; every run of a side exits alike."""
    times: tuple[list, list] = ([], [])
    codes: list[set] = [set(), set()]
    for k in range(n):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            ms, code, err = wall_ms(*(first, second)[side])
            if code not in (0, 1):
                sys.exit(f"{' '.join((first, second)[side][0])} exited {code}:\n{err}")
            times[side].append(ms)
            codes[side].add(code)
    if len(codes[0] | codes[1]) > 1:
        sys.exit(f"the two sides exit differently: {sorted(codes[0])} vs {sorted(codes[1])}")
    return times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent's src/ directory")
    parser.add_argument("change", help="the change's src/ directory")
    parser.add_argument("--pairs", type=int, default=11, help="alternating pairs per measure (default 11)")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- and the CLI arguments")
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command or args.pairs < 1:
        parser.error("give a positive --pairs and the CLI arguments after --")

    env = base_env()
    sides = [([sys.executable, "-m", "varifold_lab.cli", *command],
              {**env, "PYTHONPATH": os.pathsep.join(filter(None, [os.path.abspath(src), env.get("PYTHONPATH")]))})
             for src in (args.parent, args.change)]
    parent, change = pairs(*sides, args.pairs)
    wins = sum(c < p for p, c in zip(parent, change))
    before, after = statistics.median(parent), statistics.median(change)
    print(f"command: {' '.join(command)}")
    print(f"parent  median {before:7.1f} ms")
    print(f"change  median {after:7.1f} ms  (faster in {wins} of {args.pairs} pairs, ratio {after / before:.3f})")

    capped = {**env, **dict.fromkeys(BLAS_VARS, "1")}
    bare, site = pairs(([sys.executable, "-S", "-c", "pass"], env), ([sys.executable, "-c", "pass"], env),
                       args.pairs)
    numpy = [sys.executable, "-c", "import numpy"]
    on, off = pairs((numpy, capped), (numpy, env), args.pairs)
    print(f"floors (medians of {args.pairs}): python -S -c pass {statistics.median(bare):.1f} ms, "
          f"python -c pass {statistics.median(site):.1f} ms, import numpy capped {statistics.median(on):.1f} ms, "
          f"uncapped {statistics.median(off):.1f} ms")


if __name__ == "__main__":
    main()
