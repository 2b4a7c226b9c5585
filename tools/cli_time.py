"""Time one CLI command from two ``src/`` trees in alternating pairs.

    python tools/cli_time.py PARENT_SRC CHANGE_SRC [--pairs N] -- generate sphere --level 4 -o s4.json

Each pair runs ``python -m varifold_lab.cli ARGS`` once from each tree (the parent first in
even pairs, the change first in odd ones) in the current directory, with the caller's
environment minus the four BLAS thread variables, and with ``PYTHONPATH`` set to the tree.
Both sides must exit with the same code, 0 or 1. The script prints each side's median wall
time and in how many pairs the change was faster, each side's median peak RSS per child,
then the interpreter floors measured the same way: ``python -S -c pass``, ``python -c pass``,
and ``python -c "import numpy"`` with the BLAS variables at 1 (capped) and unset (uncapped),
in alternating pairs. It imports nothing from the package.

A child's peak RSS is the ``ru_maxrss`` of the rusage that ``os.wait4`` returns for that one
child. ``RUSAGE_CHILDREN`` is not used: its maximum is the largest mark of all children waited
for so far, so the larger side would hide the other. A child's mark also counts the pages it
shares with this script until ``exec``, so no child reads below this script's own peak RSS,
which is printed with the floors: a command whose RSS stays below it cannot be measured here.
"""
from __future__ import annotations

import argparse
import os
import resource
import statistics
import subprocess
import sys
import time

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def base_env() -> dict:
    """The caller's environment without any thread cap."""
    return {k: v for k, v in os.environ.items() if k not in BLAS_VARS}


def run(argv: list[str], env: dict) -> tuple[float, float, int, str]:
    """Wall time (ms) and peak RSS (MB, from ``os.wait4``) of one child process, its exit code
    and its stderr."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    with proc.stderr:
        err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    ms = (time.perf_counter() - t0) * 1e3
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return ms, usage.ru_maxrss / 1024, proc.returncode, err


def pairs(first: tuple[list[str], dict], second: tuple[list[str], dict], n: int) -> tuple[list, list]:
    """(wall ms, peak RSS MB) of each run of ``n`` alternating pairs of two runs, one list per side;
    every run of a side exits alike."""
    runs: tuple[list, list] = ([], [])
    codes: list[set] = [set(), set()]
    for k in range(n):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            ms, mb, code, err = run(*(first, second)[side])
            if code not in (0, 1):
                sys.exit(f"{' '.join((first, second)[side][0])} exited {code}:\n{err}")
            runs[side].append((ms, mb))
            codes[side].add(code)
    if len(codes[0] | codes[1]) > 1:
        sys.exit(f"the two sides exit differently: {sorted(codes[0])} vs {sorted(codes[1])}")
    return runs


def median(runs: list, k: int = 0) -> float:
    """The median wall time (``k`` 0) or peak RSS (``k`` 1) of ``runs``."""
    return statistics.median(r[k] for r in runs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                     usage="%(prog)s PARENT_SRC CHANGE_SRC [--pairs N] -- CLI ARGUMENTS ...")
    parser.add_argument("parent", help="the parent's src/ directory")
    parser.add_argument("change", help="the change's src/ directory")
    parser.add_argument("--pairs", type=int, default=11, help="alternating pairs per measure (default 11)")
    argv = sys.argv[1:]
    cut = argv.index("--") if "--" in argv else len(argv)  # the CLI's arguments follow the first --
    args, command = parser.parse_args(argv[:cut]), argv[cut + 1:]
    if not command or args.pairs < 1:
        parser.error("give a positive --pairs and the CLI arguments after --")

    env = base_env()
    sides = [([sys.executable, "-m", "varifold_lab.cli", *command],
              {**env, "PYTHONPATH": os.pathsep.join(filter(None, [os.path.abspath(src), env.get("PYTHONPATH")]))})
             for src in (args.parent, args.change)]
    parent, change = pairs(*sides, args.pairs)
    wins = sum(c[0] < p[0] for p, c in zip(parent, change))
    before, after = median(parent), median(change)
    print(f"command: {' '.join(command)}")
    print(f"parent  median {before:7.1f} ms  peak RSS {median(parent, 1):6.1f} MB")
    print(f"change  median {after:7.1f} ms  peak RSS {median(change, 1):6.1f} MB  "
          f"(faster in {wins} of {args.pairs} pairs, ratio {after / before:.3f})")

    capped = {**env, **dict.fromkeys(BLAS_VARS, "1")}
    bare, site = pairs(([sys.executable, "-S", "-c", "pass"], env), ([sys.executable, "-c", "pass"], env),
                       args.pairs)
    numpy = [sys.executable, "-c", "import numpy"]
    on, off = pairs((numpy, capped), (numpy, env), args.pairs)
    print(f"floors (medians of {args.pairs}): python -S -c pass {median(bare):.1f} ms, "
          f"python -c pass {median(site):.1f} ms, import numpy capped {median(on):.1f} ms "
          f"({median(on, 1):.1f} MB), uncapped {median(off):.1f} ms ({median(off, 1):.1f} MB); "
          f"this script's peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")


if __name__ == "__main__":
    main()
