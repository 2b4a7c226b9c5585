"""varifold-lab benchmark: one command runs a workload and prints its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-session, local-queries, global-monotonicity (see README.md
next to this file). The run makes batches of the workload's fixed operations,
one after another: as many batches as take about S seconds at the workload's
nominal batch time (at least one), so two versions of the program measure the
same operations. Before and between batches it sets the workload up from the
seed, five times in all. Times are CPU times scaled to a reference speed of
the host, and each operation counts at its median over the batches (see
``cpu_s``, ``HostSpeed`` and ``typical_times``). Every operation is checked
against a closed form. With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` the library's functions are wrapped and it carries the
per-layer metrics.
Details (provenance, failures, digests, and with tracing the spans) go to
``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import os

# BLAS pools size themselves when NumPy loads, so the cap goes into the
# environment before anything imports NumPy: here for this process, and
# through os.environ into every CLI subprocess.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VARIFOLD_LAB_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
BASELINE = os.path.join(HERE, "baseline_digests.json")
SETUP_REPEATS = 5
#: No batch starts once the batches have run this many times --seconds (or
#: 100 s), so a run stays near its length, and within 180 s, even on a
#: machine much slower than the one the nominal batch times were set on.
OVERRUN = 1.5
HARD_STOP_S = 100.0
#: The processors this process may use, counted before ``measure`` pins it to one.
NPROC = len(os.sched_getaffinity(0))


def load_library() -> None:
    """Put the checkout's sources first on the path, or stop if there are none."""
    if not os.path.isfile(os.path.join(SRC, "varifold_lab", "__init__.py")):
        raise FileNotFoundError(f"no varifold_lab sources under {SRC}")
    sys.path.insert(0, SRC)
    import varifold_lab

    if not os.path.abspath(varifold_lab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"varifold_lab was imported from {varifold_lab.__file__}, not {SRC}")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def provenance(workload: str, seed: int, trace: bool) -> dict:
    import numpy

    from varifold_lab import _kernels

    return {
        "workload": workload, "seed": seed, "trace": trace,
        "backend": _kernels.BACKEND, "numpy": numpy.__version__,
        "python": platform.python_version(), "blas_threads": BLAS_THREADS,
        "nproc": NPROC, "pinned_to_cpu": min(os.sched_getaffinity(0)), "machine": platform.machine(),
    }


def cpu_s() -> float:
    """CPU seconds (user + system) used so far by this process and its reaped children.

    Operations run one at a time in a single thread, or in one CLI
    subprocess that is waited for, so an operation's CPU time is its wall
    time less the time it waited for a processor. That wait depends on what
    else the machine runs, not on the program.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


#: CPU time of ``HostSpeed.probe`` on the 2-vCPU VM the benchmark was tuned
#: on, in its fast phases. Scaled times read as CPU time on that host at that
#: speed; on another machine they differ from it by a constant factor.
REFERENCE_S = 0.009


class HostSpeed:
    """Times a fixed reference task between operations, to scale their CPU times.

    On a shared host the processor itself runs slower in phases that last from
    seconds to minutes (a fixed pure-Python loop took 10 ms or 15 ms, and the
    fast minimum of a 15-second window moved by 20%), and CPU time slows with
    it. The probe mixes interpreter work with NumPy gathers and sorts, as the
    library does; an operation's CPU time is multiplied by ``REFERENCE_S``
    over the mean of the probes just before and just after it. The probe
    belongs to the benchmark and calls nothing in the library, so a change to
    the program moves the operations' times and not the probe's.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.values = rng.standard_normal(60_000)
        self.index = rng.integers(0, 60_000, 60_000)
        self.last = self.probe()

    def probe(self) -> float:
        import numpy as np

        c0 = time.process_time()
        counts: dict[int, int] = {}
        for i in range(20_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        gathered = self.values[self.index]
        np.sort(gathered)
        np.cumsum(gathered * gathered)
        np.unique(self.index)
        return time.process_time() - c0

    def restart(self) -> None:
        """Probe now, so the next scale does not reach back past other work."""
        self.last = self.probe()

    def scale(self) -> float:
        """Probe again; the factor for the work done since the last probe."""
        now = self.probe()
        factor = 2.0 * REFERENCE_S / (self.last + now)
        self.last = now
        return factor


def typical_times(batches: list) -> dict[tuple[str, str], float]:
    """Each operation's median scaled CPU time over the batches of a run."""
    seen: dict[tuple[str, str], list[float]] = {}
    for *_, rows in batches:
        for key, scaled, *_ in rows:
            seen.setdefault(key, []).append(scaled)
    return {key: statistics.median(values) for key, values in seen.items()}


def tail(latencies: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten samples above it, and which one.

    With ten samples or fewer no percentile qualifies, and the maximum is
    reported (as percentile 100).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    k = n - 10
    return ordered[k - 1], (100 * k) // n


def run_batch(ops: list, b: int, tracer, speed: HostSpeed) -> tuple[float, float, list]:
    """Time one batch, then check it; returns its CPU and wall time and its rows.

    A row is ``[(kind, label), scaled_cpu_s, cpu_s, wall_s, outcome]``. Rows
    keep no operation or output, so a set-up after the batch frees their
    inputs.
    """
    import workloads

    rows = []
    cpu = wall = 0.0
    speed.restart()
    for k, op in enumerate(ops):
        if tracer:
            tracer.op = ("batch", b, k)
        c0, t0 = cpu_s(), time.perf_counter()
        try:
            value, raised = op.call(), None
        except Exception as exc:  # a raising operation is a counted failure
            value, raised = None, exc
        c1, t1 = cpu_s() - c0, time.perf_counter() - t0
        rows.append([op, c1 * speed.scale(), c1, t1, value, raised])
        cpu, wall = cpu + c1, wall + t1
    if tracer:
        tracer.op = ("check",)
    for row in rows:  # checks run outside the timed batch
        op, *_, value, raised = row
        row[0] = (op.kind, op.label)
        row[4:] = [workloads.Outcome(f"raised {raised!r}") if raised else op.check(value)]
    return cpu, wall, rows


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one workload and return its metrics and details."""
    import tracing
    import workloads

    tracer = tracing.Tracer() if trace else None
    # one processor for the benchmark and its subprocesses, so the speed
    # probes measure the processor the operations run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed = HostSpeed()
    batches: list[tuple[float, float, list]] = []
    setup_s: list[float] = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        w = workloads.WORKLOADS[workload](ROOT, seed, size, tracer)
        try:
            n_batches = max(1, round(seconds / w.batch_s))
            # set-ups are spread over the run, each replacing the last, so
            # their median does not rest on one phase of the host
            setup_at = [-(-SETUP_REPEATS * b // n_batches) for b in range(n_batches + 1)]
            start = time.perf_counter()
            for b in range(n_batches):
                for i in range(setup_at[b], setup_at[b + 1]):
                    if tracer:
                        tracer.op = ("setup", i)
                    speed.restart()
                    c0 = cpu_s()
                    w.setup()
                    setup_s.append((cpu_s() - c0) * speed.scale())
                batches.append(run_batch(w.batch(b), b, tracer, speed))
                if time.perf_counter() - start > min(OVERRUN * seconds, HARD_STOP_S):
                    break
        finally:
            w.close()

    usage = resource.getrusage(resource.RUSAGE_SELF if w.in_process else resource.RUSAGE_CHILDREN)
    typical = typical_times(batches)
    # every run of an operation counts at its operation's median time
    latencies = [typical[key] for *_, rows in batches for key, *_ in rows]
    outcomes = [(b, k, kind, out) for b, (*_, rows) in enumerate(batches)
                for k, ((kind, _), *_, out) in enumerate(rows)]
    tail_ms, tail_pct = tail(latencies)
    metrics = {
        "run_s": sum(typical.values()),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * tail_ms,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    digests: dict[str, set] = {}
    for *_, out in outcomes:
        for key, value in out.digests.items():
            digests.setdefault(key, set()).add(value)
    with open(BASELINE) as fh:
        baseline = json.load(fh)
    changed = sorted(k for k, seen in digests.items()
                     if k in baseline["digests"] and seen != {baseline["digests"][k]})
    unstable = sorted(k for k, seen in digests.items() if len(seen) > 1)
    failed = [o for o in outcomes if o[3].failure]
    result = {
        "provenance": provenance(workload, seed, trace),
        "metrics": metrics,
        "tail_percentile": tail_pct,
        "ops": len(latencies), "batches": len(batches), "setups": len(setup_s),
        "attempted": len(outcomes), "failed": len(failed),
        "correct": not any(o[3].wrong for o in outcomes),
        "error_rate": len(failed) / len(outcomes),
        "failures": [{"batch": b, "op": k, "kind": kind, "failure": out.failure, "wrong": out.wrong}
                     for b, k, kind, out in failed],
        "speed_factor": statistics.median(scaled / cpu for *_, rows in batches
                                          for _, scaled, cpu, *_ in rows if cpu > 0),
        "batch_cpu_s": statistics.median(cpu for cpu, _, _ in batches),
        "batch_wall_s": statistics.median(wall for _, wall, _ in batches),
        "fields_latencies_ms": ["batch", "kind", "label", "scaled_cpu", "cpu", "wall"],
        "latencies_ms": [[b, kind, label, 1000.0 * scaled, 1000.0 * cpu, 1000.0 * wall]
                         for b, (*_, rows) in enumerate(batches)
                         for (kind, label), scaled, cpu, wall, _ in rows],
        "digests": {k: sorted(v) for k, v in sorted(digests.items())},
        "digests_compared": sum(k in baseline["digests"] for k in digests),
        "digest_changed": changed, "digest_unstable": unstable,
        "digest_baseline": baseline["provenance"],
    }
    if tracer:
        def weight_of(op):
            if not op or op[0] == "check":
                return 0.0
            return 1.0 / (len(setup_s) if op[0] == "setup" else len(batches))
        layers = tracing.layer_metrics(tracer.spans, weight_of)
        layers["reports.digest_changed"] = len(changed)
        layers["cli.errors"] = sum(1 for o in failed if o[2].startswith("cli.")) / len(batches)
        result["layers"] = layers
        result["spans"] = tracer.spans
    return result


def render(result: dict, names: list[dict]) -> dict:
    """The result line: every metric listed in ``names``, with its unit."""
    values = result["layers"] if result["provenance"]["trace"] else result["metrics"]
    return {
        "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in names},
    }


def summary(result: dict) -> list[str]:
    p, m = result["provenance"], result["metrics"]
    lines = [
        f"perfbench {p['workload']} seed={p['seed']} trace={int(p['trace'])} backend={p['backend']} "
        f"numpy={p['numpy']} python={p['python']} blas_threads={p['blas_threads']} nproc={p['nproc']}",
        f"  run_s {m['run_s']:.3f} s (scaled CPU time, each op at its median over "
        f"{result['batches']} batches; unscaled median batch {result['batch_cpu_s']:.3f} s CPU, "
        f"{result['batch_wall_s']:.3f} s wall; median speed factor {result['speed_factor']:.3f})",
        f"  op_p50_ms {m['op_p50_ms']:.1f} ms  op_tail_ms {m['op_tail_ms']:.1f} ms "
        f"(p{result['tail_percentile']} of {result['ops']} op runs, each at its op's median)",
        f"  setup_s {m['setup_s']:.3f} s scaled CPU (median of {result['setups']})  "
        f"peak_rss_mb {m['peak_rss_mb']:.1f} MB  error_rate {result['error_rate']:.4f} fraction "
        f"({result['failed']}/{result['attempted']} failed, correct={result['correct']})",
        f"  digests: {len(result['digest_changed'])} of {result['digests_compared']} changed "
        f"against the baseline ({result['digest_baseline']['backend']} kernel, "
        f"numpy {result['digest_baseline']['numpy']})",
    ]
    if (result["digest_baseline"]["backend"], result["digest_baseline"]["numpy"]) != (p["backend"], p["numpy"]):
        lines.append("  digest comparison unresolved: the baseline came from another backend or NumPy")
    for key in result["digest_unstable"]:
        lines.append(f"  NOT REPRODUCIBLE {key}: its bytes differ between batches")
    seen = set()
    for f in result["failures"]:
        if (f["kind"], f["failure"]) not in seen:
            seen.add((f["kind"], f["failure"]))
            lines.append(f"  FAILED {f['kind']} (batch {f['batch']} op {f['op']}): {f['failure']}")
    return lines


def write_details(result: dict) -> None:
    p = result["provenance"]
    os.makedirs(OUT, exist_ok=True)
    stem = f"{p['workload']}-seed{p['seed']}"
    spans = result.pop("spans", None)
    with open(os.path.join(OUT, f"{stem}-trace{int(p['trace'])}.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if spans is not None:
        with open(os.path.join(OUT, f"trace-{stem}.json"), "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "extra"],
                       "spans": spans}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli-session", "local-queries", "global-monotonicity"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        load_library()
        names = spec()["per_layer" if args.trace else "end_to_end"]
    except (OSError, ImportError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    line = render(result, names)
    write_details(result)
    print("\n".join(summary(result)))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
