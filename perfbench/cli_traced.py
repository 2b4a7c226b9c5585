"""Run one ``varifold-lab`` command with the benchmark's tracer installed.

Usage: python3 perfbench/cli_traced.py SPANS_OUT [varifold-lab arguments ...]

Writes the command's spans to SPANS_OUT as JSON and exits with the command's
exit code. The benchmark uses it for the traced run of ``cli-session`` and
puts the sources on PYTHONPATH.
"""
from __future__ import annotations

import json
import sys
import time

from tracing import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    from varifold_lab import cli  # imported first so its own bindings get wrapped

    tracer = Tracer()
    start = time.perf_counter_ns()
    with tracer.installed():
        installed = time.perf_counter_ns()
        tracer.span("trace.install", start, installed, None, {"overhead_ns": installed - start})
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on --help and usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    with open(out, "w") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
