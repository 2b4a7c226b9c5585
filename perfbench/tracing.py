"""In-memory span tracer around the library's public functions.

The tracer lives in the benchmark, not in the library: it replaces module
attributes with timing wrappers. Modules bind names at import
(``from .curvature import mean_curvature``), so a wrapper on the defining
module alone misses every call made through another name. ``installed`` wraps
every binding of each traced function it finds in the ``varifold_lab``
modules, plus the function references held in ``generators.GENERATORS``
(which is what ``varifold-lab generate`` calls).

A span is ``[name, start_ns, end_ns, parent_index, op_id, extra]``; ``extra``
holds counters computed from the call's arguments and result, an ``errors``
flag when the call raised, and the wrapper's own bookkeeping time
(``overhead_ns``). Spans stay in memory until the benchmark writes them out.
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

#: Traced functions per module. The metric prefix is the module name without
#: its leading underscore (``_kernels`` -> ``kernels``).
TRACED: dict[str, tuple[str, ...]] = {
    "mesh": ("edge_topology", "refine", "save_varifold", "load_mesh_file"),
    "curvature": ("mean_curvature", "willmore_energy", "point_surface_distance",
                  "euler_characteristic"),
    "_kernels": ("ball_masses",),
    "blowup": ("local_edge_scale", "density", "spherical_link", "monotonicity_check",
               "li_yau_check"),
    "generators": ("gen_sphere", "gen_double_bubble", "gen_triple_bubble"),
    "nets": ("relax", "match_link"),
    "boundary": ("sup_conormal_integral", "admissibility_check"),
    "reports": ("write_report",),
}

# Bytes per face that one full scan of the clipping kernel's inputs reads:
# three corner rows of float64 coordinates (72), the int64 index row (24) and
# the float64 multiplicity (8).
_KERNEL_BYTES_PER_FACE = 72 + 24 + 8


def _kernel_counters(extra: dict, args, kwargs, result) -> None:
    """Counters for ``ball_masses(vertices, faces, mult, x0, radii)``.

    ``faces_scanned`` is faces passed times radii, ``bytes_computed`` the
    bytes those scans read, and ``candidates`` the faces whose bounding
    sphere meets the ball -- the ones a query actually needs. All three are
    computed from the arguments, not counted inside the kernel.
    """
    import numpy as np

    names = ("vertices", "faces", "mult", "x0", "radii")
    bound = dict(zip(names, args), **kwargs)
    verts = np.asarray(bound["vertices"], dtype=np.float64)
    faces = np.asarray(bound["faces"], dtype=np.int64)
    radii = np.atleast_1d(np.asarray(bound["radii"], dtype=np.float64))
    x0 = np.asarray(bound["x0"], dtype=np.float64)
    corners = verts[faces]
    centroid = corners.mean(axis=1)
    spread = np.sqrt(((corners - centroid[:, None, :]) ** 2).sum(axis=2).max(axis=1))
    near = np.sqrt(((centroid - x0) ** 2).sum(axis=1)) - spread
    extra["kernels.radii"] = len(radii)
    extra["kernels.faces_scanned"] = len(faces) * len(radii)
    extra["kernels.bytes_computed"] = len(faces) * len(radii) * _KERNEL_BYTES_PER_FACE
    extra["kernels.candidates"] = int(sum(int((near < r).sum()) for r in radii))


def _link_counters(extra: dict, args, kwargs, result) -> None:
    extra["blowup.link_components"] = len(result.polylines)
    extra["blowup.link_junctions"] = int(result.junction_count)


def _relax_counters(extra: dict, args, kwargs, result) -> None:
    extra["nets.relax.iterations"] = int(getattr(result, "iterations", 0))


def _file_bytes(metric: str, position: int, keyword: str):
    def hook(extra: dict, args, kwargs, result) -> None:
        path = args[position] if len(args) > position else kwargs.get(keyword)
        if path is not None and os.path.exists(path):
            extra[metric] = os.path.getsize(path)
    return hook


HOOKS = {
    "kernels.ball_masses": _kernel_counters,
    "blowup.spherical_link": _link_counters,
    "nets.relax": _relax_counters,
    "mesh.save_varifold": _file_bytes("mesh.save_varifold.bytes", 1, "path"),
    "mesh.load_mesh_file": _file_bytes("mesh.load_mesh_file.bytes", 0, "path"),
    "reports.write_report": _file_bytes("reports.write_report.bytes", 1, "out_path"),
}


class Tracer:
    """Collects spans for the calls made while it is installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    def span(self, name: str, start_ns: int, end_ns: int, op, extra: dict | None = None) -> int:
        """Record a span measured outside a wrapper; returns its index."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start_ns, end_ns, parent, op, dict(extra or {})])
        return len(self.spans) - 1

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = time.perf_counter_ns()
            extra: dict = {}
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, extra]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                extra["errors"] = 1
                raise
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
                extra["overhead_ns"] = rec[1] - enter
            if hook is not None:
                hook(extra, args, kwargs, result)
            extra["overhead_ns"] += time.perf_counter_ns() - rec[2]
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of the traced functions; restore them on exit."""
        import varifold_lab  # noqa: F401  (loads every module that binds them)
        from varifold_lab import generators

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "varifold_lab" or n.startswith("varifold_lab."))]
        undo: list[tuple[dict, str, object]] = []
        for modname, fnames in TRACED.items():
            home = sys.modules[f"varifold_lab.{modname}"]
            for fname in fnames:
                original = getattr(home, fname)
                wrapped = self._wrap(f"{modname.lstrip('_')}.{fname}", original)
                tables = [vars(m) for m in modules] + [generators.GENERATORS]
                for table in tables:
                    for key, value in list(table.items()):
                        if value is original:
                            undo.append((table, key, value))
                            table[key] = wrapped
        try:
            yield self
        finally:
            for table, key, value in reversed(undo):
                table[key] = value


def self_times_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    A child covers its own duration plus its wrapper's bookkeeping, which
    runs inside the parent's span and is reported as tracing overhead.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1] + s[5].get("overhead_ns", 0)
    return own


def own_errors(spans: list[list]) -> list[bool]:
    """True for spans that raised where no traced child raised first."""
    raised = [bool(s[5].get("errors")) for s in spans]
    child_raised = [False] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0 and raised[i]:
            child_raised[s[3]] = True
    return [r and not c for r, c in zip(raised, child_raised)]


def layer_metrics(spans: list[list], weight_of) -> dict[str, float]:
    """Per-layer metrics from the spans, each span weighted by ``weight_of(op)``.

    ``<name>.calls`` counts calls and ``<name>.ms`` sums self time, except for
    CLI commands (``cli.*``), whose ``.ms`` is the command's wall time.
    ``<layer>.errors`` counts calls that raised on their own account, and the
    counters the hooks computed are summed under their own names.
    ``cli.startup_ms`` is the median wall time of the start-up probes.
    """
    import statistics

    acc: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        acc[key] = acc.get(key, 0.0) + value

    startup = []
    for span, own, err in zip(spans, self_times_ns(spans), own_errors(spans)):
        name, start, end, _, op, extra = span
        if name == "cli.startup":
            startup.append((end - start) / 1e6)
            continue
        w = weight_of(op)
        if not w:
            continue
        layer = name.split(".")[0]
        add(f"{name}.calls", w)
        add(f"{name}.ms", w * ((end - start) if layer == "cli" else own) / 1e6)
        add(f"{layer}.errors", w * err)
        for key, value in extra.items():
            if key == "overhead_ns":
                add("trace.overhead_s", w * value / 1e9)
            elif key != "errors":
                add(key, w * value)
    if startup:
        acc["cli.startup_ms"] = statistics.median(startup)
    if acc.get("kernels.faces_scanned"):
        acc["kernels.candidate_share"] = acc["kernels.candidates"] / acc["kernels.faces_scanned"]
    return acc
