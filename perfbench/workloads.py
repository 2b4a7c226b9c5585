"""The benchmark's three workloads and the closed-form references they check.

Each workload is one client in a closed loop: the next operation starts when
the previous one has returned. ``setup()`` builds everything the operations
need from the seed (it may run several times; each run replaces the last),
and ``batch(i)`` returns the i-th batch: the workload's fixed set of
operations, in an order that may change between batches. ``batch_s`` is the
batch's nominal time, which sets how many batches a run makes.
An operation is a ``call`` that is timed and a ``check`` that is not; the
check compares the output with a closed form and returns an ``Outcome``.
``kind`` and ``label`` together name an operation uniquely within a batch.

The library is reached only through the ``varifold_lab`` package namespace
(looked up at call time, so a tracer installed later sees the calls) and
through the ``varifold-lab`` command line.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import varifold_lab as vl
from varifold_lab.reports import TOLERANCE_PROFILES, canonical_dumps, collect_flags

TOL = TOLERANCE_PROFILES["default"]

# ---------------------------------------------------------------------------
# closed forms

TETRA = 3.0 * math.acos(-1.0 / 3.0) / math.pi  # density at a tetrahedral point
#: expected density -> (catalogue net of the link, its junctions, its polylines)
LINK_OF_DENSITY = {1.0: ("great circle", 0, 1), 1.5: ("three half circles", 2, 3),
                   TETRA: ("tetrahedron", 4, 6)}

THETA2 = 0.7  # double bubble middle-sheet opening, as in the README
_T1 = 2.0 * math.pi / 3.0 - THETA2
_PHI = (1.0 + math.sqrt(5.0)) / 2.0

#: Surfaces with their closed-form Willmore energy and density points. Each
#: point is (name, coordinates, density, link radius); the coordinates are
#: mesh vertices by construction of the generators.
SURFACES = {
    "sphere": {
        "willmore": 4.0 * math.pi,
        "points": [("surface", (-1.0 / math.sqrt(1.0 + _PHI ** 2), _PHI / math.sqrt(1.0 + _PHI ** 2), 0.0),
                    1.0, 0.35)],
    },
    "double-bubble": {
        "willmore": 6.0 * math.pi,
        "points": [("junction", (1.0, 0.0, 0.0), 1.5, 0.35),
                   ("apex", (0.0, 0.0, (1.0 - math.cos(_T1)) / math.sin(_T1)), 1.0, 0.35)],
    },
    "triple-bubble": {
        "willmore": 12.0 * math.acos(-1.0 / 3.0),
        "points": [("x1", (math.sqrt(2.0 / 3.0), -1.0 / math.sqrt(3.0), 0.0), TETRA, 0.3),
                   ("x2", (-math.sqrt(2.0 / 3.0), -1.0 / math.sqrt(3.0), 0.0), TETRA, 0.3),
                   ("arc", (0.0, 0.0, 1.0), 1.5, 0.3)],
    },
}

#: Catalogue nets with coordinates, and their frozen lengths.
NET_LENGTHS = [
    ("great circle", 2.0 * math.pi), ("three half circles", 3.0 * math.pi),
    ("tetrahedron", 6.0 * math.acos(-1.0 / 3.0)), ("cube", 14.771513008089297),
    ("pentagon prism", 16.48165843237495), ("triangle prism", 13.502820874218845),
    ("dodecahedron", 21.89182968680899),
]

#: Mesh levels and batch sizes: "full" is the benchmark, "tiny" the self-test.
SIZES = {
    "full": {"cli": {"sphere": 5, "double-bubble": 5, "triple-bubble": 4}, "nets": 3,
             "local": [("double-bubble", 5), ("triple-bubble", 4), ("triple-bubble", 5)],
             "global": [("sphere", 4), ("double-bubble", 5), ("triple-bubble", 4)], "checks": 50},
    "tiny": {"cli": {"sphere": 3, "double-bubble": 3, "triple-bubble": 2}, "nets": 1,
             "local": [("double-bubble", 4), ("triple-bubble", 3)],
             "global": [("sphere", 2), ("double-bubble", 3), ("triple-bubble", 2)], "checks": 4},
}


def generate(name: str, level: int):
    if name == "sphere":
        return vl.gen_sphere(1.0, level)
    if name == "double-bubble":
        return vl.gen_double_bubble(THETA2, 1.0, level)
    return vl.gen_triple_bubble(level)


def digest(text: str | bytes) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


# ---------------------------------------------------------------------------
# operations


@dataclass
class Outcome:
    """Result of checking one operation.

    ``failure`` names why the operation failed (it raised, exited with an
    unexpected code, reported ``passed: false``, or missed its reference).
    ``wrong`` marks a miss the program did not flag itself: it reported
    success, but the output disagrees with the closed form.
    """

    failure: str | None = None
    wrong: bool = False
    digests: dict[str, str] = field(default_factory=dict)


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


def _misses(errors: list[str], what: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        errors.append(f"{what}={got!r} misses {want!r} (tol {tol:g})")


def _verdict(errors: list[str], flagged: list[str], digests: dict[str, str]) -> Outcome:
    """Program-flagged failures win; otherwise reference misses are wrong answers."""
    if flagged:
        return Outcome("; ".join(flagged + errors), digests=digests)
    if errors:
        return Outcome("; ".join(errors), wrong=True, digests=digests)
    return Outcome(digests=digests)


def _check_density(rep, want: float) -> list[str]:
    errors: list[str] = []
    _misses(errors, "theta", rep.theta, want, TOL["density_abs"])
    label = vl.classify_density(want)[0]
    if rep.classification != label:
        errors.append(f"classification {rep.classification!r} != {label!r}")
    return errors


def _check_link(total_length: float, junctions: int, components: int, match: str,
                want: float) -> list[str]:
    name, n_junctions, n_components = LINK_OF_DENSITY[want]
    errors: list[str] = []
    _misses(errors, "link length", total_length, 2.0 * math.pi * want, TOL["link_match_abs"])
    if (match, junctions, components) != (name, n_junctions, n_components):
        errors.append(f"link {match!r} with {junctions} junctions and {components} polylines, "
                      f"want {name!r}, {n_junctions}, {n_components}")
    return errors


# ---------------------------------------------------------------------------
# cli-session


class CliSession:
    """One subprocess per ``varifold-lab`` command, over the reference surfaces.

    Each batch replays the same session: generate the three surfaces, analyze
    each at its closed-form density points, run the README quick-start
    ``analyze`` verbatim, relax seeded perturbations of catalogue nets and
    match them, run ``boundary sup``/``admissible`` on seeded circles, and
    re-print the analyze reports with ``report``.
    """

    name = "cli-session"
    in_process = False
    batch_s = 10.0  # nominal batch time: 2-vCPU VM, fallback kernel

    def __init__(self, root: str, seed: int, size: str, tracer=None) -> None:
        self.root, self.seed, self.tracer = root, seed, tracer
        self.levels = SIZES[size]["cli"]
        self.n_nets = SIZES[size]["nets"]
        self.work = os.path.join(root, ".perfbench_work", f"cli-{os.getpid()}")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.session: list[tuple] = []

    # -- running one command -------------------------------------------------

    def _argv(self, args: list[str], tag: str) -> list[str]:
        # start-up is always timed on the plain command: the tracing shim
        # imports the whole package before the command runs
        if self.tracer is None or args == ["--help"]:
            return [sys.executable, "-m", "varifold_lab.cli", *args]
        shim = os.path.join(self.root, "perfbench", "cli_traced.py")
        return [sys.executable, shim, os.path.join(self.work, f"spans-{tag}.json"), *args]

    def command(self, args: list[str], tag: str, kind: str) -> subprocess.CompletedProcess:
        """Run one CLI command in the work directory, traced when tracing is on."""
        start = time.perf_counter_ns()
        proc = subprocess.run(self._argv(args, tag), cwd=self.work, env=self.env,
                              capture_output=True, text=True, timeout=150)
        end = time.perf_counter_ns()
        if self.tracer is not None:
            index = self.tracer.span(kind, start, end, self.tracer.op)
            self._merge_spans(os.path.join(self.work, f"spans-{tag}.json"), index)
        return proc

    def _merge_spans(self, path: str, parent: int) -> None:
        if not os.path.exists(path):
            return
        with open(path) as fh:
            child = json.load(fh)
        os.remove(path)
        base = len(self.tracer.spans)
        for name, start, end, up, _, extra in child:
            self.tracer.spans.append([name, start, end, parent if up < 0 else base + up,
                                      self.tracer.op, extra])

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        """Write the seeded net and circle inputs, then warm the interpreter.

        The warm-up ``--help`` writes the bytecode cache in a fresh checkout,
        so the timed batches do not pay for compiling the package.
        """
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        rng = np.random.default_rng(self.seed)
        entries = {e.name: e for e in vl.catalogue()}
        nets = []
        for k, pick in enumerate(rng.choice(len(NET_LENGTHS), self.n_nets, replace=False)):
            name, length = NET_LENGTHS[int(pick)]
            net = entries[name].net
            x = net.vertices + 0.05 * rng.standard_normal(net.vertices.shape)
            x /= np.linalg.norm(x, axis=1)[:, None]
            vl.save_net(vl.make_net(x, net.arcs, net.major), os.path.join(self.work, f"net-{k}.json"))
            nets.append((k, name, length))
        circles = []
        # datum a (m=1) is admissible; datum b (m=2) exceeds 6*pi by >= pi/2
        for tag, m, p_range, code in (("a", 1, (0.5, 3.5), 0), ("b", 2, (2.5, 3.5), 1)):
            circle = vl.CircleSpec(center=2.0 * rng.standard_normal(3),
                                   radius=float(np.exp(rng.uniform(-1.0, 1.0))),
                                   normal=rng.standard_normal(3), m=m,
                                   conormal_sign=int(rng.choice([-1, 1])))
            vl.save_datum(vl.make_datum([circle]), os.path.join(self.work, f"datum-{tag}.json"))
            circles.append((tag, m, float(rng.uniform(*p_range)) * math.pi, code))
        self.session = self._session(nets, circles)
        self.command(["--help"], "help", "cli.startup")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # -- the session ------------------------------------------------------------

    def batch(self, index: int) -> list[Op]:
        return [Op(kind, " ".join(args), self._caller(args, f"{index}-{k}", kind), check)
                for k, (kind, args, check) in enumerate(self.session)]

    def _caller(self, args: list[str], tag: str, kind: str):
        return lambda: self.command(args, tag, kind)

    def _session(self, nets, circles) -> list[tuple]:
        files = {"sphere": "sphere.json", "double-bubble": "db.json", "triple-bubble": "tb4.json"}
        steps = []
        for name, level in self.levels.items():
            args = ["generate", name, "--level", str(level), "-o", files[name]]
            if name == "double-bubble":  # the README's quick-start command
                args[2:2] = ["--theta2", repr(THETA2)]
            steps.append(("cli.generate", args, self._expect_file(0, files[name])))
        for name in self.levels:
            surface = SURFACES[name]
            report = files[name].replace(".json", "-report.json")
            args = ["analyze", files[name], "--energy", "--liyau"]
            args += [f"--density={_fmt(p)}" for _, p, _, _ in surface["points"]]
            args += [f"--link={_fmt(p)}:{r!r}" for _, p, _, r in surface["points"]]
            steps.append(("cli.analyze", args + ["-o", report], self._expect_analysis(surface, report)))
        quick = ["analyze", "db.json", "--energy", "--topology", "--liyau", "--density=1,0,0",
                 "--link=1,0,0:0.35", "-o", "report.json"]
        steps.append(("cli.analyze", quick, self._expect_quickstart("report.json")))
        for k, _, length in nets:
            steps.append(("cli.net_relax", ["net", "relax", f"net-{k}.json", "-o", f"relaxed-{k}.json"],
                          self._expect_relaxed(f"relaxed-{k}.json", length)))
        for k, name, _ in nets:
            steps.append(("cli.net_match", ["net", "match", f"relaxed-{k}.json", "-o", f"match-{k}.json"],
                          self._expect_match(f"match-{k}.json", name)))
        for tag, m, p, code in circles:
            steps.append(("cli.boundary_sup", ["boundary", "sup", f"datum-{tag}.json", "-o", f"sup-{tag}.json"],
                          self._expect_sup(f"sup-{tag}.json", m)))
            steps.append(("cli.boundary_admissible",
                          ["boundary", "admissible", f"datum-{tag}.json", "--p", repr(p), "-o", f"adm-{tag}.json"],
                          self._expect_admissible(f"adm-{tag}.json", m, p, code)))
        for name in self.levels:
            steps.append(("cli.report", ["report", files[name].replace(".json", "-report.json")],
                          self._expect_report()))
        return steps

    # -- checks ---------------------------------------------------------------

    def _read(self, fname: str, seeded: bool = False) -> tuple[dict, dict[str, str]]:
        """Parse an output file; its digest is keyed by the seed when its input is seeded."""
        with open(os.path.join(self.work, fname), "rb") as fh:
            raw = fh.read()
        key = f"{self.name}/seed{self.seed}/{fname}" if seeded else f"{self.name}/{fname}"
        return json.loads(raw), {key: digest(raw)}

    def _run_check(self, proc, want_code: int, body) -> Outcome:
        if proc.returncode != want_code:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:] or [""]
            return Outcome(f"exit {proc.returncode}, want {want_code}: {tail[0]}")
        try:
            return body()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return Outcome(f"unreadable output: {exc!r}", wrong=True)

    def _expect_file(self, code: int, fname: str):
        def check(proc) -> Outcome:
            def body():
                doc, digests = self._read(fname)
                return _verdict([] if doc.get("faces") else [f"{fname} has no faces"], [], digests)
            return self._run_check(proc, code, body)
        return check

    def _expect_analysis(self, surface: dict, fname: str):
        def check(proc) -> Outcome:
            def body():
                doc, digests = self._read(fname)
                blocks = doc["analyses"]
                errors: list[str] = []
                flagged = [name for name, ok in collect_flags(doc) if not ok]
                _misses(errors, "willmore", blocks["energy"]["willmore_energy"], surface["willmore"],
                        TOL["energy_rel"] * surface["willmore"])
                for row, (_, _, dens, _) in zip(blocks["density"], surface["points"]):
                    _misses(errors, "theta", row["theta"], dens, TOL["density_abs"])
                for row, (_, _, dens, _) in zip(blocks["link"], surface["points"]):
                    errors += _check_link(row["total_length"], row["junction_count"],
                                          row["components"], row["match"], dens)
                top = max(d for _, _, d, _ in surface["points"])
                _misses(errors, "li-yau theta_max", blocks["liyau"]["theta_max"], top, TOL["density_abs"])
                if len(blocks["density"]) != len(surface["points"]):
                    errors.append("density rows missing")
                return _verdict(errors, [f"{name}: passed false" for name in flagged], digests)
            return self._run_check(proc, 0, body)
        return check

    def _expect_quickstart(self, fname: str):
        surface = SURFACES["double-bubble"]
        junction = dict(surface, points=surface["points"][:1])
        analysis = self._expect_analysis(junction, fname)

        def check(proc) -> Outcome:
            out = analysis(proc)  # a failed topology check is among its flags
            if out.failure is None and "topology" not in self._read(fname)[0]["analyses"]:
                return Outcome("topology block missing", wrong=True, digests=out.digests)
            return out
        return check

    def _expect_relaxed(self, fname: str, length: float):
        def check(proc) -> Outcome:
            def body():
                doc, digests = self._read(fname, seeded=True)
                errors: list[str] = []
                _misses(errors, "relaxed length", doc["total_length"], length, 1e-8)
                # relax stops when the force on its subdivided working net is
                # below 1e-10; the returned net's residual, recomputed on the
                # whole arcs, differs by round-off, so the check uses the
                # 1e-8 that tests/test_nets.py asks of relaxed nets
                if not doc["balance_residual"] <= 1e-8:
                    errors.append(f"balance residual {doc['balance_residual']:.3e}")
                return _verdict(errors, [] if doc["converged"] else ["not converged"], digests)
            return self._run_check(proc, 0, body)
        return check

    def _expect_match(self, fname: str, name: str):
        def check(proc) -> Outcome:
            def body():
                doc, digests = self._read(fname, seeded=True)
                errors = [] if doc["match"] == name else [f"matched {doc['match']!r}, want {name!r}"]
                return _verdict(errors, [], digests)
            return self._run_check(proc, 0, body)
        return check

    def _expect_sup(self, fname: str, m: int):
        # one circle with constant conormal: the sup is m*pi, whatever the
        # center, radius, normal and conormal sign
        def check(proc) -> Outcome:
            def body():
                doc, digests = self._read(fname, seeded=True)
                errors: list[str] = []
                _misses(errors, "sup", doc["value"], m * math.pi, 1e-4 * m)
                return _verdict(errors, [], digests)
            return self._run_check(proc, 0, body)
        return check

    def _expect_admissible(self, fname: str, m: int, p: float, code: int):
        def check(proc) -> Outcome:
            def body():
                doc, digests = self._read(fname, seeded=True)
                errors: list[str] = []
                _misses(errors, "P + 2 sup", doc["total"], p + 2.0 * m * math.pi, 1e-4 * m)
                if doc["admissible"] != (code == 0):
                    errors.append(f"admissible={doc['admissible']}")
                return _verdict(errors, [], digests)
            return self._run_check(proc, code, body)
        return check

    def _expect_report(self):
        def check(proc) -> Outcome:
            def body():
                passes = any(line.startswith("[PASS]") for line in proc.stdout.splitlines())
                return _verdict([] if passes else ["report printed no PASS lines"], [], {})
            return self._run_check(proc, 0, body)
        return check


def _fmt(point) -> str:
    return ",".join(repr(float(c)) for c in point)


# ---------------------------------------------------------------------------
# local-queries


class LocalQueries:
    """Density ladders and spherical links at closed-form points, in process.

    Every batch holds each (mesh, point) once as a density ladder and once as
    a link + catalogue match; the seed orders them. Within a mesh the kinds
    alternate, and the meshes are interleaved, so any per-mesh cache has to
    hold all of them at once.
    """

    name = "local-queries"
    in_process = True
    batch_s = 5.0

    def __init__(self, root: str, seed: int, size: str, tracer=None) -> None:
        self.rng = np.random.default_rng(seed)
        self.specs = SIZES[size]["local"]
        self.meshes: list | None = None

    def setup(self) -> None:
        self.meshes = None
        self.meshes = [(f"{name}-L{level}", SURFACES[name], generate(name, level).varifold)
                       for name, level in self.specs]

    def close(self) -> None:
        self.meshes = None

    def batch(self, index: int) -> list[Op]:
        queues = []
        for label, surface, v in self.meshes:
            points = surface["points"]
            dens = self.rng.permutation(len(points))
            links = self.rng.permutation(len(points))
            queue = []
            for i, j in zip(dens, links):
                queue.append(self._density(label, v, points[int(i)]))
                queue.append(self._link(label, v, points[int(j)]))
            queues.append(queue)
        ops: list[Op] = []
        for step in range(max(len(q) for q in queues)):
            ops += [q[step] for q in queues if step < len(q)]
        return ops

    def _density(self, label: str, v, point) -> Op:
        pname, coords, want, _ = point

        def check(rep) -> Outcome:
            key = f"{self.name}/{label}/{pname}/density"
            return _verdict(_check_density(rep, want), [], {key: digest(canonical_dumps(rep.to_dict()))})
        return Op("density", f"{label}/{pname}", lambda: vl.density(v, np.array(coords)), check)

    def _link(self, label: str, v, point) -> Op:
        pname, coords, want, r = point

        def call():
            link = vl.spherical_link(v, np.array(coords), r)
            return link, vl.match_link(link)

        def check(result) -> Outcome:
            link, match = result
            errors = _check_link(link.total_length, link.junction_count, len(link.polylines),
                                 match["match"], want)
            key = f"{self.name}/{label}/{pname}/link"
            doc = {"link": link.to_dict(), "match": match}
            return _verdict(errors, [], {key: digest(canonical_dumps(doc))})
        return Op("link", f"{label}/{pname}", call, check)


# ---------------------------------------------------------------------------
# global-monotonicity


class GlobalMonotonicity:
    """The monotonicity/Li-Yau acceptance protocol, driven by the seed.

    One rng stream runs across the meshes, one mesh at a time: random vertex,
    s up to 0.8 times the bounding-box diagonal, r < s, then ``li_yau_check``
    at the closed-form density points. Balls are large, so most faces lie
    fully inside them. Every batch repeats the same draws.
    """

    name = "global-monotonicity"
    in_process = True
    batch_s = 25.0

    def __init__(self, root: str, seed: int, size: str, tracer=None) -> None:
        self.seed = seed
        self.specs = SIZES[size]["global"]
        self.checks = SIZES[size]["checks"]
        self.ops: list[Op] = []

    def setup(self) -> None:
        self.ops = []
        rng = np.random.default_rng(self.seed)
        ops = []
        for name, level in self.specs:
            label, v = f"{name}-L{level}", generate(name, level).varifold
            diam = float(np.linalg.norm(v.vertices.max(axis=0) - v.vertices.min(axis=0)))
            for j in range(self.checks):
                vi = int(rng.integers(0, v.num_vertices))
                s = float(rng.uniform(0.1, 1.0)) * 0.8 * diam
                r = float(rng.uniform(0.05, 0.95)) * s
                ops.append(self._monotonicity(label, name, v, j, vi, r, s))
            ops.append(self._li_yau(label, name, v))
        self.ops = ops

    def close(self) -> None:
        self.ops = []

    def batch(self, index: int) -> list[Op]:
        return self.ops

    def _monotonicity(self, label: str, name: str, v, j: int, vi: int, r: float, s: float) -> Op:
        def check(rep) -> Outcome:
            errors: list[str] = []
            if name == "sphere":
                # a unit sphere meets a ball of radius t centred on it in area
                # pi t^2 (for t <= 2), and in all of its 4 pi beyond that
                def ratio(t):
                    return min(t * t, 4.0) / (t * t)
                _misses(errors, "mass ratio at r", rep.lhs, ratio(r), TOL["density_abs"])
                _misses(errors, "mass ratio at s", rep.rhs - rep.willmore_term, ratio(s),
                        TOL["density_abs"])
            flagged = [] if rep.passed else [
                f"{label} vertex {vi} r={r:.3f} s={s:.3f}: lhs {rep.lhs:.3f} > rhs {rep.rhs:.3f} "
                f"(slack {rep.slack:.3f})"]
            key = f"{self.name}/seed{self.seed}/{label}/monotonicity-v{vi}-r{r!r}-s{s!r}"
            return _verdict(errors, flagged, {key: digest(canonical_dumps(rep.to_dict()))})
        return Op("monotonicity", f"{label}/{j}/v{vi}", lambda: vl.monotonicity_check(v, v.vertices[vi], r, s),
                  check)

    def _li_yau(self, label: str, name: str, v) -> Op:
        surface = SURFACES[name]
        points = [np.array(p) for _, p, _, _ in surface["points"]]

        def check(rep) -> Outcome:
            errors: list[str] = []
            _misses(errors, "theta_max", rep.theta_max, max(d for _, _, d, _ in surface["points"]),
                    TOL["density_abs"])
            w = surface["willmore"] / (4.0 * math.pi)
            _misses(errors, "W/4pi", rep.willmore_over_4pi, w, TOL["energy_rel"] * w)
            key = f"{self.name}/{label}/li_yau"
            return _verdict(errors, [] if rep.passed else [f"{label} li-yau gap {rep.gap:.3f}"],
                            {key: digest(canonical_dumps(rep.to_dict()))})
        return Op("li_yau", label, lambda: vl.li_yau_check(v, points), check)


WORKLOADS = {w.name: w for w in (CliSession, LocalQueries, GlobalMonotonicity)}
