"""Command-line front end: generate example surfaces, run analyses, emit reports.

Exit codes: 0 success, 1 a requested pass/fail check failed, 2 usage or input
error; an analysis the mesh does not admit gives a "not_applicable" block
instead.  Reports are canonical JSON (see reports.py) and byte-identical across
runs for identical inputs. ``main`` caps the BLAS thread pools at one thread
before any command loads NumPy, unless the caller set them: no BLAS call in the
package is large enough to use a second thread.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

# the package's submodules load lazily: binding them here runs none of them
from . import blowup, curvature, generators, mesh, netmatch, nets
from . import boundary as bnd
from ._values import _dot, _is_number, _quote, _unit
from .reports import (
    TOLERANCE_PROFILES,
    TOOL_NAME,
    collect_flags,
    load_json,
    new_report,
    write_report,
)


def finite(text: str) -> float:
    """The one parser of the CLI's floats: a ValueError unless ``text`` is finite."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text!r} is not a finite number")
    return x


def _parse_point(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"malformed point spec {text!r}: need x,y,z")
    try:
        return tuple(finite(p) for p in parts)
    except ValueError:
        raise ValueError(f"malformed point spec {text!r}: need three finite numbers") from None


def _parse_link_spec(text: str):
    head, sep, tail = text.rpartition(":")
    if not sep:
        raise ValueError(f"malformed link spec {text!r}: need x,y,z:r")
    point = _parse_point(head)
    try:
        r = finite(tail)
    except ValueError:
        raise ValueError(f"malformed link spec {text!r}: bad radius {tail!r}") from None
    if r <= 0:
        raise ValueError(f"malformed link spec {text!r}: radius must be positive")
    return {"point": list(point), "radius": r}


def _parse_disk_spec(text: str):
    head, sep, tail = text.rpartition(":")
    parts = head.split(",")
    if not sep or len(parts) != 2:
        raise ValueError(f"malformed disk spec {text!r}: need cx,cy:r")
    try:
        return [finite(parts[0]), finite(parts[1])], finite(tail)
    except ValueError:
        raise ValueError(f"malformed disk spec {text!r}: need finite numbers") from None


# ---------------------------------------------------------------------------
# generate


#: Each generator's keyword arguments and the ``generate`` options that give
#: them; singular-pair also takes its disks from ``--disk``.
GENERATOR_OPTIONS = {
    "sphere": {"R": "radius", "level": "level"},
    "cap": {"R": "radius", "theta": "theta", "level": "level"},
    "double-bubble": {"theta2": "theta2", "rho": "rho", "level": "level"},
    "double-bubble-flat": {"rho": "rho", "level": "level"},
    "triple-bubble": {"level": "level"},
    "branched-patch": {"delta": "delta", "rho0": "rho0", "level": "level"},
    "singular-pair": {"delta": "delta", "level": "level"},
    "flat-disk": {"rho": "rho", "level": "level"},
    "torus": {"R": "radius", "r": "tube_radius", "level": "level"},
}


def cmd_generate(args) -> int:
    kwargs = {key: getattr(args, opt) for key, opt in GENERATOR_OPTIONS[args.name].items()}
    if args.name == "singular-pair":
        disks = [_parse_disk_spec(d) for d in (args.disk or [])]
        kwargs.update(disk_centers=[d[0] for d in disks], disk_radii=[d[1] for d in disks])
    out = generators.GENERATORS[args.name](**kwargs)
    mesh.save_varifold(out.varifold, args.out, analytic=out.analytic)
    v = out.varifold
    print(f"wrote {args.out}: {v.num_vertices} vertices, {v.num_faces} faces")
    return 0


# ---------------------------------------------------------------------------
# analyze


def _expected_density(analytic: dict | None, point) -> dict | None:
    """Reference density entry at ``point`` from the mesh's analytic block.

    Returns a dict with "density" and optionally "r_max" (a ladder cap for
    points where coarser radii would see more sheets than the limit does).
    Distances are formed with ``_values._dot`` and compared with a relative
    tolerance of 1e-9, squared for a point; a junction circle whose normal's
    squared norm underflows to 0 matches no point.
    """
    if not analytic:
        return None
    for dp in analytic.get("density_points", []):
        d = [a - b for a, b in zip(point, dp["point"])]
        if _dot(d, d) < 1e-18 * max(1.0, _dot(dp["point"], dp["point"])):
            return dp
    for jc in analytic.get("junction_circles", []):
        if _dot(jc["normal"], jc["normal"]) == 0:
            continue
        n, r = _unit(jc["normal"]), float(jc["radius"])
        w = [a - c for a, c in zip(point, jc["center"])]
        h = _dot(w, n)
        d = [a - h * b for a, b in zip(w, n)]
        if math.hypot(math.sqrt(_dot(d, d)) - r, h) < 1e-9 * max(1.0, r):
            return {"density": float(jc.get("density", 1.5))}
    return None


def _verdict(err: float, tol: float) -> dict:
    """The one pass/fail stanza: the tolerance, and whether ``err`` is within it."""
    return {"tolerance": tol, "passed": bool(err <= tol)}


def _energy(v, analytic, tol, _) -> dict:
    w = curvature.willmore_energy(v)
    block: dict = {"willmore_energy": w, "area": mesh.total_mass(v)}
    ref = (analytic or {}).get("willmore_energy")
    if ref is not None:
        err = abs(w - ref) / abs(ref) if ref else abs(w)
        block.update(analytic_willmore=float(ref), rel_error=err, **_verdict(err, tol["energy_rel"]))
    return block


def _density_spec(text: str) -> dict:
    return {"point": list(_parse_point(text))}


def _density(v, analytic, tol, spec) -> dict:
    ref = _expected_density(analytic, spec["point"])
    rep = blowup.density(v, spec["point"], r_max=(ref or {}).get("r_max"))
    row = {
        "theta": rep.theta,
        "error_bar": rep.error_bar,
        "model": rep.model,
        "classification": rep.classification,
        "ladder": {"radii": rep.radii.tolist(), "ratios": rep.ratios.tolist()},
    }
    if ref is not None:
        err = abs(rep.theta - float(ref["density"]))
        row.update(expected=float(ref["density"]), abs_error=err, **_verdict(err, tol["density_abs"]))
    return row


def _link(v, analytic, tol, spec) -> dict:
    link = blowup.spherical_link(v, spec["point"], spec["radius"])
    if link.total_length <= 0:
        raise ValueError("the sphere misses the support, so the link is empty")
    m = netmatch.match_link(link, tol["link_match_abs"])
    return {
        "total_length": link.total_length,
        "junction_count": link.junction_count,
        "density_estimate": link.density_estimate,
        "components": len(link.polylines),
        "match": m["match"],
        "matched_length": m["matched_length"],
        "residual": m["residual"],
        "tolerance": tol["link_match_abs"],
        "passed": m["matched_length"] is not None,
    }


def _topology(v, analytic, tol, _) -> dict:
    block = curvature.euler_characteristic(v).to_dict()
    ref = (analytic or {}).get("chi")
    if ref is not None:
        block.update(analytic_chi=ref, **_verdict(abs(block["chi"] - ref), 0))
    return block


def _liyau(v, analytic, tol, _) -> dict:
    dps = (analytic or {}).get("density_points", [])
    pts, caps = [dp["point"] for dp in dps], [dp.get("r_max") for dp in dps]  # the --density caps
    if not pts:  # the distinct vertices of np.linspace(0, V - 1, 8).astype(int), ascending
        last = v.num_vertices - 1
        pts, caps = [v.vertices[i] for i in sorted({int(k * (last / 7)) for k in range(7)} | {last})], None
    rep = blowup.li_yau_check(v, pts, eps=tol["liyau_gap"], r_max=caps)
    return {
        "n_samples": len(pts),
        "theta_max": rep.theta_max,
        "willmore_over_4pi": rep.willmore_over_4pi,
        "gap": rep.gap,
        "tolerance": tol["liyau_gap"],
        "passed": rep.passed,
    }


def _helfrich(v, analytic, tol, c0) -> dict:
    return {"c0": c0, "value": curvature.helfrich_energy(v, c0)}


def _boundary(v, analytic, tol, _) -> dict:
    b = mesh.boundary_measure(v)
    return {"edge_count": int(len(b.edges)), "total_length": b.total_length, "closed": bool(len(b.edges) == 0)}


#: Each ``analyze`` option (its ``args`` name): the builder of its block,
#: called as ``build(v, analytic, tol, value)`` with the option's value, and
#: for a repeatable option the parser of one spec; such an option gets one
#: row per spec, built from the parsed spec and starting with it.
ANALYSES = {
    "energy": (_energy, None),
    "density": (_density, _density_spec),
    "link": (_link, _parse_link_spec),
    "topology": (_topology, None),
    "liyau": (_liyau, None),
    "helfrich": (_helfrich, None),
    "boundary": (_boundary, None),
}


def cmd_analyze(args) -> int:
    """Run each requested analysis into one report, under one rule: a block,
    or one row, whose library call raises ValueError (MeshError and NetError
    included) becomes ``{"status": "not_applicable", "reason": ...}``, a row
    after its spec, and the other analyses still run. Every spec is parsed
    before the mesh is read, so a malformed one exits 2."""
    requested = {}
    for name, (_, parse) in ANALYSES.items():
        value = getattr(args, name)
        if value is not None and value is not False:  # --helfrich 0 is requested
            requested[name] = [parse(text) for text in value] if parse else value
    if not requested:
        raise ValueError("no analyses requested (try --energy, --topology, ...)")

    v, analytic = mesh.load_mesh_file(args.mesh)
    tol = TOLERANCE_PROFILES[args.tolerance_profile]
    doc = new_report(args.mesh, args.tolerance_profile)

    def entry(build, value, spec: dict) -> dict:
        try:
            return {**spec, **build(v, analytic, tol, value)}
        except ValueError as exc:  # the mesh does not admit this analysis
            return {**spec, "status": "not_applicable", "reason": str(exc)}

    for name, value in requested.items():
        build, parse = ANALYSES[name]
        doc["analyses"][name] = [entry(build, s, s) for s in value] if parse else entry(build, value, {})

    write_report(doc, args.out)
    flags = collect_flags(doc)
    failed = [name for name, ok in flags if not ok]
    if args.out is not None:
        for name, ok in flags:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# net


def cmd_net_catalogue(args) -> int:
    entries = nets.catalogue()
    if args.json or args.out:
        write_report({"entries": [e.to_dict() for e in entries]}, args.out)
        return 0
    print(f"{'#':>2}  {'name':<42} {'arcs':>4}  {'length':>12}")
    for i, e in enumerate(entries, start=1):
        length = f"{e.length:.8f}" if e.length is not None else "invalid"
        marker = "  < 4*pi" if e.below_4pi else ""
        print(f"{i:>2}  {e.name:<42} {e.n_arcs:>4}  {length:>12}{marker}")
        if e.invalid_as_printed:
            print(f"    note: {e.note}")
    return 0


def cmd_net_relax(args) -> int:
    net = nets.load_net(args.net)
    res = nets.relax(net, max_iter=args.max_iter, tol=args.tol)
    final_len, final_res = res.lengths[-1], res.residuals[-1]  # the returned net's, bit for bit
    if args.out:
        write_report({
            "vertices": res.net.points,
            "arcs": nets._arc_rows(res.net),
            "total_length": final_len,
            "balance_residual": final_res,
            "iterations": res.iterations,
            "converged": res.converged,
            "length_history": res.lengths,
            "residual_history": res.residuals,
        }, args.out)
    print(f"final length {final_len:.12f}  residual {final_res:.3e}  "
          f"iterations {res.iterations}  converged {res.converged}")
    return 0 if res.converged else 1


def cmd_net_match(args) -> int:
    try:
        length = float(args.link)
    except ValueError:
        doc = load_json(args.link, "link file")
        length = doc.get("total_length") if isinstance(doc, dict) else None
        if not _is_number(length):
            if not isinstance(doc, dict):
                found = f"not a {type(doc).__name__}"
            elif "total_length" in doc:
                found = f"not {_quote(length)}"
            else:
                found = "and this object has none"
            raise netmatch.NetError(
                f"link file {args.link!r} needs an object with 'total_length' as a number, {found}"
            ) from None
    m = netmatch.match_link(length)
    print(f"{m['match']}, density {m['density']:g}")
    if args.out:
        write_report(m, args.out)
    return 0


# ---------------------------------------------------------------------------
# boundary


def cmd_boundary_circle_integral(args) -> int:
    datum = bnd.load_datum(args.datum)
    x0 = _parse_point(args.point)
    per = [bnd.circle_conormal_integral(c, x0) for c in datum.circles]
    total = math.fsum(per)
    doc: dict = {"point": list(x0), "per_circle": per, "total": total}
    if args.quad is not None:
        quad = [
            bnd.circle_conormal_integral_quad(c, x0, n_samples=args.quad)
            for c in datum.circles
        ]
        doc["quad_total"] = math.fsum(quad)
        doc["quad_samples"] = args.quad
        doc["closed_vs_quad"] = abs(doc["total"] - doc["quad_total"])
    print(f"conormal integral {total:.12f}")
    if args.out:
        write_report(doc, args.out)
    return 0


def cmd_boundary_sup(args) -> int:
    datum = bnd.load_datum(args.datum)
    sup = bnd.sup_conormal_integral(datum)
    x = sup.argmax
    where = "an interior maximum" if sup.kind == "interior" else f"the limit along circle {sup.circle}"
    print(f"sup {sup.value:.12f} at ({x[0]:.9f}, {x[1]:.9f}, {x[2]:.9f}), {where}")
    if args.out:
        write_report(sup.to_dict(), args.out)
    return 0


def cmd_boundary_admissible(args) -> int:
    datum = bnd.load_datum(args.datum)
    threshold = {"6pi": 6.0 * math.pi, "8pi": 8.0 * math.pi}[args.threshold]
    rep = bnd.admissibility_check(args.p, datum, threshold)
    print(f"P + 2 sup = {rep.total:.9f} vs threshold {rep.threshold:.9f} "
          f"(slack {rep.slack:+.9f})")
    print(f"[{'PASS' if rep.passes_threshold else 'FAIL'}] threshold bound")
    print(f"[{'PASS' if rep.passes_p_bound else 'FAIL'}] P < 4*pi")
    if args.out:
        write_report(rep.to_dict(), args.out)
    return 0 if rep.admissible else 1


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    doc = load_json(args.report, "report file")
    if not (isinstance(doc, dict) and isinstance(doc.get("input", {}), dict)):
        raise ValueError(f"report file {args.report!r}: the report and its 'input' must be objects")
    tool = doc.get("tool", "?")
    version = doc.get("version", "?")
    source = doc.get("input", {}).get("path", "-")
    print(f"{tool} {version}  input: {source}")
    flags = collect_flags(doc)
    for name, ok in flags:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    if not flags:
        print("no pass/fail checks recorded")
    return 1 if any(not ok for _, ok in flags) else 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Mesh generators and varifold-style analyses for surfaces "
                    "with junctions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write an example mesh with its analytic block")
    g.add_argument("name", choices=list(GENERATOR_OPTIONS))
    g.add_argument("--radius", type=finite, default=1.0,
                   help="sphere/cap radius, or torus center-circle radius")
    g.add_argument("--theta", type=finite, default=math.pi / 2, help="cap opening angle")
    g.add_argument("--theta2", type=finite, default=0.7,
                   help="double bubble: polar opening of the middle sheet")
    g.add_argument("--rho", type=finite, default=1.0, help="junction/disk radius")
    g.add_argument("--delta", type=finite, default=0.1, help="graph amplitude")
    g.add_argument("--rho0", type=finite, default=1.0, help="branched patch radius")
    g.add_argument("--tube-radius", type=finite, default=0.3, help="torus tube radius")
    g.add_argument("--disk", action="append", metavar="CX,CY:R",
                   help="singular-pair contact disk (repeatable)")
    g.add_argument("--level", type=int, default=4, help="refinement level")
    g.add_argument("-o", "--out", required=True, help="output mesh JSON path")
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("analyze", help="run analyses on a mesh file and write a report")
    a.add_argument("mesh", help="mesh JSON path")
    a.add_argument("--energy", action="store_true", help="bending energy and area")
    a.add_argument("--density", action="append", metavar="X,Y,Z",
                   help="extrapolated density at a point (repeatable)")
    a.add_argument("--link", action="append", metavar="X,Y,Z:R",
                   help="spherical link at a point and radius (repeatable)")
    a.add_argument("--topology", action="store_true",
                   help="Euler characteristic, orientability, genus")
    a.add_argument("--liyau", action="store_true",
                   help="density bound against energy/(4*pi)")
    a.add_argument("--helfrich", type=finite, metavar="C0",
                   help="spontaneous-curvature energy at offset C0")
    a.add_argument("--boundary", action="store_true", help="boundary length summary")
    a.add_argument("--tolerance-profile", choices=sorted(TOLERANCE_PROFILES),
                   default="default")
    a.add_argument("-o", "--out", help="report JSON path (default: stdout)")
    a.set_defaults(func=cmd_analyze)

    n = sub.add_parser("net", help="geodesic nets: catalogue, relax, match")
    nsub = n.add_subparsers(dest="net_command", required=True)
    nc = nsub.add_parser("catalogue", help="print the ten-entry stationary net table")
    nc.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    nc.add_argument("-o", "--out", help="write the JSON entries to this path")
    nc.set_defaults(func=cmd_net_catalogue)
    nr = nsub.add_parser("relax", help="drive a net to stationarity")
    nr.add_argument("net", help="net JSON path")
    nr.add_argument("--max-iter", type=int, default=1000)
    nr.add_argument("--tol", type=finite, default=1e-10)
    nr.add_argument("-o", "--out", help="relaxed net + residual history JSON path")
    nr.set_defaults(func=cmd_net_relax)
    nm = nsub.add_parser("match", help="classify a link length against the catalogue")
    nm.add_argument("link", help="a length, or a JSON file with a number 'total_length'")
    nm.add_argument("-o", "--out", help="match JSON output path")
    nm.set_defaults(func=cmd_net_match)

    b = sub.add_parser("boundary", help="circle conormal integrals and admissibility")
    bsub = b.add_subparsers(dest="boundary_command", required=True)
    bc = bsub.add_parser("circle-integral", help="closed-form integral at a point")
    bc.add_argument("datum", help="boundary datum JSON path")
    bc.add_argument("--point", required=True, metavar="X,Y,Z")
    bc.add_argument("--quad", type=int, metavar="N",
                    help="also run N-sample quadrature and report the difference")
    bc.add_argument("-o", "--out", help="JSON output path")
    bc.set_defaults(func=cmd_boundary_circle_integral)
    bs = bsub.add_parser("sup", help="sup of the integral over basepoints")
    bs.add_argument("datum", help="boundary datum JSON path")
    bs.add_argument("-o", "--out", help="JSON output path")
    bs.set_defaults(func=cmd_boundary_sup)
    ba = bsub.add_parser("admissible", help="check P + 2*sup against a threshold")
    ba.add_argument("datum", help="boundary datum JSON path")
    ba.add_argument("--p", "--p-estimate", dest="p", type=finite, required=True,
                    metavar="P", help="energy estimate P >= 0")
    ba.add_argument("--threshold", choices=["6pi", "8pi"], default="6pi")
    ba.add_argument("-o", "--out", help="JSON output path")
    ba.set_defaults(func=cmd_boundary_admissible)

    r = sub.add_parser("report", help="summarize a report file's pass/fail flags")
    r.add_argument("report", help="report JSON path")
    r.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the thread pools read these when NumPy loads, which is why the package's modules run
    # only when a command uses them. Once NumPy is loaded (a caller running main in its own
    # process), a cap cannot act and would only reach that caller's subprocesses.
    if "numpy" not in sys.modules:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, "1")
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:  # MeshError/NetError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
