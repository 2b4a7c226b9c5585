"""Geodesic nets on the unit sphere: lengths, balance, catalogue, relaxation.

A net is a set of unit vertices joined by great-circle arcs with integer
multiplicities. Stationarity means the multiplicity-weighted unit tangents of
the incident arcs cancel at every vertex; the classification of such nets
comprises exactly ten families, reproduced here with their closed-form total
lengths and, for the first seven, explicit balanced coordinates.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .mesh import _frozen, _numeric
from .reports import NOT_RECORDED, Record, save_json


class NetError(ValueError):
    """Raised for structurally invalid nets or ambiguous geodesics."""


@dataclass(frozen=True)
class GeodesicNet:
    """Unit-sphere net: vertices (N, 3) unit vectors; arcs (M, 3) int rows
    [i, j, multiplicity]; major (M,) bool flags selecting the long way round.
    An empty ``arcs`` array stands for no arcs; any other shape but (M, 3) is
    left for validation to reject, never reshaped."""

    vertices: np.ndarray
    arcs: np.ndarray
    major: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", _frozen(np.asarray(self.vertices, dtype=np.float64)))
        arcs = np.asarray(self.arcs, dtype=np.int64)
        if arcs.shape == (0,):
            arcs = arcs.reshape(0, 3)
        object.__setattr__(self, "arcs", _frozen(arcs))
        m = self.major if self.major is not None else np.zeros(len(self.arcs), dtype=bool)
        object.__setattr__(self, "major", _frozen(np.asarray(m, dtype=bool)))

    @property
    def num_vertices(self) -> int:
        return int(self.vertices.shape[0])

    @property
    def num_arcs(self) -> int:
        return int(self.arcs.shape[0])


def make_net(vertices, arcs, major=None) -> GeodesicNet:
    """A validated net: numbers as vertices, integers as arcs, one boolean or 0/1 per arc as
    ``major``; nothing coerced (NetError)."""
    net = GeodesicNet(_numeric(vertices, "iuf", "vertices", NetError),
                      _numeric(arcs, "iu", "arcs", NetError), None)
    _validate(net)
    if major is None:
        return net
    flags = np.asarray(major)
    if (flags.shape != (net.num_arcs,) or (flags.size and flags.dtype.kind not in "biu")
            or not np.isin(flags, (0, 1)).all()):
        raise NetError(f"major must be {net.num_arcs} booleans or 0/1 integers, one per arc, not {major!r}")
    return replace(net, major=flags)


def _validate(net: GeodesicNet) -> None:
    if net.vertices.ndim != 2 or net.vertices.shape[1] != 3:
        raise NetError(f"vertices must be (N, 3), got {net.vertices.shape}")
    if net.arcs.ndim != 2 or net.arcs.shape[1] != 3:
        raise NetError(f"arcs must be (M, 3) rows [i, j, multiplicity], got {net.arcs.shape}")
    bad = np.nonzero(~np.isfinite(net.vertices).all(axis=1))[0]
    if len(bad):
        raise NetError(f"vertex {int(bad[0])} is not finite: {net.vertices[bad[0]].tolist()}")
    off = np.abs(np.linalg.norm(net.vertices, axis=1) - 1.0)
    if len(off) and off.max() > 1e-12:
        raise NetError(f"vertex {int(off.argmax())} is off the unit sphere by {off.max():.2e}")
    if net.arcs[:, :2].min(initial=0) < 0 or net.arcs[:, :2].max(initial=-1) >= net.num_vertices:
        raise NetError("arc endpoint index out of range")
    if (net.arcs[:, 0] == net.arcs[:, 1]).any():
        bad = int(np.nonzero(net.arcs[:, 0] == net.arcs[:, 1])[0][0])
        raise NetError(f"arc {bad} has identical endpoints")
    if (net.arcs[:, 2] < 1).any():
        raise NetError("arc multiplicities must be >= 1")


def arc_length(p, q, major: bool = False) -> float:
    """Great-circle distance arccos<p, q>, or 2*pi minus it for the major arc.

    Antipodal endpoints leave the minor geodesic undetermined and raise
    NetError("ambiguous geodesic"); the major-arc length is still pi and is
    returned without complaint.
    """
    x = np.asarray([p, q], dtype=np.float64)
    if not major and np.linalg.norm(x[0] + x[1]) < 1e-9:
        raise NetError("ambiguous geodesic: endpoints are antipodal")
    return float(_arc_geometry(x, np.array([[0, 1, 1]]), np.array([major]))[0][0])


def _arc_geometry(x: np.ndarray, arcs: np.ndarray, major: np.ndarray):
    """Angle of each arc and its unit tangents at both ends, pointing into the arc.

    Returns (angle (M,), t_start (M,3), t_end (M,3)) for arcs [i, j, mult] on
    the unit vectors ``x``. Major arcs are 2*pi minus the minor angle long and
    leave each endpoint in the direction opposite the minor arc.
    """
    p = x[arcs[:, 0]]
    q = x[arcs[:, 1]]
    c = np.clip(np.einsum("ij,ij->i", p, q), -1.0, 1.0)
    ang = np.arccos(c)
    ang = np.where(major, 2.0 * math.pi - ang, ang)
    s = np.sqrt(np.maximum(1.0 - c * c, 1e-30))[:, None]
    sign = np.where(major, -1.0, 1.0)[:, None]
    return ang, (q - c[:, None] * p) / s * sign, (p - c[:, None] * q) / s * sign


def _forces(x: np.ndarray, arcs: np.ndarray, tp: np.ndarray, tq: np.ndarray) -> np.ndarray:
    """Multiplicity-weighted sum of the incident tangents at each vertex,
    projected to the tangent plane of the sphere; zero at a vertex without arcs."""
    w = arcs[:, 2].astype(np.float64)[:, None]
    f = np.zeros_like(x)
    np.add.at(f, arcs[:, 0], w * tp)
    np.add.at(f, arcs[:, 1], w * tq)
    f -= np.einsum("ij,ij->i", f, x)[:, None] * x
    return f


def total_length(net: GeodesicNet) -> float:
    """Sum of multiplicity-weighted arc lengths."""
    return math.fsum(net.arcs[:, 2] * _arc_geometry(net.vertices, net.arcs, net.major)[0])


def balance_residual(net: GeodesicNet) -> float:
    """Max over vertices of |sum of multiplicity-weighted incident tangents|.

    The sums are projected to the tangent plane of the sphere (they already
    are, up to round-off). Zero characterizes stationarity.
    """
    ang, tp, tq = _arc_geometry(net.vertices, net.arcs, net.major)
    flat = np.abs(np.sin(ang)) < 1e-12  # the angle is 0 or pi: no tangent plane
    if flat.any():
        bad = int(np.nonzero(flat)[0][0])
        raise NetError(f"arc {bad} joins (nearly) parallel or antipodal points")
    force = _forces(net.vertices, net.arcs, tp, tq)
    return float(np.linalg.norm(force, axis=1).max()) if net.num_vertices else 0.0


# ---------------------------------------------------------------------------
# relaxation


@dataclass(frozen=True)
class RelaxResult:
    net: GeodesicNet
    lengths: list[float] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


def relax(net: GeodesicNet, max_iter: int = 1000, tol: float = 1e-10) -> RelaxResult:
    """Drive the net to stationarity (zero junction force), combinatorics fixed.

    Balanced nets are saddle points of total length — every net shortens by
    sliding all its vertices toward a common point — so descending length
    cannot return a perturbed net to balance. This solves the first-order
    balance system instead: the residual stacks the multiplicity-weighted
    tangential force at every vertex, and damped Gauss-Newton steps,
    renormalized to the sphere and accepted only when the residual norm
    decreases, drive it to zero. Arcs longer than pi/2 are subdivided with
    temporary slave vertices so the minor-arc parametrization stays
    well-posed; a slave is 2-valent, so zero force there means its two
    tangents are collinear and its chain is a single geodesic. Slaves are
    dropped on return and the combinatorics is the input one. Stops when the
    largest per-vertex force norm drops below tol or after max_iter steps,
    and returns the net with its length and residual histories.
    Aborts with NetError if any (sub)arc collapses below 1e-6.
    """
    _validate(net)
    work_x, work_arcs, n_master = _subdivide(net)
    lengths: list[float] = []
    residuals: list[float] = []

    minor = np.zeros(len(work_arcs), dtype=bool)

    def length_of(x: np.ndarray) -> float:
        return math.fsum(work_arcs[:, 2] * _arc_geometry(x, work_arcs, minor)[0])

    def forces(x: np.ndarray) -> np.ndarray:
        ang, tp, tq = _arc_geometry(x, work_arcs, minor)
        if (ang < 1e-6).any():
            bad = int(np.nonzero(ang < 1e-6)[0][0])
            raise NetError(
                f"arc collapse during relaxation: sub-arc {bad} shrank below 1e-6"
            )
        return _forces(x, work_arcs, tp, tq)

    def residual_of(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = z / np.linalg.norm(z, axis=1)[:, None]
        return forces(x).ravel(), x

    def jacobian(x: np.ndarray) -> np.ndarray:
        n = x.size
        jac = np.empty((n, n))
        h = 1e-7
        flat = x.ravel()
        for k in range(n):
            step = np.zeros(n)
            step[k] = h
            rp, _ = residual_of((flat + step).reshape(-1, 3))
            rm, _ = residual_of((flat - step).reshape(-1, 3))
            jac[:, k] = (rp - rm) / (2.0 * h)
        return jac

    r, x = residual_of(work_x.copy())
    L = length_of(x)
    lam = 1e-3
    converged = False
    it = 0
    for it in range(max_iter):
        res = float(np.linalg.norm(r.reshape(-1, 3), axis=1).max())
        lengths.append(L)
        residuals.append(res)
        if res < tol:
            converged = True
            break
        jac = jacobian(x)
        lhs = jac.T @ jac
        rhs = jac.T @ r
        eye = np.eye(lhs.shape[0])
        accepted = False
        for _ in range(40):
            try:
                d = np.linalg.solve(lhs + lam * eye, -rhs)
            except np.linalg.LinAlgError:
                lam *= 4.0
                continue
            r_new, x_new = residual_of(x + d.reshape(-1, 3))
            if r_new @ r_new < r @ r:
                accepted = True
                break
            lam *= 4.0
        if not accepted:
            break
        lam = max(0.5 * lam, 1e-12)
        x, r = x_new, r_new
        L = length_of(x)
    else:
        it = max_iter

    out = replace(net, vertices=x[:n_master])
    return RelaxResult(net=out, lengths=lengths, residuals=residuals,
                       iterations=it, converged=converged)


def _subdivide(net: GeodesicNet) -> tuple[np.ndarray, np.ndarray, int]:
    """Split arcs longer than pi/2 with slave vertices along the great circle."""
    verts = [net.vertices[i].copy() for i in range(net.num_vertices)]
    rows: list[list[int]] = []
    for (i, j, m), major in zip(net.arcs.tolist(), net.major.tolist()):
        p, q = net.vertices[i], net.vertices[j]
        c = float(np.clip(p @ q, -1.0, 1.0))
        if np.linalg.norm(p + q) < 1e-9:
            raise NetError("cannot relax an arc with antipodal endpoints (ambiguous geodesic)")
        ang = math.acos(c)
        length = 2.0 * math.pi - ang if major else ang
        k = max(1, int(math.ceil(length / (0.5 * math.pi) - 1e-12)))
        if k == 1:
            rows.append([i, j, m])
            continue
        w = q - c * p
        w /= np.linalg.norm(w)
        step = (-(2.0 * math.pi - ang) if major else ang) / k
        last = i
        for t in range(1, k):
            phi = step * t
            verts.append(math.cos(phi) * p + math.sin(phi) * w)
            rows.append([last, len(verts) - 1, m])
            last = len(verts) - 1
        rows.append([last, j, m])
    return np.asarray(verts), np.asarray(rows, dtype=np.int64), net.num_vertices


# ---------------------------------------------------------------------------
# the ten-net catalogue


@dataclass(frozen=True)
class CatalogueEntry(Record):
    """One catalogue net; ``n_arcs`` is given only without a net, and the
    flags are derived from ``length`` and ``net``."""

    name: str
    closed_form: str
    length: float | None
    combinatorics: str
    net: GeodesicNet | None = field(default=None, metadata=NOT_RECORDED)
    n_arcs: int | None = None
    note: str = ""
    below_4pi: bool = field(init=False)
    constructible: bool = field(init=False)
    invalid_as_printed: bool = field(init=False)

    def __post_init__(self) -> None:
        if self.net is not None:
            if self.n_arcs is not None:
                raise TypeError("n_arcs is the net's arc count: give it only without a net")
            object.__setattr__(self, "n_arcs", self.net.num_arcs)
        object.__setattr__(self, "below_4pi", self.length is not None and self.length < 4.0 * math.pi)
        object.__setattr__(self, "constructible", self.net is not None)
        object.__setattr__(self, "invalid_as_printed", self.length is None)


def _arcs_by_dot(verts: np.ndarray, target: float, tol: float = 1e-9) -> np.ndarray:
    rows = []
    n = len(verts)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(float(verts[i] @ verts[j]) - target) < tol:
                rows.append([i, j, 1])
    return np.asarray(rows, dtype=np.int64)


def _net_great_circle() -> GeodesicNet:
    verts = np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=np.float64)
    arcs = np.array([[0, 1, 1], [1, 2, 1], [2, 3, 1], [3, 0, 1]], dtype=np.int64)
    return make_net(verts, arcs)


def _net_three_half_circles() -> GeodesicNet:
    verts = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    arcs = []
    for k in range(3):
        a = 2.0 * math.pi * k / 3.0
        verts.append([math.cos(a), math.sin(a), 0.0])
        arcs.append([0, 2 + k, 1])
        arcs.append([2 + k, 1, 1])
    return make_net(np.asarray(verts), np.asarray(arcs, dtype=np.int64))


def _net_tetrahedron() -> GeodesicNet:
    verts = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=np.float64
    ) / math.sqrt(3.0)
    return make_net(verts, _arcs_by_dot(verts, -1.0 / 3.0))


def _net_cube() -> GeodesicNet:
    verts = np.array(
        [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
        dtype=np.float64,
    ) / math.sqrt(3.0)
    return make_net(verts, _arcs_by_dot(verts, 1.0 / 3.0))


def _net_prism(sides: int, rho2: float) -> GeodesicNet:
    rho = math.sqrt(rho2)
    h = math.sqrt(1.0 - rho2)
    verts = []
    for sz in (h, -h):
        for k in range(sides):
            a = 2.0 * math.pi * k / sides
            verts.append([rho * math.cos(a), rho * math.sin(a), sz])
    verts = np.asarray(verts)
    arcs = []
    for k in range(sides):  # two rings
        arcs.append([k, (k + 1) % sides, 1])
        arcs.append([sides + k, sides + (k + 1) % sides, 1])
    for k in range(sides):  # uprights
        arcs.append([k, sides + k, 1])
    return make_net(verts, np.asarray(arcs, dtype=np.int64))


def _net_dodecahedron() -> GeodesicNet:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    pts = [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    for a in (-1.0 / phi, 1.0 / phi):
        for b in (-phi, phi):
            pts.append([0.0, a, b])
            pts.append([a, b, 0.0])
            pts.append([b, 0.0, a])
    verts = np.asarray(pts, dtype=np.float64) / math.sqrt(3.0)
    arcs = _arcs_by_dot(verts, math.sqrt(5.0) / 3.0)
    assert len(arcs) == 30, f"dodecahedron edge scan found {len(arcs)} arcs"
    return make_net(verts, arcs)


@functools.cache
def catalogue() -> tuple[CatalogueEntry, ...]:
    """The ten stationary nets on the unit sphere, with printed closed forms,
    built on first use and shared (the entries are frozen).

    Entries 1–7 carry explicit balanced coordinates; 8–10 are length-only
    (no coordinates are printed in the classification; reconstructing them is
    out of scope). Entry 10's printed formula contains arcsin of an argument
    larger than one and is flagged invalid; its intended comparison (> 25,
    hence > 4*pi) is kept as a note.
    """
    acos, asin, sqrt, pi = math.acos, math.asin, math.sqrt, math.pi
    e8 = (
        16 * asin(1 / sqrt(3))
        + 16 * asin(sqrt(2 - sqrt(2)) / sqrt(3))
        + 16 * asin(sqrt((2 ** 0.25 - 1) ** 2 / 6 + (2 - sqrt(2)) ** 2 / 12))
    )
    e9 = (6 * 83.80167087 + 8 * 58.25684287 + 4 * 13.55944752) * pi / 180.0
    return (
        CatalogueEntry(
            name="great circle",
            closed_form="2*pi",
            length=2 * pi,
            combinatorics="one great circle sampled at 4 points, 4 quarter arcs",
            net=_net_great_circle(),
        ),
        CatalogueEntry(
            name="three half circles",
            closed_form="3*pi",
            length=3 * pi,
            combinatorics="three meridians sharing both poles, split at the equator",
            net=_net_three_half_circles(),
        ),
        CatalogueEntry(
            name="tetrahedron",
            closed_form="6*acos(-1/3)",
            length=6 * acos(-1.0 / 3.0),
            combinatorics="1-skeleton of the regular tetrahedron, radially projected",
            net=_net_tetrahedron(),
        ),
        CatalogueEntry(
            name="cube",
            closed_form="12*acos(1/3)",
            length=12 * acos(1.0 / 3.0),
            combinatorics="1-skeleton of the cube, radially projected",
            net=_net_cube(),
        ),
        CatalogueEntry(
            name="pentagon prism",
            closed_form="10*acos(sqrt(5)/3) + 5*acos((3 - 5*sqrt(5)/3)/(5 - sqrt(5)))",
            length=10 * acos(sqrt(5) / 3) + 5 * acos((3 - 5 * sqrt(5) / 3) / (5 - sqrt(5))),
            combinatorics="prism over a regular pentagon: two rings of 5 plus 5 uprights",
            net=_net_prism(5, 2.0 * (5.0 - math.sqrt(5.0)) / 15.0),
        ),
        CatalogueEntry(
            name="triangle prism",
            closed_form="6*acos(-1/3) + 3*acos(7/9)",
            length=6 * acos(-1.0 / 3.0) + 3 * acos(7.0 / 9.0),
            combinatorics="prism over a regular triangle: two rings of 3 plus 3 uprights",
            net=_net_prism(3, 8.0 / 9.0),
        ),
        CatalogueEntry(
            name="dodecahedron",
            closed_form="30*acos(1 - 8/(3*(1 + sqrt(5))**2))",
            length=30 * acos(1 - 8 / (3 * (1 + sqrt(5)) ** 2)),
            combinatorics="1-skeleton of the regular dodecahedron, radially projected",
            net=_net_dodecahedron(),
        ),
        CatalogueEntry(
            name="two squares and eight pentagons",
            n_arcs=24,
            closed_form=(
                "8*2*asin(1/sqrt(3)) + 8*2*asin(sqrt(2 - sqrt(2))/sqrt(3))"
                " + 8*2*asin(sqrt((2**(1/4) - 1)**2/6 + (2 - sqrt(2))**2/12))"
            ),
            length=e8,
            combinatorics=(
                "24 arcs forming 2 regular quadrilaterals and 8 equal pentagons; each"
                " quadrilateral surrounded by 4 pentagons, each pentagon by 4 pentagons"
                " and one quadrilateral"
            ),
        ),
        CatalogueEntry(
            name="four pentagons and four quadrilaterals",
            n_arcs=18,
            closed_form="(6*83.80167087 + 8*58.25684287 + 4*13.55944752)*2*pi/360",
            length=e9,
            combinatorics=(
                "18 arcs forming 4 equal pentagons and 4 equal quadrilaterals; each"
                " quadrilateral surrounded by 3 pentagons and 1 quadrilateral, each"
                " pentagon by 3 quadrilaterals and 2 pentagons"
            ),
        ),
        CatalogueEntry(
            name="three squares and six pentagons",
            n_arcs=21,
            closed_form=(
                "12*2*asin(1/sqrt(3)) + 6*2*asin(sqrt(3 - sqrt(6)/6))"
                " + 3*2*asin((sqrt(3) - sqrt(2))/(2*sqrt(3)))"
            ),
            length=None,
            combinatorics=(
                "21 arcs forming 3 regular quadrilaterals and 6 equal pentagons; each"
                " quadrilateral surrounded by 4 pentagons, each pentagon by 2"
                " quadrilaterals and 3 pentagons"
            ),
            note=(
                "the middle arcsin argument sqrt(3 - sqrt(6)/6) ≈ 1.61 exceeds 1, so"
                " the printed formula cannot be evaluated; the intended comparison"
                " (> 25, hence > 4*pi) is recorded here"
            ),
        ),
    )


def match_link(link) -> dict:
    """Classify a spherical link (or a bare length) against the catalogue.

    Nearest catalogue length wins; residuals above 5% of 2*pi are reported as
    composite/unknown (sums of catalogue lengths are not decomposed).
    """
    length = float(getattr(link, "total_length", link))
    if not math.isfinite(length):
        raise NetError(f"cannot match a link of length {length}")
    if length <= 0:
        raise NetError("cannot match an empty link")
    best: CatalogueEntry | None = None
    best_err = math.inf
    for entry in catalogue():
        if entry.length is None:
            continue
        err = abs(length - entry.length)
        if err < best_err:
            best, best_err = entry, err
    assert best is not None
    result = {
        "length": length,
        "density": length / (2.0 * math.pi),
        "match": best.name,
        "matched_length": best.length,
        "residual": best_err,
    }
    if best_err > 0.05 * 2.0 * math.pi:
        result["match"] = "composite/unknown"
        result["matched_length"] = None
    return result


# ---------------------------------------------------------------------------
# serialization


def _arc_rows(net: GeodesicNet) -> list[list[int]]:
    """Arcs as file rows [i, j, mult], with a fourth element 1 on a major arc."""
    return [[i, j, m, 1] if major else [i, j, m]
            for (i, j, m), major in zip(net.arcs.tolist(), net.major.tolist())]


def save_net(net: GeodesicNet, path: str) -> None:
    """Net JSON: {"vertices": [[x,y,z],...], "arcs": [[i,j,mult],...]};
    arcs that take the major way round get a fourth element 1."""
    save_json({"vertices": net.vertices.tolist(), "arcs": _arc_rows(net)}, path)


def load_net(path: str) -> GeodesicNet:
    """Load a net file (the ``save_net`` format); values are never coerced.

    The vertices must be numbers, as in a mesh file (MeshError otherwise), and
    each arc row 3 integers, or 4 whose last is 1 on a major arc and 0 on a minor one.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not (isinstance(doc, dict) and "vertices" in doc and isinstance(doc.get("arcs"), list)):
        raise NetError(f"net file {path!r} needs an object with 'vertices' and an 'arcs' list")
    rows = doc["arcs"]
    for k, r in enumerate(rows):
        if not (isinstance(r, list) and len(r) in (3, 4) and r[3:] in ([], [0], [1])
                and all(isinstance(x, int) and not isinstance(x, bool) for x in r)):
            raise NetError(f"net file {path!r}: arc {k} must be 3 or 4 integers, the fourth 0 or 1,"
                           f" not {r!r}")
    arcs = np.asarray([r[:3] for r in rows], dtype=np.int64)
    major = [r[3:] == [1] for r in rows]
    return make_net(_numeric(doc["vertices"], "iuf", f"file {path!r}: 'vertices'"), arcs, major)
