"""Curvature, energies and topology of triangle soups.

The discrete mean curvature is defined through the first variation of mass:
for a vertex p, the gradient of total mass with respect to p is the sum of
area gradients of the incident faces (multiplicity-weighted). At interior
vertices H_v A_v = -grad_v M with A_v the lumped (one-third) vertex area; at
boundary vertices the in-plane conormal force of the boundary edges is added
first, so flat patches have H identically zero including at the rim. This
makes the discrete identity

    sum_v <phi_v, grad_v M>  =  - sum_v <phi_v, H_v A_v>  +  boundary term

exact (to round-off) on meshes without junctions; on meshes with junction
curves the junction force is deliberately left on the left-hand side and shows
up as a residual that shrinks under refinement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from ._kernels import _atan2, _cross, _dot, _inner, _norm, _point, _sq
from ._values import _is_number, _quote
from .mesh import DiscreteVarifold, _boundary_conormals, _incidences, _min_labels, _require
from .reports import Record


@dataclass(frozen=True)
class CurvatureField:
    """Per-vertex curvature data.

    H is the mean curvature vector (sum-of-principal-curvatures convention,
    pointing away from the center of an outward-oriented sphere's curvature,
    i.e. inward for a round sphere). vertex_area is the multiplicity-weighted
    lumped area; boundary vertices carry the conormal-corrected H. willmore
    is the Willmore integrand |H_v|^2 A_v at the vertices that carry bending
    energy (``_bending_vertices``) and 0.0 at every other vertex. K,
    angle_defect, B2 and gauss_relation_residual are filled by
    second_fundamental_norm; all but angle_defect are NaN on boundary,
    junction and unused vertices.
    """

    H: np.ndarray
    vertex_area: np.ndarray
    willmore: np.ndarray
    K: np.ndarray | None = None
    angle_defect: np.ndarray | None = None
    B2: np.ndarray | None = None
    gauss_relation_residual: np.ndarray | None = None


@dataclass(frozen=True)
class TopologyReport(Record):
    num_vertices: int
    num_edges: int
    num_faces: int
    chi: int
    orientable: bool
    connected_components: int
    genus: int | None


# ---------------------------------------------------------------------------
# mean curvature


def _vertex_sum(idx: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """Per-vertex sums of the terms ``vals[m, j]`` at the vertices ``idx[m, j]``.

    ``idx`` is (M, J); ``vals`` broadcasts to (M, J) or (M, J, k), and the
    result is (n,) or (n, k). Column j's terms are added in row order
    (``np.bincount``), then the J column sums in column order, so the
    rounding is fixed by the order of the rows and columns.
    """
    vals = np.asarray(vals, dtype=np.float64)
    terms = vals if vals.ndim == 3 else vals[..., None]
    terms = np.broadcast_to(terms, idx.shape + terms.shape[2:])
    out = np.zeros((n, terms.shape[2]))
    for j in range(idx.shape[1]):
        for c in range(terms.shape[2]):
            out[:, c] += np.bincount(idx[:, j], weights=terms[:, j, c], minlength=n)
    return out if vals.ndim == 3 else out[:, 0]


def _area_gradients(v: DiscreteVarifold, nhat: np.ndarray) -> np.ndarray:
    """Gradient of total mass with respect to each vertex position, (V, 3). One corner's
    (3, F) terms at a time, built block by block and summed by ``_vertex_sum`` as it sums the
    (F, 3, 3) terms of all corners: corners outer, coordinates inner, rows in order."""
    out, terms = np.zeros((v.num_vertices, 3)), np.empty((3, v.num_faces))
    for j in range(3):
        for b in _kernels._blocks(v.num_faces):
            p = np.take(v.vertices, v.faces[b].T, axis=0)  # (3, B, 3): corners a, b, c
            t = _cross(nhat[b], p[(j + 2) % 3] - p[(j + 1) % 3]) * 0.5
            terms[:, b] = (t * v.multiplicity[b, None]).T
        out += _vertex_sum(v.faces[:, j:j + 1], terms.T[:, None, :], v.num_vertices)
    return out


def _vertex_areas(v: DiscreteVarifold, areas: np.ndarray) -> np.ndarray:
    """Lumped one-third vertex areas: a third of each given face area at each of its corners."""
    return _vertex_sum(v.faces, (areas / 3.0)[:, None], v.num_vertices)


def _boundary_force(v: DiscreteVarifold, nhat: np.ndarray) -> np.ndarray:
    """Half the multiplicity-weighted conormal line force of the boundary edges."""
    edges, f, _, nu = _boundary_conormals(v, nhat)
    w = 0.5 * v.multiplicity[f].astype(np.float64)
    return _vertex_sum(edges, (nu * w[:, None])[:, None], v.num_vertices)


def _bending_vertices(v: DiscreteVarifold, vertex_area: np.ndarray) -> np.ndarray:
    """The vertices that carry bending energy: off the boundary and on some face.

    Junction vertices count: the balancing of sheets keeps H bounded there,
    and their collar carries genuine energy. Boundary vertices do not; their
    first-variation mass belongs to the conormal boundary term.
    """
    return ~v.topology.boundary_vertex_mask & (vertex_area > 0.0)


def mean_curvature(v: DiscreteVarifold) -> CurvatureField:
    """First-variation mean curvature vectors H_v with lumped vertex areas.

    Computed afresh on each call; ``v.curvature`` keeps one read-only copy."""
    nhat, areas = v.face_geometry
    grad = _area_gradients(v, nhat)
    force = _boundary_force(v, nhat)
    area = _vertex_areas(v, areas * v.multiplicity)
    H = np.zeros_like(grad)
    ok = area > 0.0
    H[ok] = (force[ok] - grad[ok]) / area[ok, None]
    h2 = _sq(H)
    willmore = np.where(_bending_vertices(v, area), h2 * area, 0.0)
    return CurvatureField(H=H, vertex_area=area, willmore=willmore)


def willmore_energy(v: DiscreteVarifold) -> float:
    """W = (1/4) sum of the Willmore integrand |H_v|^2 A_v over the bending vertices."""
    return 0.25 * _kernels.fsum(v.curvature.willmore)


# ---------------------------------------------------------------------------
# angle defects and topology


def _corner_angles(v: DiscreteVarifold) -> np.ndarray:
    """Interior angles (F, 3) at each face corner."""
    out = np.empty((v.num_faces, 3))
    for blk in _kernels._blocks(v.num_faces):
        p = np.take(v.vertices, v.faces[blk].T, axis=0)  # (3, B, 3): corners a, b, c
        for k in range(3):
            u, w = p[(k + 1) % 3] - p[k], p[(k + 2) % 3] - p[k]
            cr = _norm(_cross(u, w))
            dt = _inner(u, w)
            out[blk, k] = _atan2(cr, dt)
    return out


def _angle_defects(v: DiscreteVarifold) -> np.ndarray:
    """2*pi minus the (unweighted) angle sum at each vertex; 0 on unused vertices."""
    n = v.num_vertices
    s = _vertex_sum(v.faces, _corner_angles(v), n)
    used = np.zeros(n, dtype=bool)
    used[v.faces.ravel()] = True
    defect = np.where(used, 2.0 * np.pi - s, 0.0)
    return defect


def euler_characteristic(v: DiscreteVarifold) -> TopologyReport:
    """V - E + F, orientability, connected components, and the genus of a connected orientable mesh.

    Requires a closed manifold (``mesh._require``): every edge on exactly two faces, and the
    faces at every vertex one fan. Otherwise MeshError names the first boundary or junction
    edge, or the first pinched vertex. Vertex count uses vertices actually referenced by faces.
    """
    _require(v, closed=True, manifold=True)
    topo = v.topology
    used = np.zeros(v.num_vertices, dtype=bool)
    used[v.faces.ravel()] = True
    nv = int(used.sum())
    ne = len(topo.edges)
    nf = v.num_faces
    chi = nv - ne + nf
    orientable, components = _orient_scan(v)
    return TopologyReport(
        num_vertices=nv,
        num_edges=ne,
        num_faces=nf,
        chi=chi,
        orientable=orientable,
        connected_components=components,
        genus=(2 - chi) // 2 if orientable and components == 1 else None,
    )


def _cover_labels(v: DiscreteVarifold) -> np.ndarray:
    """Labels (2F,) of the components of the orientation double cover: node
    2f + s is face f flipped s times, and each interior edge joins the nodes
    of its two faces that wind alike across it; each node's label is the least
    node of its component (``_min_labels``). No junction or boundary edge
    joins faces, so min(label[2f], label[2f + 1]) labels sheets."""
    f, s = _incidences(v.topology, v.topology.interior_edges, 2)
    alike = s[:, 0] != s[:, 1]
    a = np.concatenate([2 * f[:, 0], 2 * f[:, 0] + 1])
    b = np.concatenate([2 * f[:, 1] + ~alike, 2 * f[:, 1] + alike])
    return _min_labels(2 * v.num_faces, a, b)


def _orient_scan(v: DiscreteVarifold) -> tuple[bool, int]:
    """Orientable when no face shares a cover component with its flip; one component per sheet label."""
    label = _cover_labels(v).reshape(-1, 2)
    return bool((label[:, 0] != label[:, 1]).all()), len(np.unique(label.min(axis=1)))


# ---------------------------------------------------------------------------
# second fundamental form


def _vertex_normals_unoriented(v: DiscreteVarifold, nhat: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """Area-weighted vertex normals with per-vertex sign fixing (no global orientation).

    Each incident face normal is flipped to agree with the normal of the
    vertex's first incident face (in face order) before the area-weighted
    sum; a zero sum falls back to that reference normal, and vertices on no
    face get zero. ``nhat`` and ``areas`` are the face normals and areas.
    """
    nv = v.num_vertices
    order = np.argsort(v.faces.ravel(), kind="stable")
    vert_of = v.faces.ravel()[order]
    face_of = order // 3
    first = np.ones(len(order), dtype=bool)
    first[1:] = vert_of[1:] != vert_of[:-1]
    ref = np.zeros((nv, 3))
    fn = np.take(nhat, face_of, axis=0)
    ref[vert_of[first]] = fn[first]
    sgn = np.where(_dot(fn, np.take(ref, vert_of, axis=0)) >= 0.0, 1.0, -1.0)
    acc = _vertex_sum(vert_of[:, None], (fn * (areas[face_of] * sgn)[:, None])[:, None], nv)
    nrm = np.sqrt(_dot(acc, acc))  # rounds like the norm of each row alone
    ok = nrm > 0
    ref[ok] = acc[ok] / nrm[ok, None]
    return ref


def second_fundamental_norm(v: DiscreteVarifold) -> CurvatureField:
    """|B|^2 from the edge-based (dihedral-angle) curvature tensor.

    Per vertex, S_v = (1/area) sum over incident interior edges of
    beta_e (|e|/2) ē ēᵀ with beta_e the signed dihedral angle. The tangential
    part of S_v (n the vertex normal) has the principal curvatures as
    eigenvalues, up to the known eigenvector swap, so |B|^2 = k1^2 + k2^2 is
    its squared norm ‖S‖² − 2‖S n‖² + (n·S n)². Boundary and junction vertices are flagged NaN.
    Also fills the angle-defect Gauss curvature K_v = defect_v / (geometric
    vertex area), NaN on the same vertices, the defects themselves at every
    vertex (their total satisfies Gauss--Bonnet on closed manifolds), and the
    residual |K - (|H|^2 - |B|^2)/2| of the trace identity.
    """
    topo = v.topology
    base = v.curvature
    nhat, areas = v.face_geometry
    area_geom = _vertex_areas(v, areas)
    nv = v.num_vertices
    ok = _bending_vertices(v, base.vertex_area) & ~topo.junction_vertex_mask & (area_geom > 0)
    defect = _angle_defects(v)
    K = np.full(nv, np.nan)
    K[ok] = defect[ok] / area_geom[ok]

    ie = topo.interior_edges
    f, s = _incidences(topo, ie, 2)
    lo, hi = topo.edges[ie].T
    evec = np.take(v.vertices, hi, axis=0) - np.take(v.vertices, lo, axis=0)
    elen = _norm(evec)
    ebar = evec / elen[:, None]
    # signed dihedral: angle from n0 to n1 around the edge as f0 traverses it
    ef0 = ebar * s[:, :1]
    n0, n1 = np.take(nhat, f[:, 0], axis=0), np.take(nhat, f[:, 1], axis=0)
    beta = _atan2(_inner(_cross(n0, n1), ef0), _inner(n0, n1))
    w = beta * elen / 2.0
    t = w[:, None, None] * (ebar[:, :, None] * ebar[:, None, :])
    S = _vertex_sum(topo.edges[ie], t.reshape(-1, 1, 9), nv)[ok].reshape(-1, 3, 3)
    S /= area_geom[ok, None, None]
    n = _vertex_normals_unoriented(v, nhat, areas)[ok]
    Sn = np.einsum("nij,nj->ni", S, n)
    B2 = np.full(nv, np.nan)
    B2[ok] = np.einsum("nij,nij->n", S, S) - 2.0 * _sq(Sn) + _inner(n, Sn) ** 2

    resid = np.full(nv, np.nan)
    h2 = _sq(base.H)
    resid[ok] = np.abs(K[ok] - 0.5 * (h2[ok] - B2[ok]))
    return replace(base, K=K, angle_defect=defect, B2=B2, gauss_relation_residual=resid)


# ---------------------------------------------------------------------------
# oriented-surface functionals


def oriented_vertex_normals(v: DiscreteVarifold) -> np.ndarray:
    """Area-and-multiplicity-weighted unit vertex normals of an oriented mesh."""
    _require(v, oriented=True)
    nhat, areas = v.face_geometry
    w = (areas * v.multiplicity)[:, None] * nhat
    acc = _vertex_sum(v.faces, w[:, None], v.num_vertices)
    nrm = _norm(acc)
    ok = nrm > 0
    acc[ok] /= nrm[ok, None]
    return acc


def helfrich_energy(v: DiscreteVarifold, c0: float) -> float:
    """(1/4) sum |H_v - c0 n_v|^2 A_v with n_v the oriented vertex normal.

    At c0 = 0 this reduces to the same sum as willmore_energy, term for term.
    Requires a consistently oriented manifold mesh.
    """
    if not (_is_number(c0) and math.isfinite(c0)):
        raise ValueError(f"c0 must be a finite number, not {_quote(c0)}")
    normals = oriented_vertex_normals(v)
    field = v.curvature
    keep = _bending_vertices(v, field.vertex_area)
    d = field.H - c0 * normals
    vals = _sq(d) * field.vertex_area
    return 0.25 * _kernels.fsum(vals[keep])


def enclosed_volume(v: DiscreteVarifold) -> float:
    """Signed enclosed volume (1/3) sum mult A_f <centroid_f, n_f>.

    Positive for closed surfaces whose windings give outward normals; flip the
    orientation to negate. Requires a closed, consistently oriented mesh.
    """
    _require(v, closed=True, oriented=True)
    nhat, areas = v.face_geometry
    cen = np.take(v.vertices, v.faces.T, axis=0).mean(axis=0)
    vals = (areas * v.multiplicity) * _inner(cen, nhat)
    return _kernels.fsum(vals) / 3.0


def point_surface_distance(v: DiscreteVarifold, x0: np.ndarray) -> float:
    """Exact distance from x0 to the union of the triangles.

    The face grid is searched in balls of doubling radius, starting at a
    quarter of the cell pitch (the mean face spread, unless the cap on cells
    per axis widened the cells), until the nearest face found lies within
    the searched radius: every face left out is farther than that. At worst
    every face is searched.
    """
    p = _point(x0, "point_surface_distance: x0")
    from ._grid import _PITCH_SPREADS  # loaded by v.face_grid all the same

    grid = v.face_grid
    r = grid.pitch / _PITCH_SPREADS
    while True:
        idx = grid.query(p, r)
        d = _distance_to_faces(v.vertices, np.take(v.faces, idx, axis=0), p)
        if d <= r or len(idx) == v.num_faces:
            return d
        r *= 2.0


def _distance_to_faces(vertices: np.ndarray, faces: np.ndarray, p: np.ndarray) -> float:
    """Exact distance from p to the nearest of the given triangles (inf for none)."""
    a, b, c = np.take(vertices, faces.T, axis=0)
    # Ericson-style closest point on triangle, vectorized over faces
    ab, ac, ap = b - a, c - a, p - a
    d1, d2 = _inner(ab, ap), _inner(ac, ap)
    bp = p - b
    d3, d4 = _inner(ab, bp), _inner(ac, bp)
    cp = p - c
    d5, d6 = _inner(ab, cp), _inner(ac, cp)
    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2
    denom = va + vb + vc
    # face region: the projection is on the face only where all three
    # barycentric weights va, vb, vc (over denom > 0) are >= 0
    over = (va >= 0.0) & (vb >= 0.0) & (vc >= 0.0) & (denom > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cand = a + (vb / denom)[:, None] * ab + (vc / denom)[:, None] * ac
    best = np.where(over, _norm(cand, p), math.inf)
    # edge and vertex regions: the nearest clamped projection on the three edges
    for (s, evec) in ((a, ab), (a, ac), (b, c - b)):
        t = _inner(p - s, evec) / _sq(evec)
        t = np.clip(t, 0.0, 1.0)
        best = np.minimum(best, _norm(s + t[:, None] * evec, p))
    return float(best.min()) if len(best) else math.inf

