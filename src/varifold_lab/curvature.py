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

from ._kernels import _dot
from .mesh import (
    DiscreteVarifold,
    MeshError,
    _boundary_conormals,
    _require,
    face_normals,
)
from .reports import Record


@dataclass(frozen=True)
class CurvatureField:
    """Per-vertex curvature data.

    H is the mean curvature vector (sum-of-principal-curvatures convention,
    pointing away from the center of an outward-oriented sphere's curvature,
    i.e. inward for a round sphere). vertex_area is the multiplicity-weighted
    lumped area. Vertices under boundary_mask carry the conormal-corrected H;
    junction_mask marks vertices on edges with three or more sheets. K,
    angle_defect, B2 and gauss_relation_residual are filled by
    second_fundamental_norm; all but angle_defect are NaN on masked vertices.
    """

    H: np.ndarray
    vertex_area: np.ndarray
    boundary_mask: np.ndarray
    junction_mask: np.ndarray
    isolated_mask: np.ndarray
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
    defect_chi: float
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
    """Gradient of total mass with respect to each vertex position, (V, 3)."""
    p0 = v.vertices[v.faces[:, 0]]
    p1 = v.vertices[v.faces[:, 1]]
    p2 = v.vertices[v.faces[:, 2]]
    m = v.multiplicity[:, None].astype(np.float64)
    g = np.stack([np.cross(nhat, p2 - p1), np.cross(nhat, p0 - p2), np.cross(nhat, p1 - p0)], axis=1)
    g *= 0.5
    g *= m[:, None]
    return _vertex_sum(v.faces, g, v.num_vertices)


def _vertex_areas(v: DiscreteVarifold, areas: np.ndarray, weighted: bool = True) -> np.ndarray:
    """Lumped one-third vertex areas from the face areas, multiplicity-weighted unless weighted=False."""
    w = areas * v.multiplicity if weighted else areas
    return _vertex_sum(v.faces, (w / 3.0)[:, None], v.num_vertices)


def _boundary_force(v: DiscreteVarifold, nhat: np.ndarray) -> np.ndarray:
    """Half the multiplicity-weighted conormal line force of the boundary edges."""
    edges, f, _, nu = _boundary_conormals(v, nhat)
    w = 0.5 * v.multiplicity[f].astype(np.float64)
    return _vertex_sum(edges, (nu * w[:, None])[:, None], v.num_vertices)


def mean_curvature(v: DiscreteVarifold) -> CurvatureField:
    """First-variation mean curvature vectors H_v with lumped vertex areas.

    Computed afresh on each call; ``v.curvature`` keeps one read-only copy."""
    topo = v.topology
    nhat, areas = face_normals(v)
    grad = _area_gradients(v, nhat)
    force = _boundary_force(v, nhat)
    area = _vertex_areas(v, areas)
    isolated = area <= 0.0
    H = np.zeros_like(grad)
    ok = ~isolated
    H[ok] = (force[ok] - grad[ok]) / area[ok, None]
    return CurvatureField(
        H=H,
        vertex_area=area,
        boundary_mask=topo.boundary_vertex_mask.copy(),
        junction_mask=topo.junction_vertex_mask.copy(),
        isolated_mask=isolated,
    )


def willmore_energy(v: DiscreteVarifold) -> float:
    """(1/4) sum |H_v|^2 A_v over non-boundary vertices.

    Junction vertices are included: the balancing of sheets keeps H bounded
    there, and their collar carries genuine energy. Boundary vertices are
    excluded; their first-variation mass belongs to the conormal boundary term.
    """
    field = v.curvature
    keep = ~field.boundary_mask & ~field.isolated_mask
    h2 = np.einsum("ij,ij->i", field.H, field.H)
    return 0.25 * math.fsum((h2 * field.vertex_area)[keep])


# ---------------------------------------------------------------------------
# angle defects and topology


def _corner_angles(v: DiscreteVarifold) -> np.ndarray:
    """Interior angles (F, 3) at each face corner."""
    p = v.vertices[v.faces]  # (F, 3, 3)
    out = np.empty((v.num_faces, 3))
    for k in range(3):
        a = p[:, k]
        b = p[:, (k + 1) % 3]
        c = p[:, (k + 2) % 3]
        u, w = b - a, c - a
        cr = np.linalg.norm(np.cross(u, w), axis=1)
        dt = np.einsum("ij,ij->i", u, w)
        out[:, k] = np.arctan2(cr, dt)
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
    """V - E + F with the angle-defect cross-check, orientability, and genus.

    Requires a closed manifold: every edge on exactly two faces. Junction or
    boundary edges raise MeshError naming the first offending edge. Vertex
    count uses vertices actually referenced by faces.
    """
    _require(v, closed=True, manifold=True)
    topo = v.topology
    used = np.zeros(v.num_vertices, dtype=bool)
    used[v.faces.ravel()] = True
    nv = int(used.sum())
    ne = len(topo.edges)
    nf = v.num_faces
    chi = nv - ne + nf
    defect_chi = math.fsum(_angle_defects(v)) / (2.0 * math.pi)

    orientable, components = _orient_scan(v)
    genus: int | None = None
    if orientable and components == 1 and (2 - chi) % 2 == 0:
        genus = (2 - chi) // 2
    return TopologyReport(
        num_vertices=nv,
        num_edges=ne,
        num_faces=nf,
        chi=chi,
        defect_chi=defect_chi,
        orientable=orientable,
        connected_components=components,
        genus=genus,
    )


def _orient_scan(v: DiscreteVarifold) -> tuple[bool, int]:
    """BFS over face adjacency: orientability parity and component count."""
    topo = v.topology
    nf = v.num_faces
    adj_f: list[list[tuple[int, int]]] = [[] for _ in range(nf)]
    for ei in topo.interior_edges:
        o = topo.offsets[ei]
        f0, f1 = int(topo.inc_faces[o]), int(topo.inc_faces[o + 1])
        s0, s1 = int(topo.inc_signs[o]), int(topo.inc_signs[o + 1])
        # windings are compatible when the two faces traverse the edge oppositely
        parity = 0 if s0 != s1 else 1
        adj_f[f0].append((f1, parity))
        adj_f[f1].append((f0, parity))
    flip = np.full(nf, -1, dtype=np.int8)
    orientable = True
    components = 0
    for start in range(nf):
        if flip[start] >= 0:
            continue
        components += 1
        flip[start] = 0
        stack = [start]
        while stack:
            fcur = stack.pop()
            for fnext, parity in adj_f[fcur]:
                want = flip[fcur] ^ parity
                if flip[fnext] < 0:
                    flip[fnext] = want
                    stack.append(fnext)
                elif flip[fnext] != want:
                    orientable = False
    return orientable, components


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
    ref[vert_of[first]] = nhat[face_of[first]]
    fn = nhat[face_of]
    sgn = np.where(_dot(fn, ref[vert_of]) >= 0.0, 1.0, -1.0)
    acc = _vertex_sum(vert_of[:, None], (fn * (areas[face_of] * sgn)[:, None])[:, None], nv)
    nrm = np.sqrt(_dot(acc, acc))  # rounds like the norm of each row alone
    ok = nrm > 0
    ref[ok] = acc[ok] / nrm[ok, None]
    return ref


def second_fundamental_norm(v: DiscreteVarifold) -> CurvatureField:
    """|B|^2 from the edge-based (dihedral-angle) curvature tensor.

    Per vertex, S_v = (1/area) sum over incident interior edges of
    beta_e (|e|/2) ē ēᵀ with beta_e the signed dihedral angle; the two
    tangent-plane eigenvalues approximate the principal curvatures up to the
    known eigenvector swap, which |B|^2 = k1^2 + k2^2 does not see. Boundary
    and junction vertices are flagged NaN. Also fills the angle-defect Gauss
    curvature K_v = defect_v / (geometric vertex area), NaN on the same
    vertices, the defects themselves at every vertex (their total satisfies
    Gauss--Bonnet on closed manifolds), and the residual
    |K - (|H|^2 - |B|^2)/2| of the trace identity.
    """
    topo = v.topology
    base = v.curvature
    nhat, areas = face_normals(v)
    area_geom = _vertex_areas(v, areas, weighted=False)
    nv = v.num_vertices
    ok = ~base.boundary_mask & ~base.junction_mask & ~base.isolated_mask & (area_geom > 0)
    defect = _angle_defects(v)
    K = np.full(nv, np.nan)
    K[ok] = defect[ok] / area_geom[ok]

    S = np.zeros((nv, 6))  # xx, yy, zz, xy, xz, yz
    ie = topo.interior_edges
    o = topo.offsets[ie]
    f0 = topo.inc_faces[o]
    f1 = topo.inc_faces[o + 1]
    s0 = topo.inc_signs[o].astype(np.float64)
    lo = topo.edges[ie, 0]
    hi = topo.edges[ie, 1]
    evec = v.vertices[hi] - v.vertices[lo]
    elen = np.linalg.norm(evec, axis=1)
    ebar = evec / elen[:, None]
    # signed dihedral: angle from n0 to n1 around the edge as f0 traverses it
    ef0 = ebar * s0[:, None]
    n0, n1 = nhat[f0], nhat[f1]
    beta = np.arctan2(np.einsum("ij,ij->i", np.cross(n0, n1), ef0),
                      np.einsum("ij,ij->i", n0, n1))
    w = beta * elen / 2.0
    t = np.stack(
        [
            w * ebar[:, 0] * ebar[:, 0],
            w * ebar[:, 1] * ebar[:, 1],
            w * ebar[:, 2] * ebar[:, 2],
            w * ebar[:, 0] * ebar[:, 1],
            w * ebar[:, 0] * ebar[:, 2],
            w * ebar[:, 1] * ebar[:, 2],
        ],
        axis=1,
    )
    S += _vertex_sum(topo.edges[ie], t[:, None], nv)

    normals = _vertex_normals_unoriented(v, nhat, areas)
    B2 = np.full(nv, np.nan)
    idx = np.nonzero(ok)[0]
    Sm = np.empty((len(idx), 3, 3))
    Sm[:, 0, 0] = S[idx, 0]
    Sm[:, 1, 1] = S[idx, 1]
    Sm[:, 2, 2] = S[idx, 2]
    Sm[:, 0, 1] = Sm[:, 1, 0] = S[idx, 3]
    Sm[:, 0, 2] = Sm[:, 2, 0] = S[idx, 4]
    Sm[:, 1, 2] = Sm[:, 2, 1] = S[idx, 5]
    Sm /= area_geom[idx, None, None]
    n = normals[idx]
    # tangent frame
    pick = np.where(np.abs(n[:, 0]) < 0.9, 0, 1)
    seed = np.zeros_like(n)
    seed[np.arange(len(idx)), pick] = 1.0
    t1 = np.cross(n, seed)
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(n, t1)
    p = np.einsum("ni,nij,nj->n", t1, Sm, t1)
    r = np.einsum("ni,nij,nj->n", t2, Sm, t2)
    q = np.einsum("ni,nij,nj->n", t1, Sm, t2)
    mean = 0.5 * (p + r)
    dev = np.sqrt(np.maximum(0.25 * (p - r) ** 2 + q * q, 0.0))
    l1, l2 = mean + dev, mean - dev
    B2[idx] = l1 * l1 + l2 * l2

    resid = np.full(nv, np.nan)
    h2 = np.einsum("ij,ij->i", base.H, base.H)
    resid[ok] = np.abs(K[ok] - 0.5 * (h2[ok] - B2[ok]))
    return replace(base, K=K, angle_defect=defect, B2=B2, gauss_relation_residual=resid)


# ---------------------------------------------------------------------------
# oriented-surface functionals


def _require_consistent_orientation(v: DiscreteVarifold) -> None:
    if not v.oriented:
        raise MeshError("operation requires an oriented mesh (oriented=True)")
    _require(v, manifold=True)
    topo = v.topology
    ie = topo.interior_edges
    s0 = topo.inc_signs[topo.offsets[ie]]
    s1 = topo.inc_signs[topo.offsets[ie] + 1]
    bad = np.nonzero(s0 == s1)[0]
    if len(bad):
        e = topo.edges[ie[bad[0]]]
        raise MeshError(f"face windings disagree across edge ({e[0]}, {e[1]})")


def oriented_vertex_normals(v: DiscreteVarifold) -> np.ndarray:
    """Area-and-multiplicity-weighted unit vertex normals of an oriented mesh."""
    _require_consistent_orientation(v)
    nhat, areas = face_normals(v)
    w = (areas * v.multiplicity)[:, None] * nhat
    acc = _vertex_sum(v.faces, w[:, None], v.num_vertices)
    nrm = np.linalg.norm(acc, axis=1)
    ok = nrm > 0
    acc[ok] /= nrm[ok, None]
    return acc


def helfrich_energy(v: DiscreteVarifold, c0: float) -> float:
    """(1/4) sum |H_v - c0 n_v|^2 A_v with n_v the oriented vertex normal.

    At c0 = 0 this reduces to the same sum as willmore_energy, term for term.
    Requires a consistently oriented manifold mesh.
    """
    normals = oriented_vertex_normals(v)
    field = v.curvature
    keep = ~field.boundary_mask & ~field.isolated_mask
    d = field.H - c0 * normals
    vals = np.einsum("ij,ij->i", d, d) * field.vertex_area
    return 0.25 * math.fsum(vals[keep])


def enclosed_volume(v: DiscreteVarifold) -> float:
    """Signed enclosed volume (1/3) sum mult A_f <centroid_f, n_f>.

    Positive for closed surfaces whose windings give outward normals; flip the
    orientation to negate. Requires a closed, consistently oriented mesh.
    """
    _require_consistent_orientation(v)
    _require(v, closed=True)
    nhat, areas = face_normals(v)
    cen = v.vertices[v.faces].mean(axis=1)
    vals = (areas * v.multiplicity) * np.einsum("ij,ij->i", cen, nhat)
    return math.fsum(vals) / 3.0


def point_surface_distance(v: DiscreteVarifold, x0: np.ndarray) -> float:
    """Exact distance from x0 to the union of the triangles.

    The face grid is searched in balls of doubling radius, starting at one
    cell pitch, until the nearest face found lies within the searched radius:
    every face left out is farther than that. At worst every face is searched.
    """
    p = np.asarray(x0, dtype=np.float64)
    grid = v.face_grid
    r = grid.pitch
    while True:
        idx = grid.query(p, r)
        d = _distance_to_faces(v.vertices, np.take(v.faces, idx, axis=0), p)
        if d <= r or len(idx) == v.num_faces:
            return d
        r *= 2.0


def _distance_to_faces(vertices: np.ndarray, faces: np.ndarray, p: np.ndarray) -> float:
    """Exact distance from p to the nearest of the given triangles (inf for none)."""
    a = vertices[faces[:, 0]]
    b = vertices[faces[:, 1]]
    c = vertices[faces[:, 2]]
    # Ericson-style closest point on triangle, vectorized over faces
    ab, ac, ap = b - a, c - a, p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)
    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2
    denom = va + vb + vc
    with np.errstate(divide="ignore", invalid="ignore"):
        w1 = np.clip(np.where(denom != 0, vb / denom, 0.0), 0.0, 1.0)
        w2 = np.clip(np.where(denom != 0, vc / denom, 0.0), 0.0, 1.0)
    cand = a + w1[:, None] * ab + w2[:, None] * ac
    best = np.linalg.norm(cand - p, axis=1)
    # edge and vertex regions: clamp barycentric projections on each edge
    for (s, evec) in ((a, ab), (a, ac), (b, c - b)):
        t = np.einsum("ij,ij->i", p - s, evec) / np.einsum("ij,ij->i", evec, evec)
        t = np.clip(t, 0.0, 1.0)
        best = np.minimum(best, np.linalg.norm(s + t[:, None] * evec - p, axis=1))
    return float(best.min()) if len(best) else math.inf

