"""Triangle-soup varifolds: immutable mesh container, topology, boundary measure, refinement.

A discrete 2-varifold is a triangle soup with a positive integer multiplicity
per face. Edges may bound one face (boundary), two faces (manifold interior),
or three and more (junctions, e.g. soap-film triple lines); all of these are
legal inputs everywhere unless an operation documents otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ._kernels import _cross, _dot
from ._values import _DIRECTION, _NUMBER, _POINT, MeshError, _check_rows, _frozen, _is_number, _numeric
from .reports import load_json, save_json

if TYPE_CHECKING:
    from ._grid import FaceGrid


@dataclass(frozen=True)
class DiscreteVarifold:
    """Immutable triangle soup with per-face multiplicity.

    Attributes
    ----------
    vertices : (V, 3) float64
    faces : (F, 3) int64, indices into vertices
    multiplicity : (F,) int64, each >= 1
    oriented : whether face windings are declared globally consistent
    face_patches : optional (F,) int64 labels of the smooth pieces a generator
        built the mesh from; refine hands each child its parent's label and
        the JSON format stores them, but no analysis reads them

    The arrays are read-only (views are copied first), and so are those of
    ``topology``, ``face_geometry``, ``curvature`` and ``face_grid``, which are
    derived on first use and kept.
    """

    vertices: np.ndarray
    faces: np.ndarray
    multiplicity: np.ndarray
    oriented: bool = False
    face_patches: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", _frozen(np.asarray(self.vertices, dtype=np.float64)))
        object.__setattr__(self, "faces", _frozen(np.asarray(self.faces, dtype=np.int64)))
        object.__setattr__(self, "multiplicity", _frozen(np.asarray(self.multiplicity, dtype=np.int64)))
        if self.face_patches is not None:
            object.__setattr__(self, "face_patches", _frozen(np.asarray(self.face_patches, dtype=np.int64)))

    @property
    def num_vertices(self) -> int:
        return int(self.vertices.shape[0])

    @property
    def num_faces(self) -> int:
        return int(self.faces.shape[0])

    @cached_property
    def topology(self) -> EdgeTopology:
        """``edge_topology(self)``, built once."""
        return edge_topology(self)

    @cached_property
    def face_geometry(self) -> tuple[np.ndarray, np.ndarray]:
        """``face_normals(self)``, unit normals and areas, read-only and computed once."""
        return tuple(map(_frozen, face_normals(self)))

    @cached_property
    def curvature(self):
        """``curvature.mean_curvature(self)`` with read-only arrays, computed once."""
        from . import curvature

        f = curvature.mean_curvature(self)
        return replace(f, **{k.name: _frozen(getattr(f, k.name))
                             for k in fields(f) if getattr(f, k.name) is not None})

    @cached_property
    def face_grid(self) -> FaceGrid:
        """``FaceGrid.build(self)``, built once."""
        from ._grid import FaceGrid

        return FaceGrid.build(self)


@dataclass(frozen=True)
class EdgeTopology:
    """Undirected edges of a varifold with their face incidences.

    ``edges[i]`` is a sorted vertex pair. The faces incident to edge ``i`` are
    ``inc_faces[offsets[i]:offsets[i+1]]``; ``inc_signs`` says whether that
    face traverses the edge as (lo, hi) (+1) or (hi, lo) (-1) in its winding.
    """

    edges: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray
    inc_faces: np.ndarray
    inc_signs: np.ndarray
    boundary_edges: np.ndarray = field(repr=False)
    interior_edges: np.ndarray = field(repr=False)
    junction_edges: np.ndarray = field(repr=False)
    boundary_vertex_mask: np.ndarray = field(repr=False)
    junction_vertex_mask: np.ndarray = field(repr=False)


def make_varifold(
    vertices: np.ndarray,
    faces: np.ndarray,
    multiplicity: np.ndarray | None = None,
    oriented: bool = False,
    face_patches: np.ndarray | None = None,
) -> DiscreteVarifold:
    """Build a DiscreteVarifold and validate its structure.

    ``faces`` must be (F, 3); an empty array stands for no faces. Any other
    shape is left for ``validate`` to reject, never reshaped. Nothing is coerced:
    vertices must be numbers, the other arrays integers (MeshError otherwise).
    """
    vertices = _numeric(vertices, "iuf", "vertices", MeshError)
    faces = _numeric(faces, "iu", "faces", MeshError)
    if faces.shape == (0,):
        faces = faces.reshape(0, 3)
    if multiplicity is None:
        multiplicity = np.ones(len(faces), dtype=np.int64)
    multiplicity = _numeric(multiplicity, "iu", "multiplicity", MeshError)
    if face_patches is not None:
        face_patches = _numeric(face_patches, "iu", "face_patches", MeshError)
    v = DiscreteVarifold(vertices, faces, multiplicity, oriented, face_patches)
    validate(v)
    return v


def validate(v: DiscreteVarifold) -> None:
    """Raise MeshError on structural problems, naming the offending face."""
    if v.vertices.ndim != 2 or v.vertices.shape[1] != 3:
        raise MeshError(f"vertices must be (V, 3), got {v.vertices.shape}")
    if v.faces.ndim != 2 or v.faces.shape[1] != 3:
        raise MeshError(f"faces must be (F, 3), got {v.faces.shape}")
    if not np.all(np.isfinite(v.vertices)):
        raise MeshError("vertices contain non-finite coordinates")
    for key in ("multiplicity", "face_patches"):
        a = getattr(v, key)
        if a is not None and a.shape != (len(v.faces),):
            raise MeshError(f"{key} shape {a.shape} does not match (F,) = ({len(v.faces)},)")
    if v.faces.min(initial=0) < 0 or v.faces.max(initial=-1) >= len(v.vertices):
        bad = int(np.nonzero((v.faces < 0) | (v.faces >= len(v.vertices)))[0][0])
        raise MeshError(f"face {bad} has a vertex index out of range")
    same = (
        (v.faces[:, 0] == v.faces[:, 1])
        | (v.faces[:, 1] == v.faces[:, 2])
        | (v.faces[:, 2] == v.faces[:, 0])
    )
    if same.any():
        raise MeshError(f"face {int(np.nonzero(same)[0][0])} repeats a vertex index")
    if (v.multiplicity < 1).any():
        bad = int(np.nonzero(v.multiplicity < 1)[0][0])
        raise MeshError(f"face {bad} has multiplicity < 1")
    scale = mesh_scale(v)
    # not v.face_geometry: kept from here, it would hold every built mesh's normals
    tiny = face_normals(v)[1] / scale / scale < 1e-14  # scale * scale may underflow to 0
    if tiny.any():
        raise MeshError(f"face {int(np.nonzero(tiny)[0][0])} is degenerate (zero area)")


def _require(v: DiscreteVarifold, closed: bool = False, manifold: bool = False) -> None:
    """Raise MeshError naming the first boundary edge (``closed``) or the first
    junction edge (``manifold``) of ``v``."""
    topo = v.topology
    if closed and len(topo.boundary_edges):
        a, b = topo.edges[topo.boundary_edges[0]]
        raise MeshError(f"mesh is not closed: edge ({a}, {b}) bounds one face")
    if manifold and len(topo.junction_edges):
        a, b = topo.edges[topo.junction_edges[0]]
        raise MeshError(f"mesh is not manifold: edge ({a}, {b}) has 3+ faces")


def face_normals(v: DiscreteVarifold) -> tuple[np.ndarray, np.ndarray]:
    """Unit face normals and face areas, as (normals (F,3), areas (F,))."""
    a = v.vertices[v.faces[:, 0]]
    n = _cross(v.vertices[v.faces[:, 1]] - a, v.vertices[v.faces[:, 2]] - a)
    nn = np.linalg.norm(n, axis=1)
    areas = 0.5 * nn
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = n / nn[:, None]
    unit[nn == 0.0] = 0.0
    return unit, areas


def _boundary_conormals(v: DiscreteVarifold, nhat: np.ndarray) -> tuple[np.ndarray, ...]:
    """Boundary ``(edges, faces, evec, nu)`` given the unit face normals ``nhat``:
    ``evec`` is x_hi - x_lo as the edge's face traverses it; ``nu = evec x n_f``
    has length |e| and points out of the face, in its plane."""
    topo = v.topology
    be = topo.boundary_edges
    edges = topo.edges[be]
    f = topo.inc_faces[topo.offsets[be]]
    s = topo.inc_signs[topo.offsets[be]].astype(np.float64)
    evec = (v.vertices[edges[:, 1]] - v.vertices[edges[:, 0]]) * s[:, None]
    nu = _cross(evec, nhat[f])
    return edges, f, evec, nu


@dataclass(frozen=True)
class DiscreteBoundary:
    """Boundary edges of a mesh with their lengths and outward conormals."""

    edges: np.ndarray       # (B, 2) vertex indices
    lengths: np.ndarray     # (B,)
    conormals: np.ndarray   # (B, 3) unit, in the incident face plane, outward
    multiplicity: np.ndarray  # (B,) of the incident face
    total_length: float


def boundary_measure(v: DiscreteVarifold) -> DiscreteBoundary:
    """Per-edge outward conormals on the boundary of ``v``.

    Each boundary edge has exactly one incident face; the conormal is the
    in-plane unit normal to the edge pointing out of that face.  A closed mesh
    yields an empty boundary.
    """
    edges, fidx, vec, conormals = _boundary_conormals(v, v.face_geometry[0])
    lengths = np.linalg.norm(vec, axis=1)
    conormals /= np.linalg.norm(conormals, axis=1, keepdims=True)
    mult = v.multiplicity[fidx]
    total = float(np.dot(mult.astype(np.float64), lengths))
    return DiscreteBoundary(edges, lengths, conormals, mult, total)


#: The weld's sweep direction: a fixed unit vector normal to no coordinate or
#: symmetry plane of the reference meshes.
_SWEEP = np.array([1.0, math.sqrt(2.0), math.sqrt(3.0)]) / math.sqrt(6.0)


def _weld(points: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Node ids of the points and the nodes' first points, as (ids (P,), nodes (N, 3)).

    Taken in order, a point joins the lowest-numbered node whose first point
    lies within ``tol`` of it (Euclidean, rounded like a 1-D
    ``np.linalg.norm``), or else starts the next node.

    The candidate pairs come from one stable sort of the projections ``p·u``
    on the fixed unit vector ``u = _SWEEP``, swept at offsets 1, 2, ... while
    some gap between sorted projections is at most ``tol·(1 + 1e-6)`` plus
    ``1e-14·max|p|∞``. Since ``|u·(p − q)| ≤ |p − q|``, every pair within
    ``tol`` is a candidate; the slack covers the rounding of the projections
    and of the distance, and can only add candidates, which the exact
    distance test then drops. Gaps grow with the offset, so the sweep stops
    at the first offset with none small enough. Its cost is the largest
    number of points in one ``2·tol`` window of projections: a point repeated
    k times costs k sweep offsets, and points on a plane normal to ``u`` are
    all candidates of each other, which is quadratic. Exact repeats are pairs
    at distance 0, so they share a node whose point is the first copy's bytes
    (-0.0 and 0.0 included). Python only loops over the pairs within ``tol``.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    proj = pts @ _SWEEP
    by_proj = np.argsort(proj, kind="stable")
    proj = proj[by_proj]
    gap = tol * (1.0 + 1e-6) + 1e-14 * float(np.abs(pts).max(initial=0.0))
    later, earlier = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for d in range(1, len(pts)):
        cand = np.flatnonzero(proj[d:] - proj[:-d] <= gap)
        if not len(cand):
            break
        a, b = by_proj[cand], by_proj[cand + d]
        i, j = np.maximum(a, b), np.minimum(a, b)
        diff = pts[j] - pts[i]
        near = np.sqrt(_dot(diff, diff)) <= tol
        later.append(i[near])
        earlier.append(j[near])
    later, earlier = np.concatenate(later), np.concatenate(earlier)
    by_pair = np.lexsort((earlier, later))  # ascending later point, then earlier
    joined: dict[int, int] = {}
    for i, j in zip(later[by_pair].tolist(), earlier[by_pair].tolist()):
        if i not in joined and j not in joined:  # both still found their own nodes
            joined[i] = j
    parent = np.arange(len(pts))
    parent[list(joined)] = list(joined.values())
    founder = parent == np.arange(len(pts))
    node = np.cumsum(founder) - 1
    return node[parent], pts[founder]


def total_mass(v: DiscreteVarifold) -> float:
    """Total measure: sum of multiplicity-weighted face areas."""
    return math.fsum(v.multiplicity.astype(np.float64) * v.face_geometry[1])


def mesh_scale(v: DiscreteVarifold) -> float:
    """Bounding-box diagonal, the length scale used in relative tolerances."""
    if v.num_vertices == 0:
        return 1.0
    ext = v.vertices.max(axis=0) - v.vertices.min(axis=0)
    d = float(np.linalg.norm(ext))
    return d if d > 0.0 else 1.0


def edge_topology(v: DiscreteVarifold) -> EdgeTopology:
    """Group the 3F half-edges into undirected edges and classify them.

    Each half-edge gets the integer key lo*V + hi of its sorted vertex pair;
    one stable sort of the keys yields the edges in lexicographic order and
    their incidences in face order.
    """
    f = v.faces
    he = np.stack([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]], axis=1).reshape(-1, 2)
    lo = np.minimum(he[:, 0], he[:, 1])
    hi = np.maximum(he[:, 0], he[:, 1])
    key = lo * v.num_vertices + hi
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(first)
    lo_s = lo[order]
    edges = np.stack([lo_s[starts], hi[order[starts]]], axis=1)
    offsets = np.append(starts, len(order)).astype(np.int64)
    counts = np.diff(offsets)
    inc_faces = (order // 3).astype(np.int64)
    inc_signs = np.where(he[order, 0] == lo_s, 1, -1).astype(np.int64)

    boundary = np.nonzero(counts == 1)[0]
    interior = np.nonzero(counts == 2)[0]
    junction = np.nonzero(counts >= 3)[0]
    bmask = np.zeros(v.num_vertices, dtype=bool)
    jmask = np.zeros(v.num_vertices, dtype=bool)
    bmask[edges[boundary].ravel()] = True
    jmask[edges[junction].ravel()] = True
    return EdgeTopology(
        edges=_frozen(edges),
        counts=_frozen(counts),
        offsets=_frozen(offsets),
        inc_faces=_frozen(inc_faces),
        inc_signs=_frozen(inc_signs),
        boundary_edges=_frozen(boundary),
        interior_edges=_frozen(interior),
        junction_edges=_frozen(junction),
        boundary_vertex_mask=_frozen(bmask),
        junction_vertex_mask=_frozen(jmask),
    )


def _split(faces: np.ndarray, num_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """The 4-to-1 midpoint split of ``faces``, as (ends (E, 2), children (4F, 3)).

    The half-edges (a, b), (b, c), (c, a) of each face are keyed
    min·V + max, and the midpoints are numbered from V in the order their
    edge is first met: midpoint V + i lies on ``ends[i]``, that half-edge.
    Face f's children [a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]
    are rows 4f..4f+3, each wound like f.
    """
    he = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    key = np.minimum(he[:, 0], he[:, 1]) * num_vertices + np.maximum(he[:, 0], he[:, 1])
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ab, bc, ca = (num_vertices + rank[inv]).reshape(-1, 3).T
    a, b, c = faces.T
    children = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    return he[first[order]], children


def refine(v: DiscreteVarifold) -> DiscreteVarifold:
    """Split every face 4-to-1 at edge midpoints 0.5·(a + b), numbered and
    laid out as ``_split`` says (midpoints welded across faces).

    Children inherit the parent multiplicity, patch label, and winding.
    """
    ends, children = _split(v.faces, v.num_vertices)
    mids = 0.5 * (v.vertices[ends[:, 0]] + v.vertices[ends[:, 1]])
    return DiscreteVarifold(
        vertices=np.vstack([v.vertices, mids]),
        faces=children,
        multiplicity=np.repeat(v.multiplicity, 4),
        oriented=v.oriented,
        face_patches=None if v.face_patches is None else np.repeat(v.face_patches, 4),
    )


def junction_sheet_angles(v: DiscreteVarifold) -> np.ndarray:
    """Pairwise angles (degrees) between the sheets at each 3-sheet junction edge.

    Returns an array (J, 3): for every junction edge with exactly three
    incident faces, the sorted angles between the in-plane directions that
    point from the edge into each face. Junction edges with more than three
    sheets are skipped.
    """
    topo = v.topology
    je = topo.junction_edges[topo.counts[topo.junction_edges] == 3]
    fs = topo.inc_faces[topo.offsets[je][:, None] + np.arange(3)]  # (J, 3)
    lo, hi = topo.edges[je, 0], topo.edges[je, 1]
    p, q = v.vertices[lo], v.vertices[hi]
    ehat = (q - p) / np.linalg.norm(q - p, axis=1)[:, None]
    opp = v.faces[fs].sum(axis=2) - (lo + hi)[:, None]  # each face's corner off the edge
    w = v.vertices[opp] - 0.5 * (p + q)[:, None]
    w -= np.einsum("jfk,jk->jf", w, ehat)[..., None] * ehat[:, None]
    w /= np.linalg.norm(w, axis=2)[..., None]
    dots = np.einsum("jfk,jgk->jfg", w, w)[:, [0, 0, 1], [1, 2, 2]]
    return np.sort(np.degrees(np.arccos(np.clip(dots, -1.0, 1.0))), axis=1)


# ---------------------------------------------------------------------------
# serialization


def save_varifold(v: DiscreteVarifold, path: str, analytic: dict | None = None) -> None:
    """Write the canonical JSON mesh format (sorted keys, no timestamps)."""
    doc: dict = {
        "vertices": v.vertices.tolist(),
        "faces": v.faces.tolist(),
        "multiplicity": v.multiplicity.tolist(),
        "oriented": bool(v.oriented),
    }
    if v.face_patches is not None:
        doc["face_patches"] = v.face_patches.tolist()
    if analytic is not None:
        doc["analytic"] = analytic
    save_json(doc, path)


def load_mesh_file(path: str) -> tuple[DiscreteVarifold, dict | None]:
    """Load a mesh JSON file; returns (varifold, analytic-block-or-None).

    Values are never coerced: a non-integer face index, multiplicity or patch
    label, a boolean among numbers, a face row without exactly three indices,
    a non-boolean ``oriented``, or an ``analytic`` block whose keys that
    analyses read have the wrong type (or a junction circle whose normal is
    zero) raises MeshError naming the key.
    """
    doc = load_json(path, "mesh file")
    for key in ("vertices", "faces", "multiplicity"):
        if not isinstance(doc, dict) or key not in doc:
            raise MeshError(f"mesh file {path!r} is missing the {key!r} array")
    oriented = doc.get("oriented", False)
    if not isinstance(oriented, bool):
        raise MeshError(f"mesh file {path!r}: 'oriented' must be true or false, not {oriented!r}")
    analytic, where = doc.get("analytic"), f"mesh file {path!r}: 'analytic'"
    if analytic is not None and not isinstance(analytic, dict):
        raise MeshError(f"{where} must be an object, not {type(analytic).__name__}")
    if not _is_number((analytic or {}).get("willmore_energy", 0)):
        raise MeshError(f"{where}: 'willmore_energy' must be a number, not {analytic['willmore_energy']!r}")
    for key, spec in (("density_points", {"point": _POINT, "density": _NUMBER, "r_max?": _NUMBER}),
                      ("junction_circles", {"center": _POINT, "normal": _DIRECTION, "radius": _NUMBER,
                                            "density?": _NUMBER})):  # the lists that analyses read
        _check_rows((analytic or {}).get(key, []), spec, f"{where}: {key!r}", MeshError)
    faces = _numeric(doc["faces"], "iu", f"file {path!r}: 'faces'", MeshError)
    if faces.size and (faces.ndim != 2 or faces.shape[1] != 3):
        raise MeshError(f"mesh file {path!r}: 'faces' must be rows of 3 indices, not shape {faces.shape}")
    patches = None
    if doc.get("face_patches") is not None:
        patches = _numeric(doc["face_patches"], "iu", f"file {path!r}: 'face_patches'", MeshError)
    v = make_varifold(
        _numeric(doc["vertices"], "iuf", f"file {path!r}: 'vertices'", MeshError),
        faces,
        _numeric(doc["multiplicity"], "iu", f"file {path!r}: 'multiplicity'", MeshError),
        oriented=oriented,
        face_patches=patches,
    )
    return v, analytic

