"""Triangle-soup varifolds: immutable mesh container, topology, refinement.

A discrete 2-varifold is a triangle soup with a positive integer multiplicity
per face. Edges may bound one face (boundary), two faces (manifold interior),
or three and more (junctions, e.g. soap-film triple lines); all of these are
legal inputs everywhere unless an operation documents otherwise.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ._kernels import _dot
from .reports import save_json

if TYPE_CHECKING:
    from ._grid import FaceGrid


class MeshError(ValueError):
    """Raised for structurally invalid meshes (bad indices, degenerate faces, ...)."""


def _frozen(a: np.ndarray) -> np.ndarray:
    """Read-only contiguous ``a``; a view is copied, so its base cannot change it."""
    a = np.ascontiguousarray(a)
    if not a.flags.owndata:
        a = a.copy()
    a.setflags(write=False)
    return a


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
    ``topology``, ``curvature`` and ``face_grid``, which are derived on first
    use and kept.
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
    ``half_edge_edge[3*f + k]`` is the edge under corner pair k of face f, with
    pairs ordered (c0, c1), (c1, c2), (c2, c0).
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
    half_edge_edge: np.ndarray = field(repr=False)

    def faces_of_edge(self, i: int) -> np.ndarray:
        return self.inc_faces[self.offsets[i]:self.offsets[i + 1]]


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
    vertices = _numeric(vertices, "iuf", "vertices")
    faces = _numeric(faces, "iu", "faces")
    if faces.shape == (0,):
        faces = faces.reshape(0, 3)
    if multiplicity is None:
        multiplicity = np.ones(len(faces), dtype=np.int64)
    multiplicity = _numeric(multiplicity, "iu", "multiplicity")
    if face_patches is not None:
        face_patches = _numeric(face_patches, "iu", "face_patches")
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
    if len(v.multiplicity) != len(v.faces):
        raise MeshError("multiplicity length does not match face count")
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
    n = np.cross(v.vertices[v.faces[:, 1]] - a, v.vertices[v.faces[:, 2]] - a)
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
    nu = np.cross(evec, nhat[f])
    return edges, f, evec, nu


def _weld(points: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Node ids of the points and the nodes' first points, as (ids (P,), nodes (N, 3)).

    Taken in order, a point joins the lowest-numbered node whose first point
    lies within ``tol`` of it (Euclidean, rounded like a 1-D
    ``np.linalg.norm``), or else starts the next node. Exact duplicates always
    share a node, so only the distinct points are welded. Candidate pairs come
    from 8 grids of pitch 3·tol, offset by half a cell along each axis: two
    points within ``tol`` share a cell of at least one. Python only loops over
    the candidate pairs.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    _, first, inv = np.unique(points, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(first), dtype=np.int64)
    rank[order] = np.arange(len(first))
    pts = points[first[order]]  # distinct points in order of first occurrence
    n = len(pts)
    pairs = []
    for shift in itertools.product((0.0, 0.5), repeat=3):
        c = np.floor(pts / (3.0 * tol) + shift).astype(np.int64)
        key = c[:, 0] * 73856093 ^ c[:, 1] * 19349663 ^ c[:, 2] * 83492791  # collisions only add candidates
        by_key = np.argsort(key)
        key = key[by_key]
        for d in range(1, n):
            same = key[d:] == key[:-d]
            if not same.any():
                break
            a, b = by_key[:-d][same], by_key[d:][same]
            pairs.append(np.maximum(a, b) * n + np.minimum(a, b))
    if not pairs:
        return rank[inv], pts
    # ascending later point, then earlier; a sort and a drop of repeats, since
    # a plain np.unique imports numpy.ma
    pairs = np.sort(np.concatenate(pairs))
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    later, earlier = pairs // n, pairs % n
    d = pts[earlier] - pts[later]
    near = np.sqrt(_dot(d, d)) <= tol
    founder = [True] * n
    parent = list(range(n))
    for i, j in zip(later[near].tolist(), earlier[near].tolist()):
        if founder[i] and founder[j]:
            parent[i] = j
            founder[i] = False
    node = np.cumsum(founder) - 1
    return node[parent][rank[inv]], pts[founder]


def total_mass(v: DiscreteVarifold) -> float:
    """Total measure: sum of multiplicity-weighted face areas."""
    return math.fsum(v.multiplicity.astype(np.float64) * face_normals(v)[1])


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
    inv = np.empty(len(order), dtype=np.int64)
    inv[order] = np.cumsum(first) - 1
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
        half_edge_edge=_frozen(inv),
    )


def refine(v: DiscreteVarifold) -> DiscreteVarifold:
    """Split every face 4-to-1 at edge midpoints (midpoints welded across faces).

    Children inherit the parent multiplicity, patch label, and winding.
    """
    topo = v.topology
    e = topo.edges
    mids = 0.5 * (v.vertices[e[:, 0]] + v.vertices[e[:, 1]])
    # index of the midpoint vertex for each (face, corner pair)
    mid_idx = (v.num_vertices + topo.half_edge_edge).reshape(-1, 3)  # per face: [m01, m12, m20]

    f = v.faces
    a, b, c = f[:, 0], f[:, 1], f[:, 2]
    mab, mbc, mca = mid_idx[:, 0], mid_idx[:, 1], mid_idx[:, 2]
    new_faces = np.concatenate(
        [
            np.stack([a, mab, mca], axis=1),
            np.stack([b, mbc, mab], axis=1),
            np.stack([c, mca, mbc], axis=1),
            np.stack([mab, mbc, mca], axis=1),
        ]
    )
    tile = lambda arr: np.concatenate([arr, arr, arr, arr])  # noqa: E731
    return DiscreteVarifold(
        vertices=np.vstack([v.vertices, mids]),
        faces=new_faces,
        multiplicity=tile(v.multiplicity),
        oriented=v.oriented,
        face_patches=tile(v.face_patches) if v.face_patches is not None else None,
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


def _numeric(x, kinds: str, where: str, error: type[ValueError] = MeshError) -> np.ndarray:
    """``x`` as an array of dtype kind in ``kinds`` ("iu" or "iuf"), never coerced, else ``error``
    naming ``where``. A sequence is also scanned for booleans, which NumPy reads as 1 and 0."""
    a = np.asarray(x)
    want = "integers" if kinds == "iu" else "numbers"
    if not isinstance(x, np.ndarray):
        rows = itertools.chain.from_iterable(x) if a.ndim == 2 else x if a.ndim == 1 else ()
        if {bool, np.bool_} & set(map(type, rows)):
            raise error(f"{where} must hold {want}, not booleans")
    if a.size and a.dtype.kind not in kinds:
        raise error(f"{where} must hold {want}, not {a.dtype}")
    return a


def _is_int(x) -> bool:
    """A Python or NumPy integer; booleans are not integers here."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A Python or NumPy integer or float; booleans are not numbers here."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


#: Tests of a JSON value for ``_check_rows``, each with what it asks for.
_NUMBER = (_is_number, "a number")
_INTEGER = (_is_int, "an integer")
_POINT = (lambda x: isinstance(x, list) and len(x) == 3 and all(map(_is_number, x)), "3 numbers")


def _check_rows(rows, spec: dict, where: str, error: type[ValueError] = MeshError) -> None:
    """``error`` naming the entry and key unless ``rows`` is a list of objects whose keys pass
    ``spec``'s tests (key -> (test, what it asks for)); only a key ending in "?" may be missing."""
    if not (isinstance(rows, list) and all(isinstance(r, dict) for r in rows)):
        raise error(f"{where} must be a list of objects")
    for k, row in enumerate(rows):
        for name, (ok, what) in spec.items():
            key = name.rstrip("?")
            if key == name and key not in row:
                raise error(f"{where} entry {k} is missing {key!r}")
            if key in row and not ok(row[key]):
                raise error(f"{where} entry {k}: {key!r} must be {what}, not {row[key]!r}")


def load_mesh_file(path: str) -> tuple[DiscreteVarifold, dict | None]:
    """Load a mesh JSON file; returns (varifold, analytic-block-or-None).

    Values are never coerced: a non-integer face index, multiplicity or patch
    label, a boolean among numbers, a face row without exactly three indices,
    a non-boolean ``oriented``, or an ``analytic`` block whose keys that
    analyses read have the wrong type raises MeshError naming the key.
    """
    with open(path) as fh:
        doc = json.load(fh)
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
                      ("junction_circles", {"center": _POINT, "normal": _POINT, "radius": _NUMBER,
                                            "density?": _NUMBER})):  # the lists that analyses read
        _check_rows((analytic or {}).get(key, []), spec, f"{where}: {key!r}")
    faces = _numeric(doc["faces"], "iu", f"file {path!r}: 'faces'")
    if faces.size and (faces.ndim != 2 or faces.shape[1] != 3):
        raise MeshError(f"mesh file {path!r}: 'faces' must be rows of 3 indices, not shape {faces.shape}")
    patches = None
    if doc.get("face_patches") is not None:
        patches = _numeric(doc["face_patches"], "iu", f"file {path!r}: 'face_patches'")
    v = make_varifold(
        _numeric(doc["vertices"], "iuf", f"file {path!r}: 'vertices'"),
        faces,
        _numeric(doc["multiplicity"], "iu", f"file {path!r}: 'multiplicity'"),
        oriented=oriented,
        face_patches=patches,
    )
    return v, analytic

