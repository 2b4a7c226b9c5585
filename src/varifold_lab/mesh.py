"""Triangle-soup varifolds: immutable mesh container, topology, boundary measure, refinement.

A discrete 2-varifold is a triangle soup with a positive integer multiplicity
per face. Edges may bound one face (boundary), two faces (manifold interior),
or three and more (junctions, e.g. soap-film triple lines); all of these are
legal inputs everywhere unless an operation documents otherwise. A
``DiscreteVarifold`` checks itself when it is built, so every instance,
whether from a generator, ``refine``, ``load_mesh_file`` or a caller, holds
valid, uncoerced arrays.

Every elementwise whole-mesh per-face pass (``face_normals``, the degenerate
face check of ``validate``, ``FaceGrid.build``'s centroids, spreads and cell
keys, the area gradients and corner angles in ``curvature``) works through
the faces in blocks of ``_kernels._BLOCK`` (``_kernels._blocks``): it writes
each block into its F-sized outputs, so its temporaries, corner gathers
among them, stay block-sized. Every step is per face, so the blocks keep
every bit; sums over faces (``np.bincount``, means) still run over whole
arrays in row order. The corners of a set of faces are gathered in one
call, ``np.take(v.vertices, faces.T, axis=0)``: a (3, B, 3) copy whose
corner k is a C-ordered (B, 3) array with the bits of ``v.vertices[faces[:, k]]``.
Bounding boxes reduce one coordinate column at a time: the exact minima and
maxima of an ``axis=0`` reduction, which is slow on a C-order (V, 3) array.
``edge_topology`` is one sort, not a block pass: on triple bubble L4 (39,048
faces) it keeps 1.79 MB, and its tracemalloc peak is 3.18 MB. The edge
structure has one owner: ``_edge_keys`` forms every edge key min·V + max,
``_incidences`` is the one reader of the CSR incidence arrays outside
``edge_topology``, and ``_conormals`` gives each incidence's face, edge
vector and conormal.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import _kernels
from ._kernels import _atan2, _cross, _inner, _norm
from ._values import _DIRECTION, _INTEGER, _NUMBER, _POINT, MeshError, _check_rows, _frozen, _numeric, _quote
from .reports import load_json, save_json

if TYPE_CHECKING:
    from ._grid import FaceGrid


@dataclass(frozen=True)
class DiscreteVarifold:
    """Immutable triangle soup with per-face multiplicity, checked when built.

    Attributes
    ----------
    vertices : (V, 3) float64
    faces : (F, 3) int64, indices into vertices; an empty array stands for no faces
    multiplicity : (F,) int64, each >= 1; None stands for ones
    oriented : whether face windings are declared globally consistent
    face_patches : optional (F,) int64 labels of the smooth pieces a generator
        built the mesh from; refine hands each child its parent's label and
        the JSON format stores them, but no analysis reads them

    Nothing is coerced: vertices must be numbers, the other arrays integers,
    and ``oriented`` a bool; then ``validate`` checks the structure. Any
    failure raises MeshError naming the key or the first offending face, also
    from ``dataclasses.replace``. The arrays are read-only (views are copied
    first), and so are those of ``topology``, ``face_geometry``,
    ``curvature`` and ``face_grid``, which are derived on first use and kept.
    """

    vertices: np.ndarray
    faces: np.ndarray
    multiplicity: np.ndarray | None = None
    oriented: bool = False
    face_patches: np.ndarray | None = None

    def __post_init__(self) -> None:
        def put(key, a, kinds="iu", dtype=np.int64):  # checked, never coerced, then frozen
            a = _numeric(a, kinds, key, MeshError)
            if key == "faces" and a.shape == (0,):  # no faces; any other shape is left to validate
                a = a.reshape(0, 3)
            object.__setattr__(self, key, _frozen(np.asarray(a, dtype=dtype)))

        put("vertices", self.vertices, "iuf", np.float64)
        put("faces", self.faces)
        put("multiplicity", np.ones(len(self.faces), dtype=np.int64) if self.multiplicity is None
            else self.multiplicity)
        if self.face_patches is not None:
            put("face_patches", self.face_patches)
        if not isinstance(self.oriented, bool):
            raise MeshError(f"oriented must be a bool, not {self.oriented!r}")
        validate(self)

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

    Each array has its natural width: ``inc_signs`` is int8, the masks are
    bool, and ``edges``, ``counts``, ``offsets``, ``inc_faces`` and the three
    edge-class index lists are int32. That bounds a mesh to V < 2³¹ vertices
    and 3F < 2³¹ half-edges (``FaceGrid.order`` already holds F below 2³¹). The
    signs and indices are exact at any width, so every float formed from them
    has the bits it had with int64 arrays.
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
    for b in _kernels._blocks(v.num_faces):  # the areas of face_normals, a block at a time, kept nowhere
        tiny = 0.5 * _face_cross(v, b)[1] / scale / scale < 1e-14  # scale * scale may underflow to 0
        if tiny.any():
            raise MeshError(f"face {b.start + int(np.flatnonzero(tiny)[0])} is degenerate (zero area)")


def _require(v: DiscreteVarifold, *, faces: bool = False, closed: bool = False, manifold: bool = False,
             oriented: bool = False) -> None:
    """The one owner of what an analysis admits: raise MeshError for the first need of ``v``
    that fails, checked in this order: some face (``faces``); ``v.oriented`` (``oriented``); no
    boundary edge (``closed``); no junction edge, then one fan at every vertex (``manifold``,
    which ``oriented`` implies); windings that agree across every interior edge (``oriented``).
    Each message names the first offending edge or vertex. ``faces`` alone reads no derived
    structure."""
    if faces and v.num_faces == 0:
        raise MeshError("varifold has no faces")
    if oriented and not v.oriented:
        raise MeshError("operation requires an oriented mesh (oriented=True)")
    if not (closed or manifold or oriented):
        return
    topo = v.topology
    if closed and len(topo.boundary_edges):
        a, b = topo.edges[topo.boundary_edges[0]]
        raise MeshError(f"mesh is not closed: edge ({a}, {b}) bounds one face")
    if manifold or oriented:
        if len(topo.junction_edges):
            a, b = topo.edges[topo.junction_edges[0]]
            raise MeshError(f"mesh is not manifold: edge ({a}, {b}) has 3+ faces")
        fans = _fans(v)
        if (fans > 1).any():
            c = int(np.argmax(fans > 1))
            raise MeshError(f"mesh is not manifold: the faces at vertex {c} form {fans[c]} fans")
    if oriented:
        s = _incidences(topo, topo.interior_edges, 2)[1]
        bad = topo.interior_edges[s[:, 0] == s[:, 1]]
        if len(bad):
            a, b = topo.edges[bad[0]]
            raise MeshError(f"face windings disagree across edge ({a}, {b})")


def _fans(v: DiscreteVarifold) -> np.ndarray:
    """The number of fans (V,) at each vertex: the classes of its faces joined across its
    interior edges. Node 3f + k is face f's corner at ``faces[f, k]``, and each interior edge
    joins its two faces' corners at each of its ends (``_min_labels``); a vertex has one fan
    per label. A vertex inside a disk or a half-disk of faces has one, an unused vertex none,
    and a pinch, where surfaces meet in a vertex only, more than one."""
    topo = v.topology
    f = _incidences(topo, topo.interior_edges, 2)[0]
    ends = np.take(topo.edges, topo.interior_edges, axis=0)
    corners = np.take(v.faces, f, axis=0)  # (E, 2, 3)
    c = [3 * f + np.argmax(corners == ends[:, k, None, None], axis=2) for k in range(2)]  # (E, 2) at each end
    joins = np.concatenate(c)
    label = _min_labels(3 * v.num_faces, joins[:, 0], joins[:, 1])
    roots = np.flatnonzero(label == np.arange(len(label)))
    return np.bincount(np.take(v.faces.ravel(), roots), minlength=v.num_vertices)


def _face_cross(v: DiscreteVarifold, b: slice) -> tuple[np.ndarray, np.ndarray]:
    """The cross products (b - a) x (c - a) of the faces ``v.faces[b]`` and their norms."""
    p0, p1, p2 = np.take(v.vertices, v.faces[b].T, axis=0)
    n = _cross(p1 - p0, p2 - p0)
    return n, _norm(n)


def face_normals(v: DiscreteVarifold) -> tuple[np.ndarray, np.ndarray]:
    """Unit face normals and face areas, as (normals (F,3), areas (F,))."""
    normals, areas = np.empty((v.num_faces, 3)), np.empty(v.num_faces)
    for b in _kernels._blocks(v.num_faces):
        n, nn = _face_cross(v, b)
        areas[b] = 0.5 * nn
        with np.errstate(invalid="ignore", divide="ignore"):
            np.divide(n, nn[:, None], out=normals[b])
    return normals, areas


def _edge_keys(faces: np.ndarray, n: int) -> np.ndarray:
    """Key (F, 3) min·n + max of the edge from ``faces[:, k]`` to ``faces[:, (k + 1) % 3]``."""
    key = np.empty(faces.shape, dtype=np.int64)
    for k in range(3):
        a, b = faces[:, k], faces[:, (k + 1) % 3]
        key[:, k] = np.minimum(a, b) * n + np.maximum(a, b)
    return key


def _incidences(topo: EdgeTopology, e: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The faces (int32) and signs (int8), (len(e), k), of the first ``k`` incidences of each edge in ``e``."""
    i = topo.offsets[e][:, None] + np.arange(k)
    return topo.inc_faces[i], topo.inc_signs[i]


def _conormals(v: DiscreteVarifold, nhat: np.ndarray, e: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """Per incidence of the first ``k`` of each edge in ``e``, given the unit face normals
    ``nhat``: the face (len(e), k), the edge vector x_hi - x_lo as that face traverses it and
    ``nu = evec x n_f`` (len(e), k, 3); ``nu`` has length |e| and points out of the face, in its plane."""
    f, s = _incidences(v.topology, e, k)
    lo, hi = v.topology.edges[e].T
    evec = (np.take(v.vertices, hi, axis=0) - np.take(v.vertices, lo, axis=0))[:, None] * s[..., None]
    return f, evec, _cross(evec.reshape(-1, 3), np.take(nhat, f.ravel(), axis=0)).reshape(evec.shape)


def _boundary_conormals(v: DiscreteVarifold, nhat: np.ndarray) -> tuple[np.ndarray, ...]:
    """Boundary ``(edges, faces, evec, nu)``: ``_conormals`` of the boundary edges' one face."""
    be = v.topology.boundary_edges
    return (v.topology.edges[be], *(a[:, 0] for a in _conormals(v, nhat, be, 1)))


@dataclass(frozen=True)
class DiscreteBoundary:
    """Boundary edges of a mesh with their lengths and outward conormals."""

    edges: np.ndarray       # (B, 2) vertex indices, int32 like ``EdgeTopology.edges``
    lengths: np.ndarray     # (B,)
    conormals: np.ndarray   # (B, 3) unit, in the incident face plane, outward
    multiplicity: np.ndarray  # (B,) of the incident face
    total_length: float


def boundary_measure(v: DiscreteVarifold) -> DiscreteBoundary:
    """Per-edge outward conormals on the boundary of ``v``.

    Each boundary edge has exactly one incident face; the conormal is the
    in-plane unit normal to the edge pointing out of that face.  A closed mesh
    yields an empty boundary. The total length is a correctly rounded sum.
    """
    edges, fidx, vec, conormals = _boundary_conormals(v, v.face_geometry[0])
    lengths = _norm(vec)
    conormals /= _norm(conormals)[:, None]
    mult = v.multiplicity[fidx]
    return DiscreteBoundary(edges, lengths, conormals, mult, _kernels.fsum(mult * lengths))


def _min_labels(size: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Label (size,) of each node of the graph whose edges join a[i] and b[i]:
    the least node of its component. Rounds hook every root to the least root
    across an edge, then compress paths, until every edge joins equal labels."""
    label = np.arange(size)
    while True:
        la, lb = label[a], label[b]
        if np.array_equal(la, lb):
            return label
        np.minimum.at(label, la, lb)
        np.minimum.at(label, lb, la)
        up = label[label]
        while not np.array_equal(up, label):
            label, up = up, up[up]


def total_mass(v: DiscreteVarifold) -> float:
    """Total measure: sum of multiplicity-weighted face areas."""
    return _kernels.fsum(v.multiplicity.astype(np.float64) * v.face_geometry[1])


def mesh_scale(v: DiscreteVarifold) -> float:
    """Bounding-box diagonal, the length scale used in relative tolerances."""
    if v.num_vertices == 0:
        return 1.0
    ext = np.array([col.max() - col.min() for col in v.vertices.T])
    d = float(np.linalg.norm(ext))
    return d if d > 0.0 else 1.0


def edge_topology(v: DiscreteVarifold) -> EdgeTopology:
    """Group the 3F half-edges into undirected edges and classify them.

    Half-edge 3i + k runs from ``f[i, k]`` to ``f[i, (k + 1) % 3]``. Its key lo*V + hi comes
    from the face columns; one stable argsort of the keys yields the edges in lexicographic order
    and their incidences in face order. Each returned array is written at its own width
    (``EdgeTopology``); only the keys and their sort order are int64.
    """
    f, n = v.faces, v.num_vertices
    forward = f < f[:, [1, 2, 0]]  # half-edge 3i + k runs from lo to hi
    key = _edge_keys(f, n).ravel()
    order = np.argsort(key, kind="stable")
    key = np.take(key, order)
    first = np.ones(len(key) + 1, dtype=bool)  # incidence j opens an edge; entry 3F closes the last
    np.not_equal(key[1:], key[:-1], out=first[1:-1])
    edges = np.empty((np.count_nonzero(first) - 1, 2), dtype=np.int32)
    np.divmod(key[first[:-1]], n, out=(edges[:, 0], edges[:, 1]))
    del key  # freed before the incidences are written
    offsets = _kernels._indices(first)
    counts = np.diff(offsets)
    inc_faces = np.floor_divide(order, 3, out=np.empty(len(order), dtype=np.int32))
    inc_signs = np.take(forward.view(np.int8) * 2 - 1, order)
    del order  # freed before the classification allocates: 0.6 MB off the peak on triple bubble L4

    boundary, interior, junction = map(_kernels._indices, (counts == 1, counts == 2, counts >= 3))
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
    min·V + max (``_edge_keys``), and the midpoints are numbered from V in the order
    their edge is first met: midpoint V + i lies on ``ends[i]``, its key's (lo, hi).
    Face f's children [a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]
    are rows 4f..4f+3, each wound like f.
    """
    key = _edge_keys(faces, num_vertices).ravel()
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ab, bc, ca = (num_vertices + rank[inv]).reshape(-1, 3).T
    a, b, c = faces.T
    children = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    return np.stack(np.divmod(key[first[order]], num_vertices), axis=1), children


def refine(v: DiscreteVarifold) -> DiscreteVarifold:
    """Split every face 4-to-1 at edge midpoints 0.5·(a + b), numbered and
    laid out as ``_split`` says (one midpoint per edge, shared by its faces).

    Children inherit the parent multiplicity, patch label, and winding.
    """
    ends, children = _split(v.faces, v.num_vertices)
    mids = np.take(v.vertices, ends[:, 0], axis=0)
    mids += np.take(v.vertices, ends[:, 1], axis=0)
    mids *= 0.5
    return DiscreteVarifold(
        vertices=np.vstack([v.vertices, mids]),
        faces=children,
        multiplicity=np.repeat(v.multiplicity, 4),
        oriented=v.oriented,
        face_patches=None if v.face_patches is None else np.repeat(v.face_patches, 4),
    )


def junction_sheet_angles(v: DiscreteVarifold) -> np.ndarray:
    """Sorted pairwise angles (degrees) between the sheets at each 3-sheet junction edge, (J, 3):
    atan2(|νᵢ × νⱼ|, νᵢ·νⱼ) of the edge's three conormals (``_conormals``), which point out of
    each face in its plane. Junction edges with more than three sheets are skipped."""
    topo = v.topology
    je = topo.junction_edges[topo.counts[topo.junction_edges] == 3]
    nu = _conormals(v, v.face_geometry[0], je, 3)[2]
    a, b = nu[:, [0, 0, 1]].reshape(-1, 3), nu[:, [1, 2, 2]].reshape(-1, 3)
    ang = _atan2(_norm(_cross(a, b)), _inner(a, b))
    return np.sort(np.degrees(ang).reshape(-1, 3), axis=1)


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

    The arrays and ``oriented`` go to the ``DiscreteVarifold`` constructor,
    which coerces nothing; any MeshError it raises is re-raised as
    ``mesh file '<path>': <message>``. An ``analytic`` block whose keys that
    analyses read have the wrong type (or a junction circle whose normal is
    zero) raises MeshError naming the file and the key.
    """
    doc = load_json(path, "mesh file")
    for key in ("vertices", "faces", "multiplicity"):
        if not isinstance(doc, dict) or key not in doc:
            raise MeshError(f"mesh file {path!r} is missing the {key!r} array")
    analytic, where = doc.get("analytic"), f"mesh file {path!r}: 'analytic'"
    if analytic is not None and not isinstance(analytic, dict):
        raise MeshError(f"{where} must be an object, not {type(analytic).__name__}")
    for key, (ok, what) in (("willmore_energy", _NUMBER), ("chi", _INTEGER)):  # the values that analyses read
        if key in (analytic or {}) and not ok(analytic[key]):
            raise MeshError(f"{where}: {key!r} must be {what}, not {_quote(analytic[key])}")
    for key, spec in (("density_points", {"point": _POINT, "density": _NUMBER, "r_max?": _NUMBER}),
                      ("junction_circles", {"center": _POINT, "normal": _DIRECTION, "radius": _NUMBER,
                                            "density?": _NUMBER})):  # the lists that analyses read
        _check_rows((analytic or {}).get(key, []), spec, f"{where}: {key!r}", MeshError)
    try:
        v = DiscreteVarifold(doc["vertices"], doc["faces"], doc["multiplicity"], doc.get("oriented", False),
                             doc.get("face_patches"))
    except MeshError as e:
        raise MeshError(f"mesh file {path!r}: {e}") from None
    return v, analytic
