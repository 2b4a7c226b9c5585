"""Whole-mesh gathers are ``np.take`` copies with the bits of the fancy indexing they replace,
and ``mesh_scale``'s column-at-a-time bounding box has the bits of the axis-0 reductions."""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varifold_lab import _kernels, blowup, curvature, generators, mesh
from varifold_lab._kernels import _cross
from varifold_lab.mesh import DiscreteVarifold

_MESHES = {
    "cap3": lambda: generators.gen_cap(1.0, 1.2, 3),  # boundary
    "triple_bubble2": lambda: generators.gen_triple_bubble(2),  # junction arcs and points
    "torus3": lambda: generators.gen_torus(2.0, 0.7, 3),  # closed and oriented
}


class _FancyNumpy:
    """NumPy, except that ``take(a, idx, axis=0)`` is the fancy index ``a[idx]``."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def take(a, indices, axis=None, **kwargs):
        return a[indices] if axis == 0 and not kwargs else np.take(a, indices, axis=axis, **kwargs)


def _face_normals_fancy(v: DiscreteVarifold) -> tuple[np.ndarray, np.ndarray]:
    a = v.vertices[v.faces[:, 0]]
    n = _cross(v.vertices[v.faces[:, 1]] - a, v.vertices[v.faces[:, 2]] - a)
    nn = np.linalg.norm(n, axis=1)
    areas = 0.5 * nn
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = n / nn[:, None]
    unit[nn == 0.0] = 0.0
    return unit, areas


def _boundary_conormals_fancy(v: DiscreteVarifold, nhat: np.ndarray) -> tuple[np.ndarray, ...]:
    topo = v.topology
    be = topo.boundary_edges
    edges = topo.edges[be]
    f = topo.inc_faces[topo.offsets[be]]
    s = topo.inc_signs[topo.offsets[be]].astype(np.float64)
    evec = (v.vertices[edges[:, 1]] - v.vertices[edges[:, 0]]) * s[:, None]
    return edges, f, evec, _cross(evec, nhat[f])


def _area_gradients_fancy(v: DiscreteVarifold, nhat: np.ndarray) -> np.ndarray:
    p0 = v.vertices[v.faces[:, 0]]
    p1 = v.vertices[v.faces[:, 1]]
    p2 = v.vertices[v.faces[:, 2]]
    m = v.multiplicity[:, None].astype(np.float64)
    g = np.stack([_cross(nhat, p2 - p1), _cross(nhat, p0 - p2), _cross(nhat, p1 - p0)], axis=1)
    g *= 0.5
    g *= m[:, None]
    return curvature._vertex_sum(v.faces, g, v.num_vertices)


def _enclosed_volume_fancy(v: DiscreteVarifold) -> float:
    nhat, areas = _face_normals_fancy(v)
    cen = v.vertices[v.faces].mean(axis=1)
    return _kernels.fsum((areas * v.multiplicity) * np.einsum("ij,ij->i", cen, nhat)) / 3.0


def _queries(v: DiscreteVarifold, analytic: dict) -> list[np.ndarray]:
    """Centers on and near the support: the closed-form density points and
    seeded vertices, some moved off the surface."""
    rng = np.random.default_rng(29)
    pts = [np.array(p["point"], dtype=np.float64) for p in analytic.get("density_points", [])]
    for i in rng.choice(v.num_vertices, 6, replace=False):
        pts.append(v.vertices[i] + rng.uniform(-0.05, 0.05, 3) * (i % 2))
    return pts


def _same(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("name", list(_MESHES))
def test_take_gathers_keep_the_bits_of_fancy_indexing(monkeypatch, name):
    out = _MESHES[name]()
    v, fresh = out.varifold, dataclasses.replace(out.varifold)
    pts = _queries(v, out.analytic)
    got_links = [blowup.spherical_link(v, x0, r) for x0 in pts for r in (0.3, 0.12)]
    got_dist = [curvature.point_surface_distance(v, x0) for x0 in pts]
    got_field = curvature.mean_curvature(v)

    for a, b in zip(mesh.face_normals(v), _face_normals_fancy(v)):
        assert _same(a, b)
    if name == "torus3":
        assert _same(curvature.enclosed_volume(v), _enclosed_volume_fancy(v))

    monkeypatch.setattr(mesh, "face_normals", _face_normals_fancy)
    monkeypatch.setattr(curvature, "_boundary_conormals", _boundary_conormals_fancy)
    monkeypatch.setattr(curvature, "_area_gradients", _area_gradients_fancy)
    want_field = curvature.mean_curvature(fresh)
    # the distance and the link change nothing but their gathers: the
    # reference runs their own code with each np.take(a, idx, axis=0) as a[idx]
    for module in (curvature, blowup):
        monkeypatch.setattr(module, "np", _FancyNumpy())
    for key in ("H", "vertex_area", "willmore"):
        assert _same(getattr(got_field, key), getattr(want_field, key)), key
    for x0, d in zip(pts, got_dist):
        assert _same(d, curvature.point_surface_distance(fresh, x0))
    for (x0, r), link in zip([(x0, r) for x0 in pts for r in (0.3, 0.12)], got_links):
        want = blowup.spherical_link(fresh, x0, r)
        assert len(link.polylines) == len(want.polylines)
        assert all(_same(a, b) for a, b in zip(link.polylines, want.polylines))
        assert (link.total_length, link.junction_count) == (want.total_length, want.junction_count)
    assert sum(len(link.polylines) for link in got_links) > 0


# ---------------------------------------------------------------------------
# mesh_scale

def _bbox_diagonal(vertices: np.ndarray) -> float:
    d = float(np.linalg.norm(vertices.max(axis=0) - vertices.min(axis=0)))
    return d if d > 0.0 else 1.0


def _cloud(vertices) -> DiscreteVarifold:
    return DiscreteVarifold(vertices, np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.int64))


@st.composite
def _clouds(draw) -> np.ndarray:
    """1-64 vertices of either sign and magnitudes 1e-300 to 1e150: each
    coordinate within ten decades above one base drawn per cloud, so the three
    extents often have like magnitudes and the order of their sum shows. The
    coordinates come from a drawn seed: drawn one by one, 300 clouds took
    about 10 s."""
    n, base = draw(st.integers(1, 64)), draw(st.integers(-300, 140))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signs = rng.choice([-1.0, 1.0], (n, 3))
    return signs * rng.uniform(1.0, 10.0, (n, 3)) * 10.0 ** (base + rng.integers(0, 10, (n, 3)))


@settings(max_examples=300, deadline=None)
@given(vertices=_clouds())
@example(vertices=np.zeros((1, 3)))  # no extent: the scale is 1.0
@example(vertices=np.full((5, 3), -3e-7))
def test_mesh_scale_has_the_bits_of_the_axis0_bounding_box(vertices):
    assert _same(mesh.mesh_scale(_cloud(vertices)), _bbox_diagonal(vertices))
