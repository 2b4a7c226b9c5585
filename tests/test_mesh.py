import dataclasses
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from varifold_lab import _grid, blowup, curvature, generators, mesh
from varifold_lab._kernels import _sq
from varifold_lab.cli import main
from varifold_lab.mesh import DiscreteVarifold, MeshError, make_varifold

from conftest import first_variation_residual, triple_fan, two_triangle_square


def test_make_varifold_defaults_multiplicity_to_one():
    v, f = two_triangle_square()
    var = make_varifold(v, f)
    assert var.multiplicity.tolist() == [1, 1]
    assert var.num_vertices == 4 and var.num_faces == 2


def test_arrays_are_frozen():
    v, f = two_triangle_square()
    var = make_varifold(v, f)
    with pytest.raises(ValueError):
        var.vertices[0, 0] = 5.0


def test_input_views_are_copied_before_freezing():
    sphere = generators.gen_sphere(1.0, 2).varifold
    vbase = np.vstack([[9.0, 9.0, 9.0], sphere.vertices])
    fbase = np.vstack([[0, 1, 2], sphere.faces])
    mbase = np.concatenate([[1], sphere.multiplicity])
    ref = make_varifold(vbase[1:].copy(), fbase[1:].copy(), mbase[1:].copy())
    var = make_varifold(vbase[1:], fbase[1:], mbase[1:])
    h = var.curvature.H.copy()
    vbase[1:] *= 2.0
    fbase[1:] = fbase[1:, ::-1]
    mbase[1:] = 3
    np.testing.assert_array_equal(var.vertices, ref.vertices)
    np.testing.assert_array_equal(var.faces, ref.faces)
    np.testing.assert_array_equal(var.multiplicity, ref.multiplicity)
    np.testing.assert_array_equal(var.curvature.H, h)
    np.testing.assert_array_equal(var.curvature.H, ref.curvature.H)
    np.testing.assert_array_equal(var.topology.edges, ref.topology.edges)


def _fresh(v: DiscreteVarifold) -> DiscreteVarifold:
    """A new instance over the same arrays, so nothing is cached on it yet."""
    return dataclasses.replace(v)


@pytest.mark.parametrize("build", [
    lambda: generators.gen_sphere(1.0, 2).varifold,
    lambda: generators.gen_cap(1.0, 1.2, 2).varifold,
])
def test_topology_and_curvature_are_built_once_per_mesh(monkeypatch, build):
    v = _fresh(build())
    calls = {"edge_topology": 0, "mean_curvature": 0, "build": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    counting(mesh, "edge_topology")
    counting(curvature, "mean_curvature")
    counting(_grid.FaceGrid, "build")
    closed = len(v.topology.boundary_edges) == 0
    curvature.willmore_energy(v)
    if closed:
        blowup.li_yau_check(v, v.vertices[:2])
        curvature.euler_characteristic(v)
    else:
        with pytest.raises(MeshError, match="closed"):
            blowup.li_yau_check(v, v.vertices[:2])
        with pytest.raises(MeshError, match="not closed"):
            curvature.euler_characteristic(v)
    curvature.second_fundamental_norm(v)
    mesh.boundary_measure(v)
    first_variation_residual(v, v.vertices)
    for i in range(50):
        blowup.monotonicity_check(v, v.vertices[i], 0.1, 0.4)
        blowup.spherical_link(v, v.vertices[i], 0.3)
        curvature.point_surface_distance(v, v.vertices[i])
    assert calls == {"edge_topology": 1, "mean_curvature": 1, "build": 1}


def test_cached_arrays_are_read_only(sphere3):
    v = _fresh(sphere3.varifold)
    topo, field, grid = v.topology, v.curvature, v.face_grid
    arrays = [getattr(topo, f.name) for f in dataclasses.fields(topo)]
    arrays += [getattr(field, f.name) for f in dataclasses.fields(field)
               if getattr(field, f.name) is not None]
    arrays.append(curvature.second_fundamental_norm(v).H)  # shares the cached array
    arrays += [getattr(grid, f.name) for f in dataclasses.fields(grid)
               if isinstance(getattr(grid, f.name), np.ndarray)]
    assert len(arrays) == 20
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    assert v.topology is topo and v.curvature is field and v.face_grid is grid


def test_cached_curvature_is_mean_curvature(double_bubble4):
    v = double_bubble4.varifold
    fresh = curvature.mean_curvature(v)
    for f in dataclasses.fields(fresh):
        a, b = getattr(fresh, f.name), getattr(v.curvature, f.name)
        if a is None:
            assert b is None
        else:
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


def test_new_meshes_get_fresh_caches(sphere3):
    v = sphere3.varifold
    finer = mesh.refine(v)
    assert finer.topology is not v.topology
    assert len(finer.topology.edges) == 4 * len(v.topology.edges)
    scaled = dataclasses.replace(v, vertices=2 * v.vertices)
    assert scaled.topology is not v.topology
    np.testing.assert_array_equal(scaled.topology.edges, v.topology.edges)
    assert scaled.curvature is not v.curvature
    np.testing.assert_allclose(scaled.curvature.H, 0.5 * v.curvature.H, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(scaled.curvature.vertex_area, 4 * v.curvature.vertex_area, rtol=1e-12)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda v, f, m: (v, [[0, 1, 9]], m[:1]), "out of range"),
        (lambda v, f, m: (v, [[0, 1, 1]], m[:1]), "repeats a vertex"),
        (lambda v, f, m: (v, f, [1, 0]), "multiplicity < 1"),
        (lambda v, f, m: (np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]]), [[0, 1, 2]], m[:1]),
         "degenerate"),
        (lambda v, f, m: (v * np.nan, f, m), "non-finite"),
        (lambda v, f, m: (v, f, m[:1]), "does not match"),
    ],
)
def test_validate_rejects_bad_meshes(mutate, fragment):
    v, f = two_triangle_square()
    bad_v, bad_f, bad_m = mutate(v, f, np.array([1, 1]))
    with pytest.raises(MeshError, match=fragment):
        make_varifold(bad_v, bad_f, bad_m)


def test_make_varifold_rejects_face_rows_that_are_not_triples():
    v, _ = two_triangle_square()
    with pytest.raises(MeshError, match=r"faces must be \(F, 3\)"):
        make_varifold(v, [[0, 1], [2, 0], [1, 2]])


def test_make_varifold_rejects_vertices_that_are_not_triples():
    v, f = two_triangle_square()
    with pytest.raises(MeshError, match=r"^vertices must be \(V, 3\), got \(4, 2\)$"):
        make_varifold(v[:, :2], f)


def test_make_varifold_accepts_no_faces():
    v, _ = two_triangle_square()
    var = make_varifold(v, [])
    assert var.faces.shape == (0, 3) and var.num_faces == 0


_TRIANGLE = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]


@pytest.mark.parametrize("args, kwargs, message", [
    ((_TRIANGLE, [[0, 1, 2.7]]), {}, "faces must hold integers, not float64"),
    ((_TRIANGLE, [[0, 1, 2]]), {"multiplicity": [1.9]}, "multiplicity must hold integers, not float64"),
    (([[True, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]]), {}, "vertices must hold numbers, not booleans"),
    ((_TRIANGLE, [[0, 1, True]]), {}, "faces must hold integers, not booleans"),
    ((_TRIANGLE, [[0, 1, 2]]), {"face_patches": [True]}, "face_patches must hold integers, not booleans"),
    ((np.array(_TRIANGLE, dtype=bool), [[0, 1, 2]]), {}, "vertices must hold numbers, not bool"),
    ((_TRIANGLE, np.array([[0.0, 1.0, 2.0]])), {}, "faces must hold integers, not float64"),
    ((_TRIANGLE, [[0, 1, 2]]), {"multiplicity": [[1]]},
     r"multiplicity shape \(1, 1\) does not match \(F,\) = \(1,\)"),
    ((_TRIANGLE, [[0, 1, 2]]), {"multiplicity": [[]]},
     r"multiplicity shape \(1, 0\) does not match \(F,\) = \(1,\)"),
    ((_TRIANGLE, [[0, 1, 2]]), {"face_patches": 0},
     r"face_patches shape \(\) does not match \(F,\) = \(1,\)"),
    ((_TRIANGLE, [[0, 1, 2]]), {"face_patches": [[0]]},
     r"face_patches shape \(1, 1\) does not match \(F,\) = \(1,\)"),
], ids=["float-face", "float-multiplicity", "bool-vertex", "bool-face", "bool-patch",
        "bool-vertex-array", "float-face-array", "column-multiplicity", "empty-rows-multiplicity",
        "scalar-patch", "column-patch"])
def test_make_varifold_coerces_nothing(args, kwargs, message):
    with pytest.raises(MeshError, match=f"^{message}$"):
        make_varifold(*args, **kwargs)


def test_make_varifold_takes_integer_and_float_arrays_of_any_width():
    v = make_varifold(np.array(_TRIANGLE, dtype=np.float32), np.array([[0, 1, 2]], dtype=np.uint8),
                      np.array([3], dtype=np.int32), face_patches=np.array([7], dtype=np.int16))
    assert (v.vertices.dtype, v.faces.dtype, v.multiplicity.dtype, v.face_patches.dtype) == (
        np.float64, np.int64, np.int64, np.int64)
    assert v.faces.tolist() == [[0, 1, 2]] and v.multiplicity.tolist() == [3]


def test_total_mass_counts_multiplicity():
    vertices = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    faces = np.array([[0, 1, 2]])
    assert mesh.total_mass(make_varifold(vertices, faces)) == pytest.approx(0.5)
    doubled = make_varifold(vertices, faces, np.array([2]))
    assert mesh.total_mass(doubled) == pytest.approx(1.0)


def test_edge_topology_square():
    var = make_varifold(*two_triangle_square())
    topo = mesh.edge_topology(var)
    assert len(topo.edges) == 5
    assert len(topo.boundary_edges) == 4
    assert len(topo.interior_edges) == 1
    assert len(topo.junction_edges) == 0
    assert topo.boundary_vertex_mask.all()  # every vertex touches the rim


def test_edge_topology_without_boundary_or_junction_edges(sphere3):
    # recorded while empty edge classes took a special case
    for v in (sphere3.varifold, make_varifold(*two_triangle_square())):
        topo = mesh.edge_topology(v)
        assert (topo.junction_edges.shape, topo.junction_edges.dtype) == ((0,), np.int64)
        assert topo.junction_vertex_mask.dtype == bool
        assert topo.junction_vertex_mask.shape == (v.num_vertices,) and not topo.junction_vertex_mask.any()
    topo = sphere3.varifold.topology
    assert (topo.boundary_edges.shape, topo.boundary_edges.dtype) == ((0,), np.int64)
    assert topo.boundary_vertex_mask.shape == (642,) and not topo.boundary_vertex_mask.any()


def test_edge_topology_triple_junction():
    var = make_varifold(*triple_fan())
    topo = mesh.edge_topology(var)
    assert len(topo.junction_edges) == 1
    shared = topo.edges[topo.junction_edges[0]]
    assert sorted(shared.tolist()) == [0, 1]
    i = topo.junction_edges[0]
    assert len(topo.inc_faces[topo.offsets[i]:topo.offsets[i + 1]]) == 3
    assert topo.junction_vertex_mask[[0, 1]].all()
    assert not topo.junction_vertex_mask[2:].any()


def test_refine_quadruples_faces_and_preserves_flat_mass():
    var = make_varifold(*two_triangle_square())
    fine = mesh.refine(var)
    assert fine.num_faces == 4 * var.num_faces
    assert mesh.total_mass(fine) == pytest.approx(mesh.total_mass(var), abs=1e-14)


def _edge_oracle(faces):
    """Independent topology: sorted vertex pair -> [(face, +1 if traversed lo->hi)]."""
    inc = {}
    for fi, tri in enumerate(faces.tolist()):
        for k in range(3):
            p, q = tri[k], tri[(k + 1) % 3]
            inc.setdefault((min(p, q), max(p, q)), []).append((fi, 1 if p < q else -1))
    return inc


def _double_bubble3():
    return generators.gen_double_bubble(0.7, 1.0, 3).varifold


@pytest.mark.parametrize(
    "build",
    [lambda: make_varifold(*triple_fan()), _double_bubble3,
     lambda: generators.gen_torus(2.0, 0.7, 3).varifold],
    ids=["triple_fan", "double_bubble3", "torus3"],
)
def test_edge_topology_matches_dict_oracle(build):
    var = build()
    topo = mesh.edge_topology(var)
    oracle = _edge_oracle(var.faces)
    keys = sorted(oracle)
    assert topo.edges.tolist() == [list(k) for k in keys]
    assert topo.counts.tolist() == [len(oracle[k]) for k in keys]
    for i, k in enumerate(keys):
        lo, hi = topo.offsets[i], topo.offsets[i + 1]
        got = list(zip(topo.inc_faces[lo:hi].tolist(), topo.inc_signs[lo:hi].tolist()))
        assert got == oracle[k]


def test_refine_places_midpoints_on_their_parent_edges(torus3):
    var = torus3.varifold
    fine = mesh.refine(var)
    corners = var.vertices[var.faces]  # (F, 3, 3)
    child = fine.vertices[fine.faces[::4]]  # corner-0 children [a, mab, mca]
    np.testing.assert_array_equal(child[:, 1], 0.5 * (corners[:, 0] + corners[:, 1]))
    np.testing.assert_array_equal(child[:, 2], 0.5 * (corners[:, 2] + corners[:, 0]))


def test_refine_lays_out_each_faces_children_in_four_rows(torus3):
    var = torus3.varifold
    kids = mesh.refine(var).faces.reshape(-1, 4, 3)  # kids[f] = rows 4f..4f+3
    a, b, c = var.faces.T
    ab, bc, ca = kids[:, 3].T
    for f in range(var.num_faces):
        assert kids[f].tolist() == [[a[f], ab[f], ca[f]], [b[f], bc[f], ab[f]],
                                    [c[f], ca[f], bc[f]], [ab[f], bc[f], ca[f]]]
    met = np.stack([ab, bc, ca], axis=1).ravel()  # midpoint ids, half-edges in the order met
    ids, first = np.unique(met, return_index=True)
    assert ids[0] == var.num_vertices and np.all(np.diff(ids) == 1)
    assert np.all(np.diff(first) > 0)  # midpoints numbered in first-met order


def test_refine_reads_no_topology(torus3):
    var = _fresh(torus3.varifold)
    mesh.refine(var)
    assert "topology" not in vars(var)


@pytest.mark.parametrize("fixture, chi", [("sphere3", 2), ("torus3", 0)])
def test_refine_keeps_euler_characteristic(request, fixture, chi):
    fine = mesh.refine(request.getfixturevalue(fixture).varifold)
    assert curvature.euler_characteristic(fine).chi == chi


def test_refine_doubles_boundary_edges():
    var = make_varifold(*two_triangle_square())
    before = len(mesh.edge_topology(var).boundary_edges)
    assert len(mesh.edge_topology(mesh.refine(var)).boundary_edges) == 2 * before


@pytest.mark.parametrize(
    "build", [lambda: make_varifold(*triple_fan()), _double_bubble3],
    ids=["triple_fan", "double_bubble3"],
)
def test_refine_doubles_junction_edges(build):
    var = build()
    before = len(mesh.edge_topology(var).junction_edges)
    assert before > 0
    assert len(mesh.edge_topology(mesh.refine(var)).junction_edges) == 2 * before


def test_save_load_roundtrip(tmp_path, sphere3):
    path = tmp_path / "s.json"
    mesh.save_varifold(sphere3.varifold, str(path), analytic=sphere3.analytic)
    var, analytic = mesh.load_mesh_file(str(path))
    np.testing.assert_array_equal(var.faces, sphere3.varifold.faces)
    np.testing.assert_allclose(var.vertices, sphere3.varifold.vertices, atol=0)
    assert analytic["willmore_energy"] == pytest.approx(4 * math.pi)


def _write_square(path, **overrides):
    v, f = two_triangle_square()
    doc = {"vertices": v.tolist(), "faces": f.tolist(), "multiplicity": [1, 1],
           "oriented": True}
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"multiplicity": [1, 1.7]}, "multiplicity"),
        ({"faces": [[0, 1, 2.9], [0, 2, 3]]}, "faces"),
        ({"oriented": "false"}, "oriented"),
        ({"faces": [[0, 1], [2, 0], [1, 2]]}, "faces"),
    ],
    ids=["fractional_multiplicity", "fractional_face_index", "string_oriented",
         "two_index_faces"],
)
def test_load_rejects_values_it_would_have_to_coerce(tmp_path, capsys, overrides, key):
    path = _write_square(tmp_path / "bad.json", **overrides)
    with pytest.raises(MeshError, match=f"'{key}'"):
        mesh.load_mesh_file(path)
    assert main(["analyze", path, "--energy"]) == 2
    assert f"'{key}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, key, flag",
    [
        ({"vertices": [[0, 0, 0], [1, 0, 0], [True, 1, 0], [0, 1, 0]]}, "vertices", "--boundary"),
        ({"faces": [[0, True, 2], [0, 2, 3]]}, "faces", "--energy"),
        ({"multiplicity": [1, True]}, "multiplicity", "--energy"),
        ({"face_patches": [False, 3]}, "face_patches", "--energy"),
    ],
    ids=["vertices", "faces", "multiplicity", "face_patches"],
)
def test_load_rejects_booleans_among_numbers(tmp_path, capsys, overrides, key, flag):
    path = _write_square(tmp_path / "bad.json", **overrides)
    with pytest.raises(MeshError, match=f"'{key}' must hold .* not booleans"):
        mesh.load_mesh_file(path)
    assert main(["analyze", path, flag]) == 2
    assert f"'{key}' must hold" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, key, shape",
    [
        ({"multiplicity": [[1], [2]]}, "multiplicity", "(2, 1)"),
        ({"multiplicity": [[], []]}, "multiplicity", "(2, 0)"),
        ({"face_patches": 0}, "face_patches", "()"),
        ({"face_patches": [[0], [1]]}, "face_patches", "(2, 1)"),
    ],
    ids=["column-multiplicity", "empty-rows-multiplicity", "scalar-patch", "column-patch"],
)
def test_load_rejects_per_face_arrays_of_another_shape(tmp_path, capsys, overrides, key, shape):
    path = _write_square(tmp_path / "bad.json", **overrides)
    message = f"{key} shape {shape} does not match (F,) = (2,)"
    with pytest.raises(MeshError, match=f"^{re.escape(message)}$"):
        mesh.load_mesh_file(path)
    assert main(["analyze", path, "--energy"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_load_keeps_face_patches(tmp_path):
    var, _ = mesh.load_mesh_file(_write_square(tmp_path / "p.json", face_patches=[0, 3]))
    assert var.face_patches.tolist() == [0, 3]
    assert var.oriented is True


def test_mesh_scale_is_bbox_diagonal():
    vertices = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    var = make_varifold(vertices, np.array([[0, 1, 2]]))
    assert mesh.mesh_scale(var) == pytest.approx(math.sqrt(2))


def test_an_empty_mesh_validates_with_unit_scale_and_no_mass():
    var = make_varifold(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    mesh.validate(var)
    assert (var.num_vertices, var.num_faces) == (0, 0)
    assert mesh.mesh_scale(var) == 1.0
    assert mesh.total_mass(var) == 0.0


# ---------------------------------------------------------------------------
# face grid

_coord = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def _soups(draw) -> DiscreteVarifold:
    """Triangle soups of 1-12 faces, some flat (one axis of zero extent)."""
    nv = draw(st.integers(3, 10))
    pts = np.array(draw(st.lists(st.tuples(_coord, _coord, _coord), min_size=nv, max_size=nv)))
    if draw(st.booleans()):
        pts[:, draw(st.integers(0, 2))] = draw(_coord)
    nf = draw(st.integers(1, 12))
    faces = [draw(st.permutations(range(nv)))[:3] for _ in range(nf)]
    return DiscreteVarifold(pts, faces, np.ones(nf, dtype=np.int64))


@st.composite
def _scattered(draw) -> DiscreteVarifold:
    """Soups of 1-40 triangles of sizes 1e-3 to 1, scattered in a cube, so that
    the grid has many cells and the faces in one cell differ in spread."""
    nf = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = np.exp(rng.uniform(math.log(1e-3), 0.0, size=(nf, 1, 1)))
    tri = rng.uniform(-10.0, 10.0, size=(nf, 1, 3)) + size * rng.normal(size=(nf, 3, 3))
    return DiscreteVarifold(tri.reshape(-1, 3), np.arange(3 * nf).reshape(-1, 3), np.ones(nf, dtype=np.int64))


def _sphere_distances(v: DiscreteVarifold, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Brute force: each face's centroid distance from x0, and its spread."""
    corners = v.vertices[v.faces]
    cen = corners.mean(axis=1)
    spread = np.linalg.norm(corners - cen[:, None, :], axis=2).max(axis=1)
    return np.linalg.norm(cen - x0, axis=1), spread


def _near_faces(v: DiscreteVarifold, x0: np.ndarray, r: float, inner: float = 0.0,
                slack: float = 0.0) -> set[int]:
    """Brute force: the faces whose bounding sphere about the centroid meets the
    shell ``inner <= |x - x0| <= r``, widened by ``slack`` on both sides."""
    d, spread = _sphere_distances(v, x0)
    return set(np.flatnonzero((d <= r + spread + slack) & (d + spread >= inner - slack)).tolist())


#: a soup, a center near it or far from it, the outer radius r, the inner radius
#: t·r, and k: None, or the shell is made tangent to the k-th nearest face's
#: bounding sphere, where round-off decides
_query_draws = dict(v=_soups() | _scattered(),
                    x0=st.tuples(*[st.floats(-40.0, 40.0)] * 3) | st.tuples(*[_coord] * 3),
                    r=st.floats(1e-6, 1e4, allow_nan=False), t=st.floats(0.0, 1.0),
                    k=st.none() | st.integers(0, 11))


def _shell(v: DiscreteVarifold, x0: np.ndarray, r: float, t: float, k: int | None) -> tuple[float, float]:
    """(r, inner) for a draw of ``_query_draws``."""
    if k is None:
        return r, t * r
    d, s = _sphere_distances(v, x0)
    k = np.argsort(d - s, kind="stable")[k % v.num_faces]
    return (d[k] - s[k], 0.0) if d[k] > s[k] else (max(r, d[k] + s[k]), d[k] + s[k])


@settings(max_examples=300, deadline=None)
@given(**_query_draws)
def test_face_grid_query_holds_every_face_near_the_ball(v, x0, r, t, k):
    x0 = np.array(x0)
    r, inner = _shell(v, x0, r, t, k)
    got = v.face_grid.query(x0, r, inner=inner)
    assert (np.diff(got) > 0).all()
    assert _near_faces(v, x0, r, inner) <= set(got.tolist())


@settings(max_examples=300, deadline=None)
@given(**_query_draws)
def test_face_grid_query_returns_only_faces_near_the_shell(v, x0, r, t, k):
    """Unless the query box covers the whole grid (and every face is returned
    untested), each face returned has a bounding sphere that meets the shell."""
    x0 = np.array(x0)
    r, inner = _shell(v, x0, r, t, k)
    got = v.face_grid.query(x0, r, inner=inner)
    if len(got) < v.num_faces:
        slack = 1e-6 * (r + np.abs(x0).max() + np.abs(v.vertices).max())
        assert set(got.tolist()) <= _near_faces(v, x0, r, inner, slack)


@pytest.mark.parametrize("r", [1e-9, 0.2, 1e6, math.inf])
def test_face_grid_single_face_and_flat_mesh(r):
    one = make_varifold([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    assert one.face_grid.query([0.3, 0.3, 0.0], r).tolist() == [0]
    flat = generators.gen_flat_disk(1.0, 2).varifold
    assert np.ptp(flat.vertices[:, 2]) == 0.0
    x0 = np.array([0.2, -0.1, 0.0])
    got = flat.face_grid.query(x0, r)
    assert _near_faces(flat, x0, r) <= set(got.tolist())
    far = flat.face_grid.query(x0 + [0.0, 0.0, 5.0], r)
    assert len(far) == (flat.num_faces if r >= 4.0 else 0)


def _face_grid_axis0(v: DiscreteVarifold) -> _grid.FaceGrid:
    """The face grid as it was built with axis-0 reductions: three corner
    gathers, their sum and the largest of three spreads, and the origin and
    cell counts from ``min``/``max`` over the centroid rows."""
    a, b, c = (v.vertices[v.faces[:, k]] for k in range(3))
    cen = (a + b + c) / 3.0
    spreads = np.sqrt(np.maximum(np.maximum(_sq(a - cen), _sq(b - cen)), _sq(c - cen)))
    if not len(cen):
        return _grid.FaceGrid(np.zeros(3), 1.0, np.zeros(3, dtype=np.int32), np.zeros((0, 3), dtype=np.int32),
                              np.zeros(0, dtype=np.int32), 0.0, cen, spreads)
    origin = cen.min(axis=0)
    extent = float((cen.max(axis=0) - origin).max())
    pitch = max(_grid._PITCH_SPREADS * float(spreads.mean()), extent / (_grid._MAX_CELLS - 1))
    if not pitch > 0.0:
        pitch = 1.0
    ijk = np.floor((cen - origin) / pitch).astype(np.int64)
    n = ijk.max(axis=0) + 1
    keys, face_cell = np.unique((ijk[:, 0] * n[1] + ijk[:, 1]) * n[2] + ijk[:, 2], return_inverse=True)
    cells = np.stack([keys // (n[1] * n[2]), keys // n[2] % n[1], keys % n[2]], axis=1)
    return _grid.FaceGrid(origin, pitch, n.astype(np.int32), cells.astype(np.int32),
                          face_cell.astype(np.int32), float(spreads.max()), cen, spreads)


@pytest.mark.parametrize("make", [
    lambda: generators.gen_triple_bubble(3).varifold,
    lambda: generators.gen_double_bubble(0.7, 1.0, 4).varifold,
    lambda: make_varifold(np.eye(3), np.zeros((0, 3), dtype=np.int64)),
], ids=["triple_bubble3", "double_bubble4", "no-faces"])
def test_face_grid_build_matches_the_axis0_oracle(make):
    v = make()
    got, want = _grid.FaceGrid.build(v), _face_grid_axis0(v)
    for f in dataclasses.fields(_grid.FaceGrid):
        g, w = np.asarray(getattr(got, f.name)), np.asarray(getattr(want, f.name))
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), f.name


def test_face_grid_large_or_unbounded_balls_give_every_face(sphere3):
    grid = sphere3.varifold.face_grid
    every = np.arange(sphere3.varifold.num_faces)
    for x0, r in [((0.0, 0.0, 0.0), 5.0), ((30.0, -2.0, 7.0), 40.0), ((0.0, 0.0, 0.0), math.inf),
                  ((math.nan, 0.0, 0.0), 0.1)]:
        np.testing.assert_array_equal(grid.query(np.array(x0), r), every)
    assert len(grid.query(np.array([30.0, -2.0, 7.0]), 1.0)) == 0


@settings(max_examples=150, deadline=None)
@given(v=_soups(), x0=st.tuples(*[st.floats(-40.0, 40.0)] * 3))
def test_point_surface_distance_matches_a_scan_of_every_face(v, x0):
    try:
        mesh.validate(v)
    except MeshError:
        assume(False)  # degenerate faces have no closest point
    x0 = np.array(x0)
    want = curvature._distance_to_faces(v.vertices, v.faces, x0)
    assert float(curvature.point_surface_distance(v, x0)).hex() == float(want).hex()


def _closest_point_on_triangle(p, a, b, c) -> list[float]:
    """Ericson's closest point on triangle abc to p (Real-Time Collision
    Detection, 5.1.5), one Voronoi region test at a time, in scalar floats."""
    def sub(u, w):
        return [u[0] - w[0], u[1] - w[1], u[2] - w[2]]

    def dot(u, w):
        return u[0] * w[0] + u[1] * w[1] + u[2] * w[2]

    def along(o, u, t):
        return [o[0] + t * u[0], o[1] + t * u[1], o[2] + t * u[2]]

    ab, ac, ap = sub(b, a), sub(c, a), sub(p, a)
    d1, d2 = dot(ab, ap), dot(ac, ap)
    if d1 <= 0 and d2 <= 0:
        return list(a)
    bp = sub(p, b)
    d3, d4 = dot(ab, bp), dot(ac, bp)
    if d3 >= 0 and d4 <= d3:
        return list(b)
    vc = d1 * d4 - d3 * d2
    if vc <= 0 and d1 >= 0 and d3 <= 0:
        return along(a, ab, d1 / (d1 - d3))
    cp = sub(p, c)
    d5, d6 = dot(ab, cp), dot(ac, cp)
    if d6 >= 0 and d5 <= d6:
        return list(c)
    vb = d5 * d2 - d1 * d6
    if vb <= 0 and d2 >= 0 and d6 <= 0:
        return along(a, ac, d2 / (d2 - d6))
    va = d3 * d6 - d5 * d4
    if va <= 0 and d4 - d3 >= 0 and d5 - d6 >= 0:
        return along(b, sub(c, b), (d4 - d3) / ((d4 - d3) + (d5 - d6)))
    denom = va + vb + vc
    return along(along(a, ab, vb / denom), ac, vc / denom)


def _oracle_distance(v: DiscreteVarifold, p) -> float:
    p = [float(x) for x in p]
    return min(math.dist(p, _closest_point_on_triangle(p, *v.vertices[f].tolist())) for f in v.faces)


@settings(max_examples=150, deadline=None)
@given(v=_soups(), x0=st.tuples(*[st.floats(-40.0, 40.0)] * 3))
def test_point_surface_distance_matches_the_closest_point_oracle(v, x0):
    try:
        mesh.validate(v)
    except MeshError:
        assume(False)
    got = curvature.point_surface_distance(v, np.array(x0))
    scale = max(1.0, max(map(abs, x0)), float(np.abs(v.vertices).max()))
    assert abs(got - _oracle_distance(v, x0)) <= 1e-9 * scale


def test_point_surface_distance_beyond_an_edge_is_not_the_plane_distance(sphere3):
    # the projection of (0.6, 0.6, 0) lies in the triangle's plane beyond edge
    # bc, where each weight alone is in [0, 1]; the nearest point is (0.5, 0.5, 0)
    tri = make_varifold([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    p = np.array([0.6, 0.6, 0.0])
    assert curvature.point_surface_distance(tri, p) == pytest.approx(math.sqrt(0.02), rel=1e-15)
    assert curvature.point_surface_distance(tri, p) == pytest.approx(_oracle_distance(tri, p), rel=1e-15)
    # the icosphere lies inside the unit sphere, so no point is nearer than |p| - 1
    v, p = sphere3.varifold, np.array([40.0, -30.0, 12.0])
    d = curvature.point_surface_distance(v, p)
    assert d >= math.sqrt(40.0**2 + 30.0**2 + 12.0**2) - 1.0
    assert d == pytest.approx(_oracle_distance(v, p), rel=1e-14)


def test_zero_area_face_at_a_tiny_scale_is_degenerate():
    # hypothesis draw (seed 54): the area 0 was compared with 1e-14 * scale**2,
    # which underflows to 0, and point_surface_distance then divided by zero
    with pytest.raises(MeshError, match="face 0 is degenerate"):
        make_varifold([[0, 0, 0], [0, 0, 0], [0, 0, 2.03584332e-156]], [[0, 1, 2]])


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_pair.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
        "def test_passes():\n"
        "    pass\n"
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout[-2000:]
