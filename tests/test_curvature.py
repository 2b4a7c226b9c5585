import hashlib
import math

import numpy as np
import pytest

from varifold_lab import curvature, generators, mesh
from varifold_lab.mesh import DiscreteVarifold, MeshError, make_varifold

from conftest import first_variation_residual, triple_fan


def test_sphere_mean_curvature_magnitude(sphere4):
    # |H| = 2/R on the unit sphere. Pointwise values at the 12 valence-5
    # vertices of the icosphere stay ~15% off at every level (the lumped
    # estimator does not converge in sup norm at irregular vertices); the
    # bulk statistics and the energy do converge.
    f = curvature.mean_curvature(sphere4.varifold)
    mags = np.linalg.norm(f.H, axis=1)
    assert np.median(mags) == pytest.approx(2.0, abs=5e-3)
    assert mags.mean() == pytest.approx(2.0, abs=2e-3)
    assert np.count_nonzero(np.abs(mags - 2.0) > 0.05) <= 12


def test_sphere_mean_curvature_points_inward(sphere4):
    v = sphere4.varifold
    f = curvature.mean_curvature(v)
    assert (np.einsum("ij,ij->i", f.H, v.vertices) < 0).all()


def test_sphere_willmore(sphere4):
    w = curvature.willmore_energy(sphere4.varifold)
    assert w == pytest.approx(4 * math.pi, rel=5e-3)


@pytest.mark.parametrize("lam", [0.1, 10.0])
def test_willmore_scale_invariance(sphere3, lam):
    v = sphere3.varifold
    scaled = DiscreteVarifold(lam * v.vertices, v.faces, v.multiplicity, v.oriented)
    assert curvature.willmore_energy(scaled) == pytest.approx(
        curvature.willmore_energy(v), rel=1e-9
    )


def test_helfrich_at_zero_equals_willmore(sphere3):
    v = sphere3.varifold
    assert curvature.helfrich_energy(v, 0.0) == curvature.willmore_energy(v)


def test_helfrich_needs_orientation():
    vertices, faces = triple_fan()
    var = make_varifold(vertices, faces)
    with pytest.raises(MeshError):
        curvature.helfrich_energy(var, 0.0)


def test_helfrich_names_the_first_edge_where_windings_disagree():
    v = generators.gen_sphere(1.0, 2).varifold
    faces = v.faces.copy()
    faces[0] = faces[0, ::-1]
    flipped = make_varifold(v.vertices, faces, oriented=True)
    with pytest.raises(MeshError, match=r"^face windings disagree across edge \(0, 42\)$"):
        curvature.helfrich_energy(flipped, 0.0)


def test_helfrich_on_one_oriented_triangle_is_zero():
    # no interior edge and only boundary vertices; recorded while an empty
    # interior took a special case
    tri = make_varifold([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]], oriented=True)
    assert curvature.helfrich_energy(tri, 0.0) == 0.0
    assert curvature.helfrich_energy(tri, 1.0) == 0.0


def test_gauss_curvature_on_sphere(sphere4):
    f = curvature.second_fundamental_norm(sphere4.varifold)
    assert np.nanmean(f.K) == pytest.approx(1.0, abs=0.01)


def test_gauss_defects_sum_to_2pi_chi(sphere3, torus3):
    for v, chi in ((sphere3.varifold, 2), (torus3.varifold, 0)):
        f = curvature.second_fundamental_norm(v)
        assert math.fsum(f.angle_defect) == pytest.approx(2 * math.pi * chi, abs=1e-9)


def test_gauss_relation_residual_shrinks_under_refinement():
    meds = []
    for level in (2, 3, 4):
        f = curvature.second_fundamental_norm(generators.gen_sphere(1.0, level).varifold)
        ok = ~np.isnan(f.gauss_relation_residual)
        meds.append(float(np.median(f.gauss_relation_residual[ok])))
    assert meds[1] / meds[0] < 0.7 and meds[2] / meds[1] < 0.7


def test_second_fundamental_form_on_sphere(sphere4):
    f = curvature.second_fundamental_norm(sphere4.varifold)
    ok = ~np.isnan(f.B2)
    assert np.median(f.B2[ok]) == pytest.approx(2.0, abs=0.05)  # |B|² = 2 on S²


def _vertex_normals_loop(v, nhat, areas):
    """Per-vertex loop oracle for curvature._vertex_normals_unoriented."""
    nv = v.num_vertices
    order = np.argsort(v.faces.ravel(), kind="stable")
    vert_of = v.faces.ravel()[order]
    face_of = order // 3
    starts = np.searchsorted(vert_of, np.arange(nv))
    ends = np.searchsorted(vert_of, np.arange(nv) + 1)
    out = np.zeros((nv, 3))
    for p in range(nv):
        fs = face_of[starts[p]:ends[p]]
        if len(fs) == 0:
            continue
        ref = nhat[fs[0]]
        sgn = np.where(nhat[fs] @ ref >= 0.0, 1.0, -1.0)
        acc = (nhat[fs] * (areas[fs] * sgn)[:, None]).sum(axis=0)
        nrm = np.linalg.norm(acc)
        out[p] = acc / nrm if nrm > 0 else ref
    return out


@pytest.mark.parametrize("fixture", ["sphere3", "torus3", "double_bubble4"])
def test_vertex_normals_match_the_loop_oracle(request, monkeypatch, fixture):
    v = request.getfixturevalue(fixture).varifold
    fn = mesh.face_normals(v)
    np.testing.assert_allclose(curvature._vertex_normals_unoriented(v, *fn), _vertex_normals_loop(v, *fn),
                               rtol=0, atol=1e-14)
    b2 = curvature.second_fundamental_norm(v).B2
    monkeypatch.setattr(curvature, "_vertex_normals_unoriented", _vertex_normals_loop)
    np.testing.assert_allclose(b2, curvature.second_fundamental_norm(v).B2, rtol=0, atol=1e-12)


def test_vertex_normals_flip_faces_against_the_first_and_skip_unused_vertices():
    # Faces 0 (normal +z) and 1 (normal -z) share vertices 0 and 2, whose
    # first face is face 0; vertex 3 is on face 1 only; vertex 4 is unused.
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [5, 5, 5]], dtype=float)
    v = make_varifold(verts, [[0, 1, 2], [0, 3, 2]])
    fn = mesh.face_normals(v)
    n = curvature._vertex_normals_unoriented(v, *fn)
    np.testing.assert_array_equal(n[:4], [[0, 0, 1], [0, 0, 1], [0, 0, 1], [0, 0, -1]])
    np.testing.assert_array_equal(n[4], 0.0)
    np.testing.assert_array_equal(n, _vertex_normals_loop(v, *fn))


def test_face_normals_are_computed_once_per_mesh(monkeypatch):
    cap = generators.gen_cap(1.0, 1.2, 3).varifold  # open: the conormals run too
    v = DiscreteVarifold(cap.vertices, cap.faces, cap.multiplicity)  # fresh, not yet validated
    calls = []
    face_normals = mesh.face_normals

    def counting(w):
        calls.append(w)
        return face_normals(w)

    monkeypatch.setattr(mesh, "face_normals", counting)
    mesh.validate(v)  # computes its own areas and keeps nothing
    assert len(calls) == 1 and "face_geometry" not in vars(v)
    calls.clear()
    v.curvature
    for fn in (curvature.mean_curvature, curvature.second_fundamental_norm, mesh.total_mass,
               mesh.boundary_measure):
        fn(v)
    assert len(calls) == 1 and calls[0] is v
    for cached, fresh in zip(v.face_geometry, face_normals(v)):
        assert not cached.flags.writeable
        assert cached.tobytes() == fresh.tobytes()


def test_curvature_fields_keep_their_bits():
    # sha256 of each array of second_fundamental_norm on a cap, recorded
    # before the face normals were passed between the helpers
    f = curvature.second_fundamental_norm(generators.gen_cap(1.0, 1.2, 3).varifold)
    want = {
        "H": "894606aa55b32203214cb95aeafa8be2fc3d4082863339f3a39b6df8462ddb93",
        "vertex_area": "7557a20ab597ec0e7c22ae557004de433989baad115d0edb319a839c1f1e32ec",
        "K": "93743b0d6169e0bd4cd35fbbf8620cb19aa0c9d685801b64b9b29241402cb65c",
        "angle_defect": "c62972aef3d517711051f1d1648794fcd39db7541e3eb0f785d12d6743b08411",
        "B2": "3349c6635f818335b0bcf0602b4b04e0c991742207986f2e160a9ba80c026a3a",
        "gauss_relation_residual": "4f6dcd402ab485b389ca7ad80ba1ab56858a47f49a1e1d03263536ba893e7eea",
    }
    assert {k: hashlib.sha256(getattr(f, k).tobytes()).hexdigest() for k in want} == want


def test_willmore_integrand_is_kept_off_the_boundary():
    cap = generators.gen_cap(1.0, 1.2, 3).varifold
    v = make_varifold(np.vstack([cap.vertices, [[3.0, 0.0, 0.0]]]), cap.faces)  # one unused vertex
    f = v.curvature
    off = ~v.topology.boundary_vertex_mask
    off[-1] = False
    h2 = np.einsum("ij,ij->i", f.H, f.H)
    np.testing.assert_array_equal(f.willmore[off], (h2 * f.vertex_area)[off])
    assert (f.willmore[off] > 0).all()
    assert v.topology.boundary_vertex_mask.sum() > 0
    np.testing.assert_array_equal(f.willmore[v.topology.boundary_vertex_mask], 0.0)
    assert f.vertex_area[-1] == 0.0 and f.willmore[-1] == 0.0
    with pytest.raises(ValueError, match="read-only"):
        f.willmore[0] = 1.0
    assert curvature.willmore_energy(v) == 0.25 * math.fsum(f.willmore)


def test_second_fundamental_norm_of_one_triangle():
    # no interior edge and no vertex off the boundary; recorded while both
    # took a special case
    tri = make_varifold([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    f = curvature.second_fundamental_norm(tri)
    np.testing.assert_array_equal(f.H, np.zeros((3, 3)))
    np.testing.assert_array_equal(f.vertex_area, [1 / 6, 1 / 6, 1 / 6])
    np.testing.assert_array_equal(tri.topology.boundary_vertex_mask, [True, True, True])
    np.testing.assert_array_equal(f.angle_defect, [1.5 * math.pi, 1.75 * math.pi, 1.75 * math.pi])
    for a in (f.K, f.B2, f.gauss_relation_residual):
        assert a.shape == (3,) and np.isnan(a).all()


def test_euler_characteristic_sphere(sphere3):
    t = curvature.euler_characteristic(sphere3.varifold)
    assert t.chi == 2 and t.genus == 0 and t.orientable
    assert t.num_vertices - t.num_edges + t.num_faces == 2
    assert abs(t.defect_chi - 2.0) < 1e-9


def test_euler_characteristic_torus(torus3):
    t = curvature.euler_characteristic(torus3.varifold)
    assert t.chi == 0 and t.genus == 1 and t.orientable
    assert abs(t.defect_chi) < 1e-9


def test_euler_characteristic_rejects_junctions():
    var = make_varifold(*triple_fan())
    with pytest.raises(MeshError):
        curvature.euler_characteristic(var)


def test_euler_characteristic_names_the_first_junction_edge_of_a_closed_mesh():
    # the README quick-start's exit: the double bubble is closed but not manifold
    var = generators.gen_double_bubble(0.7, 1.0, 3).varifold
    with pytest.raises(MeshError, match=r"^mesh is not manifold: edge \(0, 1\) has 3\+ faces$"):
        curvature.euler_characteristic(var)


def test_euler_characteristic_of_the_projective_plane():
    # the 6-vertex real projective plane: closed, manifold, not orientable
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
             (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    var = make_varifold(np.random.default_rng(0).standard_normal((6, 3)), faces)
    t = curvature.euler_characteristic(var)
    assert (t.chi, t.defect_chi, t.orientable, t.connected_components, t.genus) == (1, 1.0, False, 1, None)


def test_enclosed_volume_unit_sphere(sphere4):
    vol = curvature.enclosed_volume(sphere4.varifold)
    assert vol == pytest.approx(4 * math.pi / 3, rel=5e-3)


def test_enclosed_volume_translation_invariant(sphere3):
    v = sphere3.varifold
    moved = DiscreteVarifold(v.vertices + np.array([3.0, -1.0, 2.0]), v.faces,
                             v.multiplicity, v.oriented)
    assert curvature.enclosed_volume(moved) == pytest.approx(
        curvature.enclosed_volume(v), abs=1e-9
    )


def test_enclosed_volume_linear_in_multiplicity(sphere3):
    v = sphere3.varifold
    doubled = DiscreteVarifold(v.vertices, v.faces, 2 * v.multiplicity, v.oriented)
    assert curvature.enclosed_volume(doubled) == pytest.approx(
        2 * curvature.enclosed_volume(v), rel=1e-14
    )


def test_enclosed_volume_rejects_open_mesh():
    cap = generators.gen_cap(1.0, 0.8, 2).varifold
    with pytest.raises(MeshError):
        curvature.enclosed_volume(cap)


def test_first_variation_matches_finite_differences(sphere3, rng):
    v = sphere3.varifold
    f = curvature.mean_curvature(v)
    for _ in range(5):
        phi = rng.normal(size=v.vertices.shape)
        phi /= np.abs(phi).max()
        s = math.fsum(np.einsum("ij,ij->i", phi, f.H) * f.vertex_area)
        t = 1e-5
        vp = DiscreteVarifold(v.vertices + t * phi, v.faces, v.multiplicity)
        vm = DiscreteVarifold(v.vertices - t * phi, v.faces, v.multiplicity)
        fd = (mesh.total_mass(vp) - mesh.total_mass(vm)) / (2 * t)
        assert abs(s + fd) < 1e-6 * abs(fd)


def test_first_variation_residual_closed_mesh(sphere3, rng):
    phi = rng.normal(size=sphere3.varifold.vertices.shape)
    assert first_variation_residual(sphere3.varifold, phi) < 1e-10


def test_first_variation_residual_closed_mesh_pinned():
    # recorded while a mesh without boundary edges took a special case
    v = generators.gen_sphere(1.0, 2).varifold
    phi = np.random.default_rng(0).standard_normal(v.vertices.shape)
    assert first_variation_residual(v, phi) == 0.0


def test_first_variation_residual_flat_disk(rng):
    disk = generators.gen_flat_disk(1.0, 3).varifold
    for _ in range(3):
        phi = rng.normal(size=disk.vertices.shape)
        assert first_variation_residual(disk, phi) < 1e-10


def test_first_variation_residual_accepts_callable(sphere3):
    res = first_variation_residual(sphere3.varifold, lambda x: x.copy())
    assert res < 1e-10


def test_junction_residual_shrinks_under_refinement():
    # The untreated junction force is the conormal sum of the three sheets,
    # which balances in the limit; probe it with the dilation field phi = x.
    vals = []
    for level in (3, 4):
        v = generators.gen_double_bubble(0.7, 1.0, level).varifold
        vals.append(first_variation_residual(v, v.vertices.copy()))
    assert vals[0] > 1e-8  # junction really is untreated
    assert vals[1] < vals[0]


#: point_surface_distance as float.hex() at points on the surface, near it,
#: at a moderate distance, at the centre of the sphere or torus and far
#: away; recorded with the scan over all faces that the face grid replaced,
#: and re-recorded where a projection beyond a face's edge had been kept as
#: on the face (sphere3 points 3 and 6, torus3 points 2, 4, 5 and 6, each
#: of which moved up).
DISTANCE_PINS = {
    "sphere3": ["0x0.0p+0", "0x1.0624dd2f1a71ap-10", "0x1.bfe95dbc3562bp-5",
                "0x1.fdae75326d1e5p-1", "0x1.2637b5955ab8cp-6", "0x1.935cce7a35a97p+5"],
    "torus3": ["0x0.0p+0", "0x1.49578ef6b7a88p-10", "0x1.7b35b7663a421p-3",
               "0x1.4c662d3dbba5dp+0", "0x1.2c41a4c95c198p-1", "0x1.863e673a44046p+5"],
}


def _distance_hexes(v) -> list[str]:
    x = v.vertices[5]
    points = [x, x * (1.0 + 1e-3), x + [0.0, 0.3, -0.2], v.vertices.mean(axis=0),
              [0.31, -0.77, 0.52], [40.0, -30.0, 12.0]]
    return [float(curvature.point_surface_distance(v, np.asarray(p, dtype=float))).hex() for p in points]


def test_point_surface_distance_pinned_bits(sphere3, torus3):
    assert {"sphere3": _distance_hexes(sphere3.varifold),
            "torus3": _distance_hexes(torus3.varifold)} == DISTANCE_PINS
