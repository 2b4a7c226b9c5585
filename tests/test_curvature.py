import hashlib
import math

import numpy as np
import pytest

from varifold_lab import curvature, generators, mesh
from varifold_lab.mesh import DiscreteVarifold, MeshError

from conftest import first_variation_residual, projective_plane, tangent_spheres, triple_fan, two_spheres


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
    var = DiscreteVarifold(vertices, faces)
    with pytest.raises(MeshError):
        curvature.helfrich_energy(var, 0.0)


def test_helfrich_names_the_first_edge_where_windings_disagree():
    v = generators.gen_sphere(1.0, 2).varifold
    faces = v.faces.copy()
    faces[0] = faces[0, ::-1]
    flipped = DiscreteVarifold(v.vertices, faces, oriented=True)
    with pytest.raises(MeshError, match=r"^face windings disagree across edge \(0, 42\)$"):
        curvature.helfrich_energy(flipped, 0.0)


@pytest.mark.parametrize("c0, shown", [(math.nan, "nan"), (-math.inf, "-inf"), ("1", "'1'"), (True, "True")],
                         ids=["nan", "minus-inf", "string", "boolean"])
def test_helfrich_rejects_a_c0_that_is_not_a_finite_number(sphere3, c0, shown):
    with pytest.raises(ValueError, match=f"^c0 must be a finite number, not {shown}$"):
        curvature.helfrich_energy(sphere3.varifold, c0)


def test_helfrich_on_one_oriented_triangle_is_zero():
    # no interior edge and only boundary vertices; recorded while an empty
    # interior took a special case
    tri = DiscreteVarifold([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]], oriented=True)
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


def _b2_eigenvalues(v):
    """Eigenvalue oracle for second_fundamental_norm's B2: the same edge tensor
    S_v, restricted to a tangent frame of the vertex normal, and k1² + k2²
    from the closed-form eigenvalues of that 2×2 form."""
    topo = v.topology
    nhat, areas = v.face_geometry
    rows, cols = np.array([[0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]])
    entry = np.empty((3, 3), dtype=np.intp)
    entry[rows, cols] = entry[cols, rows] = np.arange(6)
    area = curvature._vertex_areas(v, areas)
    ok = curvature._bending_vertices(v, v.curvature.vertex_area) & ~topo.junction_vertex_mask & (area > 0)
    ie = topo.interior_edges
    o = topo.offsets[ie]
    f0, f1 = topo.inc_faces[o], topo.inc_faces[o + 1]
    evec = v.vertices[topo.edges[ie, 1]] - v.vertices[topo.edges[ie, 0]]
    elen = np.linalg.norm(evec, axis=1)
    ebar = evec / elen[:, None]
    ef0 = ebar * topo.inc_signs[o].astype(np.float64)[:, None]
    n0, n1 = nhat[f0], nhat[f1]
    beta = np.arctan2(np.einsum("ij,ij->i", np.cross(n0, n1), ef0), np.einsum("ij,ij->i", n0, n1))
    t = (beta * elen / 2.0)[:, None] * ebar[:, rows] * ebar[:, cols]
    S = curvature._vertex_sum(topo.edges[ie], t[:, None], v.num_vertices)
    idx = np.nonzero(ok)[0]
    Sm = S[idx[:, None, None], entry] / area[idx, None, None]
    n = curvature._vertex_normals_unoriented(v, nhat, areas)[idx]
    seed = np.zeros_like(n)
    seed[np.arange(len(idx)), np.where(np.abs(n[:, 0]) < 0.9, 0, 1)] = 1.0
    t1 = np.cross(n, seed)
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(n, t1)
    p = np.einsum("ni,nij,nj->n", t1, Sm, t1)
    r = np.einsum("ni,nij,nj->n", t2, Sm, t2)
    q = np.einsum("ni,nij,nj->n", t1, Sm, t2)
    dev = np.sqrt(np.maximum(0.25 * (p - r) ** 2 + q * q, 0.0))
    l1, l2 = 0.5 * (p + r) + dev, 0.5 * (p + r) - dev
    B2 = np.full(v.num_vertices, np.nan)
    B2[idx] = l1 * l1 + l2 * l2
    return B2


@pytest.mark.parametrize("make", [lambda: generators.gen_cap(1.0, 1.2, 3),
                                  lambda: generators.gen_sphere(1.0, 4),
                                  lambda: generators.gen_torus(2.0, 0.7, 3),
                                  lambda: generators.gen_double_bubble(0.7, 1.0, 4)],
                         ids=["cap3", "sphere4", "torus3", "double_bubble4"])
def test_b2_is_the_sum_of_the_squared_tangent_eigenvalues(make):
    # the norm of S's tangential part rounds in another order than the
    # eigenvalues of its 2×2 form; 16 ulps bounds the difference
    v = make().varifold
    b2, want = curvature.second_fundamental_norm(v).B2, _b2_eigenvalues(v)
    np.testing.assert_array_equal(np.isnan(b2), np.isnan(want))
    ok = ~np.isnan(want)
    assert ok.sum() > 0
    assert (np.abs(b2[ok] - want[ok]) <= 16 * np.spacing(want[ok])).all()


def test_vertex_normals_flip_faces_against_the_first_and_skip_unused_vertices():
    # Faces 0 (normal +z) and 1 (normal -z) share vertices 0 and 2, whose
    # first face is face 0; vertex 3 is on face 1 only; vertex 4 is unused.
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [5, 5, 5]], dtype=float)
    v = DiscreteVarifold(verts, [[0, 1, 2], [0, 3, 2]])
    fn = mesh.face_normals(v)
    n = curvature._vertex_normals_unoriented(v, *fn)
    np.testing.assert_array_equal(n[:4], [[0, 0, 1], [0, 0, 1], [0, 0, 1], [0, 0, -1]])
    np.testing.assert_array_equal(n[4], 0.0)
    np.testing.assert_array_equal(n, _vertex_normals_loop(v, *fn))


def test_face_normals_are_computed_once_per_mesh(monkeypatch):
    cap = generators.gen_cap(1.0, 1.2, 3).varifold  # open: the conormals run too
    calls = []
    face_normals = mesh.face_normals

    def counting(w):
        calls.append(w)
        return face_normals(w)

    monkeypatch.setattr(mesh, "face_normals", counting)
    v = DiscreteVarifold(cap.vertices, cap.faces, cap.multiplicity)  # validate: block areas, kept nowhere
    assert not calls and "face_geometry" not in vars(v)
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
    # before the face normals were passed between the helpers; B2 and the
    # residual re-recorded when |B|² became the norm of S's tangential part
    # (within 8 ulps of the eigenvalue form's B2 here); K, the angle defects,
    # B2 and the residual re-recorded when every angle became libm's atan2
    # (corner angles within 1 ulp, defects within 1.8e-15, B2 within 1 ulp here)
    f = curvature.second_fundamental_norm(generators.gen_cap(1.0, 1.2, 3).varifold)
    want = {
        "H": "894606aa55b32203214cb95aeafa8be2fc3d4082863339f3a39b6df8462ddb93",
        "vertex_area": "7557a20ab597ec0e7c22ae557004de433989baad115d0edb319a839c1f1e32ec",
        "K": "b45ef15f5fef125d047980c386b9d9b9beca7e0fbb622dfa3b07a9666f82bdce",
        "angle_defect": "fdbef2b997f44ffa93ff506befd5ffd0dc6997c067e3c997dfdb34e35339cb2a",
        "B2": "6b8b674f1772edf30d17500a8905c6974c8f6e002b5b9a955bc82c9b58769a97",
        "gauss_relation_residual": "50e2f63820d25c02613017cc397878daf0599b04b9edb7a7e0244f1f36276ddb",
    }
    assert {k: hashlib.sha256(getattr(f, k).tobytes()).hexdigest() for k in want} == want


def test_willmore_integrand_is_kept_off_the_boundary():
    cap = generators.gen_cap(1.0, 1.2, 3).varifold
    v = DiscreteVarifold(np.vstack([cap.vertices, [[3.0, 0.0, 0.0]]]), cap.faces)  # one unused vertex
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
    tri = DiscreteVarifold([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
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


def test_euler_characteristic_torus(torus3):
    t = curvature.euler_characteristic(torus3.varifold)
    assert t.chi == 0 and t.genus == 1 and t.orientable


def test_euler_characteristic_rejects_junctions():
    var = DiscreteVarifold(*triple_fan())
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
    var = DiscreteVarifold(np.random.default_rng(0).standard_normal((6, 3)), faces)
    t = curvature.euler_characteristic(var)
    assert (t.chi, t.orientable, t.connected_components, t.genus) == (1, False, 1, None)


def _orient_scan_bfs(v):
    """Face-by-face BFS oracle for curvature._orient_scan: (orientable, components)."""
    topo = v.topology
    adj_f = [[] for _ in range(v.num_faces)]
    for ei in topo.interior_edges:
        o = topo.offsets[ei]
        f0, f1 = int(topo.inc_faces[o]), int(topo.inc_faces[o + 1])
        # windings are compatible when the two faces traverse the edge oppositely
        parity = int(topo.inc_signs[o] == topo.inc_signs[o + 1])
        adj_f[f0].append((f1, parity))
        adj_f[f1].append((f0, parity))
    flip = np.full(v.num_faces, -1, dtype=np.int8)
    orientable, components = True, 0
    for start in range(v.num_faces):
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


@pytest.mark.parametrize("make, want", [
    (lambda: generators.gen_sphere(1.0, 3).varifold, (True, 1)),
    (lambda: generators.gen_torus(2.0, 0.7, 3).varifold, (True, 1)),
    (projective_plane, (False, 1)),
    (two_spheres, (True, 2)),
], ids=["sphere3", "torus3", "projective_plane", "two_spheres"])
def test_orientation_union_find_matches_the_bfs_oracle(make, want):
    v = make()
    assert curvature._orient_scan(v) == _orient_scan_bfs(v) == want


def test_euler_characteristic_of_two_disjoint_spheres():
    t = curvature.euler_characteristic(two_spheres())
    assert (t.chi, t.orientable, t.connected_components, t.genus) == (4, True, 2, None)


def test_a_multiplicity_two_sphere_has_one_fan_at_every_vertex(sphere3):
    """The control without a pinch: every vertex star is one disk carried twice, and W doubles."""
    v = sphere3.varifold
    doubled = DiscreteVarifold(v.vertices, v.faces, 2 * v.multiplicity, oriented=True)
    assert (mesh._fans(doubled) == 1).all() and doubled.num_vertices == 642
    assert curvature.euler_characteristic(doubled) == curvature.euler_characteristic(v)
    assert curvature.willmore_energy(doubled) == 2 * curvature.willmore_energy(v)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: at a pinch the two stars' mass gradients "
                                       "cancel in one H, and W loses 0.039 at L3")
def test_tangent_spheres_bend_as_much_as_the_two_spheres(sphere3):
    assert curvature.willmore_energy(tangent_spheres(3)) == pytest.approx(
        2 * curvature.willmore_energy(sphere3.varifold), rel=1e-9)


def _same_partition(a, b):
    pairs = {(int(x), int(y)) for x, y in zip(a, b)}
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


@pytest.mark.parametrize("make, sheets", [
    (lambda: generators.gen_cap(1.0, 1.2, 3), 1),
    (lambda: generators.gen_double_bubble(0.7, 1.0, 4), 3),
    (lambda: generators.gen_double_bubble_flat(1.0, 3), 3),
    (lambda: generators.gen_triple_bubble(4), 6),
], ids=["cap3", "double_bubble4", "double_bubble_flat3", "triple_bubble4"])
def test_cover_components_are_the_generator_patches(make, sheets):
    # faces joined across edges with exactly two faces: the sheets between junctions
    v = make().varifold
    label = curvature._cover_labels(v).reshape(-1, 2).min(axis=1)
    assert len(set(label.tolist())) == sheets
    assert _same_partition(label, v.face_patches)


def test_singular_pair_is_one_sheet_with_two_patches():
    # its two graph sheets are welded at the rim into one pillow
    v = generators.gen_singular_pair([[0.0, 0.0]], [0.3], 0.1, 3).varifold
    label = curvature._cover_labels(v).reshape(-1, 2).min(axis=1)
    assert set(label.tolist()) == {0} and len(set(v.face_patches.tolist())) == 2


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


def test_enclosed_volume_names_the_boundary_before_the_windings():
    # the order of mesh._require: the declared orientation, then closed, then manifold and windings
    cap = generators.gen_cap(1.0, 0.8, 2).varifold
    faces = cap.faces.copy()
    faces[0] = faces[0, ::-1]
    with pytest.raises(MeshError, match=r"^mesh is not closed: edge \(0, 1\) bounds one face$"):
        curvature.enclosed_volume(DiscreteVarifold(cap.vertices, faces, oriented=True))
    with pytest.raises(MeshError, match=r"^operation requires an oriented mesh \(oriented=True\)$"):
        curvature.enclosed_volume(DiscreteVarifold(cap.vertices, faces))


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
